package isa

// BatchSource yields a stream of dynamic basic-block events a buffer at a
// time: NextBatch fills dst with up to len(dst) events and returns how
// many were written (short only when the source is exhausted). Workload
// executors never run dry and are bounded by the caller. It is how the
// simulated core's fetch unit refills its window and how trace
// extraction pulls its stream; one call amortizes interface dispatch and
// event copies across a whole buffer.
type BatchSource interface {
	NextBatch(dst []BlockEvent) int
}

// SliceSource adapts an in-memory event slice to a BatchSource.
type SliceSource struct {
	events []BlockEvent
	pos    int
}

// NewSliceSource returns a source that yields the given events in order.
// The slice is not copied.
func NewSliceSource(events []BlockEvent) *SliceSource {
	return &SliceSource{events: events}
}

// NextBatch implements BatchSource.
func (s *SliceSource) NextBatch(dst []BlockEvent) int {
	n := copy(dst, s.events[s.pos:])
	s.pos += n
	return n
}
