// Intra-run parallelism: shard the per-core event streams of ONE
// simulation across a pool of producer goroutines while the merge
// goroutine — the caller of Runner.Run — keeps every piece of simulated
// state (cores, caches, predictors, prefetchers, and the shared uncore)
// and consumes the streams in the exact order the serial scheduler
// would.
//
// # Determinism model
//
// The shared uncore is order-sensitive everywhere: bank occupancy,
// memory-channel occupancy, and the shared L2 content all change on
// every access, so the byte-identity guarantee of the golden harness
// pins the *entire* interleaving of core steps, not just per-core
// event order. The only work a second goroutine can take without
// replaying that interleaving is work that touches no simulated state
// at all — and profiling shows one such stage dominates: synthetic
// event generation (the workload executors behind
// workload.Generated.Sources()) is 30-37% of a serial run and is a
// pure function of each core's own seed.
//
// So the split is: producers own the per-core executors and
// pre-generate events in fixed-size epochs (chunks) through bounded
// single-producer/single-consumer rings; the merge goroutine runs the
// unchanged min-heap scheduler over cores whose sources read from
// those rings. Every simulated-state mutation — L1, next-line buffer,
// branch predictor, prefetcher, uncore — still happens on the merge
// goroutine at the serial schedule's uncore boundary, so the output
// bytes are identical to IntraParallelism=1 by construction: the
// events are the same values in the same order, and nothing else
// moved.
//
// The epoch ring is also the barrier: a producer that runs more than
// intraRingChunks epochs ahead of the merge goroutine parks on the
// ring's free list, and the merge goroutine parks on the full list
// when it catches up — bounded skew, no unbounded buffering, and the
// channel handoff provides the happens-before edge that makes the
// chunk memory safe to reuse.
//
// # Pooling
//
// Everything here is pooled in the Runner so a warmed intra-parallel
// run allocates nothing: the chunk buffers, both channels of every
// ring, the producer descriptors, and the worker goroutines themselves
// (spawned once, parked on a task channel between runs; Runner.Close —
// or its finalizer backstop — closes the channel so idle workers do not
// outlive the Runner).
package sim

import (
	"context"
	"runtime/pprof"

	"tifs/internal/isa"
)

const (
	// intraChunkEvents is one epoch: the unit of producer->consumer
	// handoff. Large enough that channel operations amortize to noise
	// (one pair per 4096 events), small enough that the warm-up skew
	// between cores stays bounded.
	intraChunkEvents = 4096
	// intraRingChunks is how many epochs a producer may run ahead of
	// the merge goroutine per core.
	intraRingChunks = 4
)

// pipeChunk announces one filled epoch: the ring slot and how many
// events it holds. n < intraChunkEvents marks the stream's final chunk.
type pipeChunk struct {
	idx int32
	n   int32
}

// corePipe is one core's SPSC epoch ring. The producer side (a shard
// worker) fills slots drawn from free and publishes them on full; the
// consumer side implements isa.BatchSource for the core.
type corePipe struct {
	buf  []isa.BlockEvent // intraRingChunks * intraChunkEvents slots
	full chan pipeChunk
	free chan int32

	// Consumer-side cursor over the current chunk.
	cur    pipeChunk
	pos    int32
	active bool // cur holds an unreturned chunk
	ended  bool // the final (short) chunk has been consumed
}

// newCorePipe builds a ring with all slots on the free list.
func newCorePipe() *corePipe {
	p := &corePipe{
		buf:  make([]isa.BlockEvent, intraRingChunks*intraChunkEvents),
		full: make(chan pipeChunk, intraRingChunks),
		free: make(chan int32, intraRingChunks),
	}
	p.resetConsumer()
	return p
}

// chunk returns slot idx's event storage.
func (p *corePipe) chunk(idx int32) []isa.BlockEvent {
	base := int(idx) * intraChunkEvents
	return p.buf[base : base+intraChunkEvents]
}

// resetConsumer restores the ring to its initial state: both channels
// drained, every slot on the free list, cursor cleared. Call only when
// no producer is running.
func (p *corePipe) resetConsumer() {
	for {
		select {
		case <-p.full:
		default:
			goto drained
		}
	}
drained:
	for {
		select {
		case <-p.free:
		default:
			goto refill
		}
	}
refill:
	for i := int32(0); i < intraRingChunks; i++ {
		p.free <- i
	}
	p.cur = pipeChunk{}
	p.pos = 0
	p.active = false
	p.ended = false
}

// advance releases the consumed chunk and blocks for the next one.
// It returns false once the final chunk has been consumed.
func (p *corePipe) advance() bool {
	if p.ended {
		return false
	}
	if p.active {
		if p.cur.n < intraChunkEvents {
			// The final chunk stays held; the stream is over.
			p.ended = true
			return false
		}
		p.free <- p.cur.idx
		p.active = false
	}
	p.cur = <-p.full
	p.pos = 0
	p.active = true
	if p.cur.n == 0 {
		p.ended = true
		return false
	}
	return true
}

// NextBatch implements isa.BatchSource: it fills dst across epoch
// boundaries, short only when the stream is exhausted (the contract the
// fetch unit's chunked refill relies on).
func (p *corePipe) NextBatch(dst []isa.BlockEvent) int {
	n := 0
	for n < len(dst) {
		for p.pos >= p.cur.n || !p.active {
			if !p.advance() {
				return n
			}
		}
		c := copy(dst[n:], p.chunk(p.cur.idx)[p.pos:p.cur.n])
		p.pos += int32(c)
		n += c
	}
	return n
}

// intraProducer generates one core's events into its pipe.
type intraProducer struct {
	pipe *corePipe
	src  isa.BatchSource
	left uint64 // events still to produce
	done bool
}

// fillOne produces one epoch (blocking on ring backpressure) and
// reports whether the producer still has work. The stream always ends
// with a short chunk — possibly empty when the budget divides evenly —
// so the consumer needs no out-of-band end signal.
func (p *intraProducer) fillOne() {
	idx := <-p.pipe.free
	buf := p.pipe.chunk(idx)
	want := intraChunkEvents
	if p.left < uint64(want) {
		want = int(p.left)
	}
	n := p.src.NextBatch(buf[:want])
	p.left -= uint64(n)
	if n < intraChunkEvents {
		// Short chunk: source exhausted, or budget reached. Either way
		// this is the terminal epoch.
		p.done = true
	}
	p.pipe.full <- pipeChunk{idx: idx, n: int32(n)}
}

// intraTask is one shard worker's assignment: a contiguous subset of
// the run's producers, advanced round-robin one epoch at a time. The
// round-robin pass is the epoch schedule; a pipe whose ring is full
// parks the worker until the merge goroutine drains it.
type intraTask struct {
	prods []intraProducer
	done  chan struct{}
}

func (t *intraTask) run() {
	for {
		live := 0
		for i := range t.prods {
			p := &t.prods[i]
			if p.done {
				continue
			}
			p.fillOne()
			if !p.done {
				live++
			}
		}
		if live == 0 {
			break
		}
	}
	t.done <- struct{}{}
}

// intraWorker is a persistent shard worker: it parks on the task
// channel between runs and exits when the channel closes
// (Runner.Close, or its finalizer backstop). It deliberately receives
// only the channel — never the Runner — so parked workers cannot keep a
// dropped Runner alive. The goroutine carries a pprof label so profiles
// attribute event generation to this tier.
func intraWorker(work chan *intraTask) {
	pprof.Do(context.Background(), pprof.Labels("tifs-tier", "intra-producer"), func(context.Context) {
		for t := range work {
			t.run()
		}
	})
}

// intraState is the Runner's pooled intra-parallel machinery.
type intraState struct {
	pipes   []*corePipe
	srcs    []isa.BatchSource
	tasks   []intraTask
	work    chan *intraTask
	workers int
}

// pipeSources ensures a pooled ring per core and returns the pipes as
// the event sources the cores should read this run.
func (r *Runner) pipeSources(cores int) []isa.BatchSource {
	st := &r.intra
	for len(st.pipes) < cores {
		st.pipes = append(st.pipes, newCorePipe())
	}
	if cap(st.srcs) < cores {
		st.srcs = make([]isa.BatchSource, cores)
	}
	st.srcs = st.srcs[:cores]
	for i := 0; i < cores; i++ {
		st.srcs[i] = st.pipes[i]
	}
	return st.srcs
}

// intraShards returns the producer-goroutine count for a run: the knob
// bounded by the core count (more shards than cores would idle).
func intraShards(intra, cores int) int {
	if intra > cores {
		intra = cores
	}
	return intra
}

// startIntra partitions the run's event sources (the real workload
// executors) across shard workers feeding the rings handed out by
// pipeSources. Call after all configuration validation — nothing may
// panic between start and finishIntra. The pipes' previous-run state is
// reset here, strictly before any producer starts, so the handoff
// through the task channel orders every reset before the first
// concurrent access.
func (r *Runner) startIntra(sources []isa.BatchSource, perCore uint64, shards int) {
	st := &r.intra
	cores := len(sources)
	if cap(st.tasks) < shards {
		st.tasks = make([]intraTask, shards)
		for i := range st.tasks {
			st.tasks[i].done = make(chan struct{}, 1)
		}
	}
	st.tasks = st.tasks[:shards]
	if st.work == nil {
		st.work = make(chan *intraTask)
		r.armFinalizer()
	}
	for st.workers < shards {
		go intraWorker(st.work)
		st.workers++
	}

	for i := 0; i < cores; i++ {
		st.pipes[i].resetConsumer()
	}
	for s := 0; s < shards; s++ {
		lo, hi := s*cores/shards, (s+1)*cores/shards
		t := &st.tasks[s]
		t.prods = resizeProducers(t.prods, hi-lo)
		for i := lo; i < hi; i++ {
			p := &t.prods[i-lo]
			p.pipe = st.pipes[i]
			p.src = sources[i]
			p.left = perCore
			p.done = false
		}
	}
	for s := range st.tasks {
		st.work <- &st.tasks[s]
	}
}

// finishIntra waits for every shard worker to retire its task and
// clears producer references so pooled state does not pin executors.
func (r *Runner) finishIntra() {
	st := &r.intra
	for s := range st.tasks {
		<-st.tasks[s].done
		for i := range st.tasks[s].prods {
			st.tasks[s].prods[i] = intraProducer{}
		}
	}
}

// resizeProducers returns s with length n, reusing its backing array.
func resizeProducers(s []intraProducer, n int) []intraProducer {
	if cap(s) < n {
		return make([]intraProducer, n)
	}
	return s[:n]
}
