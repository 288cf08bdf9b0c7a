// Package trace turns raw fetch-event streams into the L1 instruction
// miss traces that TIFS and all offline analyses operate on, and provides
// the compact binary miss-trace codec the result store persists them
// with.
//
// The paper's definition of a "miss" (Section 4.1) is an instruction
// fetch that can be satisfied neither by the 64 KB 2-way L1-I cache nor
// by a next-line prefetcher running two blocks ahead of the fetch unit.
// Extractor implements exactly that filter functionally (no timing).
package trace

import (
	"tifs/internal/cache"
	"tifs/internal/isa"
)

// MissRecord describes one filtered L1-I miss.
type MissRecord struct {
	// Block is the missing instruction cache block.
	Block isa.Block
	// Seq is the index of the event (basic block) that triggered the miss
	// within the consumed stream.
	Seq uint64
	// Branches is the number of non-inner-loop conditional branches
	// executed since the previous miss; the Fig. 10 lookahead analysis
	// accumulates these counts.
	Branches int
	// Sequential reports that this miss is to the block immediately after
	// the previous miss (Fig. 5 removes such misses to model a perfect
	// next-line prefetcher).
	Sequential bool
}

// The paper's miss filter: a 64 KB 2-way L1-I plus a next-line
// prefetcher keeping the next nextLineDepth sequential blocks resident.
const (
	l1SizeBytes   = 64 * 1024
	l1Assoc       = 2
	nextLineDepth = 2
)

// Extractor filters a fetch-event stream into miss records. Feed it
// events directly, or use Run to pull from a source. Misses are delivered
// to the onMiss callback so large traces never need to be materialized.
type Extractor struct {
	l1     *cache.Cache
	onMiss func(MissRecord)

	seq      uint64
	branches int
	prevMiss isa.Block
	havePrev bool

	accesses uint64
	misses   uint64
}

// NewExtractor creates an extractor delivering misses to onMiss.
func NewExtractor(onMiss func(MissRecord)) *Extractor {
	return &Extractor{
		l1:     cache.New(cache.Config{SizeBytes: l1SizeBytes, Assoc: l1Assoc}),
		onMiss: onMiss,
	}
}

// Feed processes one fetch event.
func (e *Extractor) Feed(ev isa.BlockEvent) {
	ev.VisitBlocks(func(b isa.Block) bool {
		e.accesses++
		if !e.l1.Access(b) {
			e.misses++
			rec := MissRecord{
				Block:      b,
				Seq:        e.seq,
				Branches:   e.branches,
				Sequential: e.havePrev && b == e.prevMiss+1,
			}
			e.prevMiss = b
			e.havePrev = true
			e.branches = 0
			e.l1.Fill(b)
			if e.onMiss != nil {
				e.onMiss(rec)
			}
		}
		// Next-line prefetcher: keep the next nextLineDepth sequential
		// blocks resident. Fills via prefetch are not misses.
		for d := 1; d <= nextLineDepth; d++ {
			nb := b + isa.Block(d)
			if !e.l1.Contains(nb) {
				e.l1.Fill(nb)
			}
		}
		return true
	})
	if ev.Kind.IsConditional() && !ev.InnerLoop {
		e.branches++
	}
	e.seq++
}

// Run pulls up to maxEvents events from src through the extractor and
// returns the number of events consumed (less than maxEvents only if the
// source ends). Events are drained through one reused buffer: one
// dynamic dispatch per buffer instead of per event.
func (e *Extractor) Run(src isa.BatchSource, maxEvents uint64) uint64 {
	var buf [256]isa.BlockEvent
	var n uint64
	for n < maxEvents {
		want := uint64(len(buf))
		if left := maxEvents - n; left < want {
			want = left
		}
		got := src.NextBatch(buf[:want])
		for i := 0; i < got; i++ {
			e.Feed(buf[i])
		}
		n += uint64(got)
		if uint64(got) < want {
			break
		}
	}
	return n
}

// Accesses returns the number of block-granularity fetch accesses seen.
func (e *Extractor) Accesses() uint64 { return e.accesses }

// Misses returns the number of filtered misses produced.
func (e *Extractor) Misses() uint64 { return e.misses }

// MPKE returns misses per thousand events (a density diagnostic).
func (e *Extractor) MPKE() float64 {
	if e.seq == 0 {
		return 0
	}
	return 1000 * float64(e.misses) / float64(e.seq)
}

// ExtractMisses is a convenience that drains up to maxEvents events from
// src and returns the collected miss records. The result slice is
// preallocated from the event budget at a typical post-filter miss
// density, so collection does not reallocate as the trace grows.
func ExtractMisses(src isa.BatchSource, maxEvents uint64) []MissRecord {
	out := make([]MissRecord, 0, missCapacity(maxEvents))
	e := NewExtractor(func(m MissRecord) { out = append(out, m) })
	e.Run(src, maxEvents)
	return out
}

// missCapacity sizes a record buffer for an event budget. Filtered miss
// density on the Table I workloads runs a few percent of events; 1/16
// overshoots slightly, trading a little memory for zero regrowth.
func missCapacity(maxEvents uint64) uint64 {
	const maxPrealloc = 1 << 22
	c := maxEvents/16 + 16
	if c > maxPrealloc {
		c = maxPrealloc
	}
	return c
}

// Blocks projects miss records to their block addresses.
func Blocks(recs []MissRecord) []isa.Block {
	out := make([]isa.Block, len(recs))
	for i, r := range recs {
		out[i] = r.Block
	}
	return out
}

// DropSequential returns the records with Sequential misses removed,
// as the Fig. 5 stream-length study requires.
func DropSequential(recs []MissRecord) []MissRecord {
	out := make([]MissRecord, 0, len(recs))
	for _, r := range recs {
		if !r.Sequential {
			out = append(out, r)
		}
	}
	return out
}
