package cpu

import (
	"fmt"
	"testing"

	"tifs/internal/cache"
	"tifs/internal/isa"
	"tifs/internal/uncore"
	"tifs/internal/xrand"
)

// refNL is the next-line buffer as a naive reference model: membership
// by linear scan, replacement of the oldest stamp, and no repeat skip.
// It owns its own L1 and uncore, so every ReadBlock it makes lands on a
// machine the core under test never touches.
type refNL struct {
	l1    *cache.Cache
	un    *uncore.L2
	depth int

	blocks []isa.Block
	ready  []uint64
	stamp  []uint64
	seq    uint64
}

func (r *refNL) find(b isa.Block) int {
	for i, x := range r.blocks {
		if x == b {
			return i
		}
	}
	return -1
}

func (r *refNL) remove(i int) {
	r.blocks = append(r.blocks[:i], r.blocks[i+1:]...)
	r.ready = append(r.ready[:i], r.ready[i+1:]...)
	r.stamp = append(r.stamp[:i], r.stamp[i+1:]...)
}

func (r *refNL) probe(b isa.Block) (uint64, bool) {
	i := r.find(b)
	if i < 0 {
		return 0, false
	}
	ready := r.ready[i]
	r.remove(i)
	return ready, true
}

func (r *refNL) drop(b isa.Block) {
	if i := r.find(b); i >= 0 {
		r.remove(i)
	}
}

func (r *refNL) issue(b isa.Block, now uint64) {
	for d := 1; d <= r.depth; d++ {
		nb := b + isa.Block(d)
		if r.l1.Contains(nb) || r.find(nb) >= 0 {
			continue
		}
		ready := r.un.ReadBlock(0, nb, now, uncore.TrafficNextLine)
		r.seq++
		if len(r.blocks) < nlCapacity {
			r.blocks = append(r.blocks, nb)
			r.ready = append(r.ready, ready)
			r.stamp = append(r.stamp, r.seq)
			continue
		}
		oldest := 0
		for i := range r.stamp {
			if r.stamp[i] < r.stamp[oldest] {
				oldest = i
			}
		}
		r.blocks[oldest], r.ready[oldest], r.stamp[oldest] = nb, ready, r.seq
	}
}

// nlPair is a core and the reference model built over identical small
// machines: a 4 KB 2-way L1-I (32 sets) and a 64 KB 4-way, 2-bank L2,
// so L1 evictions, L2 misses and bank waits all show up in short
// streams.
type nlPair struct {
	t   *testing.T
	c   *Core
	ref *refNL
	ops int
}

func newNLPair(t *testing.T) *nlPair {
	ucfg := uncore.Config{L2: cache.Config{SizeBytes: 64 * 1024, Assoc: 4}, Banks: 2}
	cfg := Config{L1I: cache.Config{SizeBytes: 4 * 1024, Assoc: 2}}
	c := New(0, cfg, isa.NewSliceSource(nil), nil, uncore.New(ucfg))
	ref := &refNL{l1: cache.New(cfg.L1I), un: uncore.New(ucfg), depth: c.cfg.NextLineDepth}
	return &nlPair{t: t, c: c, ref: ref}
}

func (p *nlPair) access(b isa.Block) bool {
	hit := p.c.l1.Access(b)
	if ref := p.ref.l1.Access(b); ref != hit {
		p.t.Fatalf("op %d: L1 access %d: core %v, reference %v", p.ops, b, hit, ref)
	}
	return hit
}

func (p *nlPair) fill(b isa.Block) {
	p.c.l1Fill(b)
	p.ref.l1.Fill(b)
	p.check("fill", b)
}

func (p *nlPair) probe(b isa.Block) {
	ready, ok := p.c.nlProbe(b)
	rready, rok := p.ref.probe(b)
	if ready != rready || ok != rok {
		p.t.Fatalf("op %d: probe %d = (%d, %v), reference (%d, %v)", p.ops, b, ready, ok, rready, rok)
	}
	p.check("probe", b)
}

func (p *nlPair) drop(b isa.Block) {
	p.c.nlDrop(b)
	p.ref.drop(b)
	p.check("drop", b)
}

// issue runs nlIssue on both and returns how many ReadBlock calls the
// core made.
func (p *nlPair) issue(b isa.Block, now uint64) uint64 {
	before := p.c.un.Traffic().Count(uncore.TrafficNextLine)
	p.c.nlIssue(b, now)
	p.ref.issue(b, now)
	p.check("issue", b)
	return p.c.un.Traffic().Count(uncore.TrafficNextLine) - before
}

// check compares the two machines after an operation: the uncore ledger
// and counters (so every ReadBlock call matches, in order, since each
// one moves bank and L2 state the next one's latency depends on), and
// the buffer as block -> (ready cycle, stamp). It also checks the core's
// slot index against its arrays.
func (p *nlPair) check(op string, b isa.Block) {
	p.t.Helper()
	p.ops++
	c, r := p.c, p.ref
	if c.un.Traffic() != r.un.Traffic() || c.un.Stats() != r.un.Stats() {
		p.t.Fatalf("op %d (%s %d): uncore diverged: core %+v %+v, reference %+v %+v",
			p.ops, op, b, c.un.Traffic(), c.un.Stats(), r.un.Traffic(), r.un.Stats())
	}
	if len(c.nlBlock) != len(r.blocks) || c.nlIndex.Len() != len(c.nlBlock) || c.nlSeq != r.seq {
		p.t.Fatalf("op %d (%s %d): buffer sizes core %d (index %d, seq %d), reference %d (seq %d)",
			p.ops, op, b, len(c.nlBlock), c.nlIndex.Len(), c.nlSeq, len(r.blocks), r.seq)
	}
	for i, x := range c.nlBlock {
		if slot, ok := c.nlIndex.Get(uint64(x)); !ok || int(slot) != i {
			p.t.Fatalf("op %d (%s %d): index maps block %d to (%d, %v), want slot %d", p.ops, op, b, x, slot, ok, i)
		}
		j := r.find(x)
		if j < 0 || r.ready[j] != c.nlReady[i] || r.stamp[j] != c.nlUsed[i] {
			p.t.Fatalf("op %d (%s %d): block %d (ready %d, stamp %d) not matched in reference",
				p.ops, op, b, x, c.nlReady[i], c.nlUsed[i])
		}
	}
}

// TestNextLineBufferMatchesReference drives the core's next-line buffer
// and the reference model with randomized fetch streams — sequential
// runs, jumps back into recent code and repeated blocks — in the order
// Step uses them, and compares every probe outcome, ready cycle and
// ReadBlock call. Stray fills and probes outside that order check that
// each primitive ends the repeat skip on its own.
func TestNextLineBufferMatchesReference(t *testing.T) {
	for seed := 0; seed < 4; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			p := newNLPair(t)
			rng := xrand.NewFromString(fmt.Sprintf("nl-ref-%d", seed))
			span := 96 + rng.Intn(400) // blocks in play: some streams fit the L1, some thrash it
			b := isa.Block(rng.Intn(span))
			now := uint64(0)
			for step := 0; step < 15_000; step++ {
				now += uint64(rng.Intn(24))
				switch x := rng.Intn(100); {
				case x < 70: // sequential
					b++
				case x < 85: // same block again, as when events share a block
				default: // jump
					b = isa.Block(rng.Intn(span))
				}
				if !p.access(b) {
					if rng.Intn(4) == 0 {
						p.drop(b) // a prefetcher hit supersedes the next-line copy
					} else {
						p.probe(b)
					}
					p.fill(b)
				}
				p.issue(b, now)
				if rng.Intn(8) == 0 {
					p.issue(b, now+uint64(rng.Intn(8)))
				}
				switch rng.Intn(32) {
				case 0:
					p.fill(isa.Block(rng.Intn(span))) // may evict a block after b from the L1
				case 1:
					p.probe(b + 1 + isa.Block(rng.Intn(2))) // may remove a block after b from the buffer
				}
			}
			if got := p.c.un.Traffic().Count(uncore.TrafficNextLine); got < 1000 {
				t.Fatalf("stream issued only %d next-line reads", got)
			}
		})
	}
}

// TestNextLineRepeatSkipAfterEviction builds a full buffer whose oldest
// entry is b+1. nlIssue(b) finds b+1 and evicts it to insert b+2, so a
// second nlIssue(b) must issue b+1 again rather than skip.
func TestNextLineRepeatSkipAfterEviction(t *testing.T) {
	p := newNLPair(t)
	sets := isa.Block(p.c.l1.NumSets())
	const b = isa.Block(100)
	p.fill(b + 2)
	if n := p.issue(b, 0); n != 1 { // b+1 only: b+2 is in the L1
		t.Fatalf("first issue made %d reads, want 1", n)
	}
	// Fill the buffer behind b+1 with 63 younger entries.
	for far := isa.Block(1000); far < 1061; far += 2 {
		p.issue(far, 1)
	}
	p.issue(1061, 1) // 1062 is buffered; 1063 is the 64th entry
	if len(p.c.nlBlock) != nlCapacity {
		t.Fatalf("buffer holds %d entries, want %d", len(p.c.nlBlock), nlCapacity)
	}
	// Push b+2 out of its 2-way L1 set.
	p.fill(b + 2 + sets)
	p.fill(b + 2 + 2*sets)
	if p.c.l1.Contains(b + 2) {
		t.Fatal("b+2 still in the L1")
	}
	if n := p.issue(b, 2); n != 1 {
		t.Fatalf("issue(b) with b+2 absent made %d reads, want 1", n)
	}
	if p.c.nlFind(b+1) >= 0 {
		t.Fatal("b+1 survived as the oldest entry of a full buffer")
	}
	if n := p.issue(b, 3); n != 1 {
		t.Fatalf("repeat issue(b) after b+1 was evicted made %d reads, want 1", n)
	}
	if n := p.issue(b, 4); n != 0 {
		t.Fatalf("repeat issue(b) with nothing changed made %d reads, want 0", n)
	}
}
