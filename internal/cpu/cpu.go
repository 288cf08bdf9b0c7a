// Package cpu models one core of the Table II CMP at the fidelity the
// study needs: a decoupled front end that fetches basic-block events
// through a 64 KB 2-way L1-I with a two-block next-line prefetcher, an
// attached (pluggable) instruction prefetcher, a hybrid branch predictor
// charging misprediction refills, and a width-4 back end whose
// data-side stalls are a calibrated per-instruction CPI adder
// (the README's "Model substitutions" explains the substitution).
//
// All prefetcher differentiation — timeliness, partial latency hiding,
// bank contention — flows through the cycle accounting here.
package cpu

import (
	"math"

	"tifs/internal/branch"
	"tifs/internal/cache"
	"tifs/internal/flathash"
	"tifs/internal/isa"
	"tifs/internal/prefetch"
	"tifs/internal/uncore"
)

// Config parameterizes a core; zero values select Table II.
type Config struct {
	// L1I is the instruction cache geometry (default 64 KB 2-way).
	L1I cache.Config
	// Width is dispatch/retire width in instructions per cycle
	// (default 4).
	Width int
	// NextLineDepth is how many blocks ahead the fetch unit's next-line
	// prefetcher runs (default 2).
	NextLineDepth int
	// MispredictPenalty is the pipeline refill cost of a conditional
	// branch misprediction in cycles (default 12).
	MispredictPenalty int
	// SerializePenalty is the ROB-drain cost of serializing events
	// (traps, synchronization) in cycles (default 24).
	SerializePenalty int
	// OverlapCycles is the portion of each fetch-miss stall hidden by the
	// decoupled front end and pre-dispatch queue (default 8). Serializing
	// events get no overlap: their miss latency is fully exposed
	// (Section 3.1).
	OverlapCycles int
	// WindowEvents is the fetch-target-queue depth exposed to run-ahead
	// prefetchers (default 48 events).
	WindowEvents int
	// PredictorEntries sizes the core's hybrid branch predictor
	// (default 16K).
	PredictorEntries int
	// EventBudget bounds how many events the core pulls from its source
	// (0 = unlimited).
	EventBudget uint64
	// BackendCPI is the calibrated per-instruction back-end stall adder.
	BackendCPI float64
	// DataBlocksPer1kInstr is the synthetic data-side L2 traffic rate
	// (ledger only; default 40).
	DataBlocksPer1kInstr float64
}

func (c Config) withDefaults() Config {
	if c.L1I.SizeBytes == 0 {
		c.L1I = cache.Config{SizeBytes: 64 * 1024, Assoc: 2}
	}
	if c.Width == 0 {
		c.Width = 4
	}
	if c.NextLineDepth == 0 {
		c.NextLineDepth = 2
	}
	if c.MispredictPenalty == 0 {
		c.MispredictPenalty = 12
	}
	if c.SerializePenalty == 0 {
		c.SerializePenalty = 24
	}
	if c.OverlapCycles == 0 {
		c.OverlapCycles = 8
	}
	if c.WindowEvents == 0 {
		c.WindowEvents = 48
	}
	if c.PredictorEntries == 0 {
		c.PredictorEntries = 16 * 1024
	}
	if c.DataBlocksPer1kInstr == 0 {
		c.DataBlocksPer1kInstr = 40
	}
	return c
}

// Stats are one core's execution counters.
type Stats struct {
	// Cycles is the core-local clock after the run.
	Cycles uint64
	// Instrs and Events count retired work.
	Instrs, Events uint64
	// BlockFetches counts demand block accesses; the outcome counters
	// partition them.
	BlockFetches, L1Hits, NextLineHits, PrefetchHits, Misses uint64
	// NextLineLate counts misses that were in-flight next-line blocks
	// (a subset of Misses).
	NextLineLate uint64
	// FetchStallCycles is exposed instruction-fetch stall time — the
	// paper's bottleneck metric. StallNextLine, StallPrefetch, and
	// StallMiss attribute it to in-flight next-line hits, in-flight
	// prefetcher hits, and demand misses respectively.
	FetchStallCycles                        uint64
	StallNextLine, StallPrefetch, StallMiss uint64
	// BranchMispredicts counts conditional mispredictions.
	BranchMispredicts, Branches uint64
	// Serializations counts ROB-drain events.
	Serializations uint64
}

// IPC returns instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instrs) / float64(s.Cycles)
}

// FetchStallShare returns the fraction of cycles lost to instruction
// fetch stalls.
func (s Stats) FetchStallShare() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.FetchStallCycles) / float64(s.Cycles)
}

// nlCapacity is the next-line buffer size in blocks.
const nlCapacity = 64

// Core is one simulated core bound to its event source, prefetcher, and
// the shared uncore.
type Core struct {
	ID  int
	cfg Config

	l1      *cache.Cache
	pred    *branch.Hybrid
	pf      prefetch.Prefetcher
	pfNone  bool // fast path: skip prefetcher dispatch entirely
	un      *uncore.L2
	src     isa.BatchSource
	srcLeft uint64 // events still allowed from src; 0 once it is dry

	// window is the fetch-target queue, consumed from head. It is
	// refilled in chunks: once fewer than WindowEvents events remain
	// ahead of head, the unconsumed tail moves to the front and one
	// NextBatch call fills the rest of its 2*WindowEvents capacity.
	window []isa.BlockEvent
	head   int

	// Next-line prefetch buffer in struct-of-arrays layout. nlIndex maps
	// each buffered block to its slot, so lookups are O(1) and exact.
	nlBlock []isa.Block
	nlReady []uint64
	nlUsed  []uint64
	nlIndex flathash.Map
	nlSeq   uint64
	// nlLast is the block of the last nlIssue call. While nlLastOK holds,
	// no block has left the L1 or the buffer since, so a repeat call for
	// nlLast would find every block it covers and issue nothing.
	nlLast   isa.Block
	nlLastOK bool

	execAcc float64 // fractional execution cycles
	execCPI float64 // hoisted 1/Width + BackendCPI (same expression tree)
	dataAcc float64 // fractional synthetic data-traffic blocks

	cycle uint64
	done  bool
	stats Stats
}

// New creates a core. The prefetcher may be nil (next-line only).
func New(id int, cfg Config, src isa.BatchSource, pf prefetch.Prefetcher, un *uncore.L2) *Core {
	cfg = cfg.withDefaults()
	if pf == nil {
		pf = prefetch.None{}
	}
	c := &Core{
		ID:      id,
		cfg:     cfg,
		l1:      cache.New(cfg.L1I),
		pred:    branch.NewHybrid(cfg.PredictorEntries),
		un:      un,
		src:     src,
		srcLeft: budget(cfg),
		window:  make([]isa.BlockEvent, 0, 2*cfg.WindowEvents),
		nlBlock: make([]isa.Block, 0, nlCapacity),
		nlReady: make([]uint64, 0, nlCapacity),
		nlUsed:  make([]uint64, 0, nlCapacity),
		execCPI: 1.0/float64(cfg.Width) + cfg.BackendCPI,
	}
	c.nlIndex.Grow(nlCapacity)
	c.SetPrefetcher(pf)
	return c
}

// Reset restores the core to the state New(id, cfg, src, nil, un) would
// produce with the core's existing id and uncore binding, reusing the L1
// ways, predictor tables, window, and next-line buffers so pooled
// simulation runs do not reallocate them. The caller attaches the
// prefetcher afterwards via SetPrefetcher, as after New.
func (c *Core) Reset(cfg Config, src isa.BatchSource) {
	cfg = cfg.withDefaults()
	if c.l1.Config() == cfg.L1I {
		c.l1.Reset()
	} else {
		c.l1 = cache.New(cfg.L1I)
	}
	if c.pred.Entries() == cfg.PredictorEntries {
		c.pred.Reset()
	} else {
		c.pred = branch.NewHybrid(cfg.PredictorEntries)
	}
	c.cfg = cfg
	c.src = src
	c.srcLeft = budget(cfg)
	if cap(c.window) < 2*cfg.WindowEvents {
		c.window = make([]isa.BlockEvent, 0, 2*cfg.WindowEvents)
	} else {
		c.window = c.window[:0]
	}
	c.head = 0
	c.nlBlock = c.nlBlock[:0]
	c.nlReady = c.nlReady[:0]
	c.nlUsed = c.nlUsed[:0]
	c.nlIndex.Reset()
	c.nlSeq = 0
	c.nlLastOK = false
	c.execAcc = 0
	c.execCPI = 1.0/float64(cfg.Width) + cfg.BackendCPI
	c.dataAcc = 0
	c.cycle = 0
	c.done = false
	c.stats = Stats{}
	c.SetPrefetcher(nil)
}

// budget returns how many events a core with cfg may pull from its
// source.
func budget(cfg Config) uint64 {
	if cfg.EventBudget == 0 {
		return math.MaxUint64
	}
	return cfg.EventBudget
}

// ContainsBlock implements prefetch.L1View.
func (c *Core) ContainsBlock(b isa.Block) bool { return c.l1.Contains(b) }

// Cycle returns the core-local clock.
func (c *Core) Cycle() uint64 { return c.cycle }

// Done reports whether the event source is exhausted.
func (c *Core) Done() bool { return c.done }

// Events returns how many events the core has executed.
func (c *Core) Events() uint64 { return c.stats.Events }

// Stats returns a copy of the counters (Cycles kept current).
func (c *Core) Stats() Stats {
	s := c.stats
	s.Cycles = c.cycle
	return s
}

// Prefetcher returns the attached prefetch engine.
func (c *Core) Prefetcher() prefetch.Prefetcher { return c.pf }

// SetPrefetcher attaches a prefetch engine; engines that need the core's
// L1 view (FDIP) are constructed after the core, so attachment is a
// separate step. Must be called before the first Step.
func (c *Core) SetPrefetcher(pf prefetch.Prefetcher) {
	if pf == nil {
		pf = prefetch.None{}
	}
	c.pf = pf
	_, c.pfNone = pf.(prefetch.None)
}

// fillWindow refills the fetch-target queue once fewer than
// WindowEvents events remain ahead of head: the unconsumed tail moves to
// the front and one NextBatch call fills the window to capacity, capped
// by the event budget. A short batch means the source is dry.
func (c *Core) fillWindow() {
	if len(c.window)-c.head >= c.cfg.WindowEvents || c.srcLeft == 0 {
		return
	}
	n := copy(c.window, c.window[c.head:])
	c.head = 0
	want := cap(c.window) - n
	if uint64(want) > c.srcLeft {
		want = int(c.srcLeft)
	}
	got := c.src.NextBatch(c.window[n : n+want])
	c.window = c.window[:n+got]
	if got < want {
		c.srcLeft = 0
	} else {
		c.srcLeft -= uint64(got)
	}
}

// nlFind returns the buffer index holding b, or -1.
func (c *Core) nlFind(b isa.Block) int {
	i, ok := c.nlIndex.Get(uint64(b))
	if !ok {
		return -1
	}
	return int(i)
}

// l1Fill installs b in the L1-I. The fill may evict a block a repeat
// nlIssue call would otherwise find, so it ends the repeat skip.
func (c *Core) l1Fill(b isa.Block) {
	c.l1.Fill(b)
	c.nlLastOK = false
}

// nlRemove deletes entry i (order is irrelevant; replacement is by age
// stamp, so swap-delete is safe) and re-points the moved entry's slot.
// Like an L1 eviction, it ends nlIssue's repeat skip.
func (c *Core) nlRemove(i int) {
	c.nlLastOK = false
	c.nlIndex.Delete(uint64(c.nlBlock[i]))
	last := len(c.nlBlock) - 1
	if i != last {
		c.nlBlock[i] = c.nlBlock[last]
		c.nlReady[i] = c.nlReady[last]
		c.nlUsed[i] = c.nlUsed[last]
		c.nlIndex.Put(uint64(c.nlBlock[i]), uint64(i))
	}
	c.nlBlock = c.nlBlock[:last]
	c.nlReady = c.nlReady[:last]
	c.nlUsed = c.nlUsed[:last]
}

// nlDrop removes a stale next-line copy superseded by a prefetcher hit.
func (c *Core) nlDrop(b isa.Block) {
	if i := c.nlFind(b); i >= 0 {
		c.nlRemove(i)
	}
}

// nlProbe checks the next-line buffer, consuming on hit.
func (c *Core) nlProbe(b isa.Block) (uint64, bool) {
	i := c.nlFind(b)
	if i < 0 {
		return 0, false
	}
	ready := c.nlReady[i]
	c.nlRemove(i)
	return ready, true
}

// nlIssue starts next-line prefetches for the blocks after b. A repeat
// call for the previous call's block returns at once: unless a block has
// left the L1 or the buffer since (l1Fill, nlRemove, or an eviction
// inside that call), every block after b is still in one of them.
func (c *Core) nlIssue(b isa.Block, now uint64) {
	if c.nlLastOK && b == c.nlLast {
		return
	}
	c.nlLast, c.nlLastOK = b, true
	for d := 1; d <= c.cfg.NextLineDepth; d++ {
		nb := b + isa.Block(d)
		if c.l1.Contains(nb) || c.nlFind(nb) >= 0 {
			continue
		}
		ready := c.un.ReadBlock(c.ID, nb, now, uncore.TrafficNextLine)
		c.nlSeq++
		if len(c.nlBlock) < nlCapacity {
			c.nlIndex.Put(uint64(nb), uint64(len(c.nlBlock)))
			c.nlBlock = append(c.nlBlock, nb)
			c.nlReady = append(c.nlReady, ready)
			c.nlUsed = append(c.nlUsed, c.nlSeq)
			continue
		}
		oldest := 0
		for i := 1; i < len(c.nlUsed); i++ {
			if c.nlUsed[i] < c.nlUsed[oldest] {
				oldest = i
			}
		}
		c.nlIndex.Delete(uint64(c.nlBlock[oldest]))
		c.nlIndex.Put(uint64(nb), uint64(oldest))
		c.nlBlock[oldest] = nb
		c.nlReady[oldest] = ready
		c.nlUsed[oldest] = c.nlSeq
		// The victim may be an earlier block of this very call.
		c.nlLastOK = false
	}
}

// stall advances the clock by the exposed portion of a fetch delay and
// attributes it to the given counter.
func (c *Core) stall(ready uint64, serializing bool, attr *uint64) {
	if ready <= c.cycle {
		return
	}
	wait := ready - c.cycle
	if !serializing {
		overlap := uint64(c.cfg.OverlapCycles)
		if wait <= overlap {
			return
		}
		wait -= overlap
	}
	c.cycle += wait
	c.stats.FetchStallCycles += wait
	*attr += wait
}

// Step executes one basic-block event and returns false when the source
// is exhausted.
func (c *Core) Step() bool {
	c.fillWindow()
	if c.head >= len(c.window) {
		c.done = true
		return false
	}
	ev := &c.window[c.head]
	if !c.pfNone {
		end := min(c.head+c.cfg.WindowEvents, len(c.window))
		c.pf.OnWindow(c.window[c.head:end], c.cycle)
	}

	if ev.Serializing {
		c.stats.Serializations++
		c.cycle += uint64(c.cfg.SerializePenalty)
	}

	// Fetch every cache block the basic block covers. Service order on an
	// L1 miss: the attached prefetcher's buffer first (a timely streamed
	// copy beats an in-flight next-line one), then the next-line buffer.
	// A next-line block still in flight is architecturally an L1 miss
	// with a merged MSHR: it stalls for the residual latency and is
	// reported as a miss so TIFS logs it — this is how temporal streaming
	// comes to cover the sequential blocks after a discontinuity that
	// next-line cannot fetch timely (Sections 3.1, 7).
	first := ev.PC.Block()
	last := ev.LastPC().Block()
	for b := first; b <= last; b++ {
		c.stats.BlockFetches++
		var outcome prefetch.FetchOutcome
		switch {
		case c.l1.Access(b):
			outcome = prefetch.FetchL1Hit
			c.stats.L1Hits++
		default:
			if ready, ok := c.probePf(b); ok {
				outcome = prefetch.FetchPrefetchHit
				c.stats.PrefetchHits++
				c.stall(ready, ev.Serializing, &c.stats.StallPrefetch)
				c.nlDrop(b)
			} else if ready, ok := c.nlProbe(b); ok {
				if ready <= c.cycle {
					// Arrived in time: counted as an L1 hit (Section 6.1).
					outcome = prefetch.FetchNextLineHit
					c.stats.NextLineHits++
				} else {
					outcome = prefetch.FetchMiss
					c.stats.Misses++
					c.stats.NextLineLate++
					c.stall(ready, ev.Serializing, &c.stats.StallNextLine)
				}
			} else {
				outcome = prefetch.FetchMiss
				c.stats.Misses++
				ready := c.un.ReadBlock(c.ID, b, c.cycle, uncore.TrafficFetch)
				c.stall(ready, ev.Serializing, &c.stats.StallMiss)
			}
			c.l1Fill(b)
		}
		if !c.pfNone {
			c.pf.OnFetchBlock(b, outcome, c.cycle)
		}
		c.nlIssue(b, c.cycle)
	}

	// Execute: width-limited dispatch plus the calibrated back-end adder.
	c.execAcc += float64(ev.Instrs) * c.execCPI
	if c.execAcc >= 1 {
		whole := uint64(c.execAcc)
		c.cycle += whole
		c.execAcc -= float64(whole)
	}

	// Synthetic data-side L2 traffic (ledger only).
	c.dataAcc += float64(ev.Instrs) * c.cfg.DataBlocksPer1kInstr / 1000
	if c.dataAcc >= 1 {
		whole := uint64(c.dataAcc)
		c.un.AddDataTraffic(whole)
		c.dataAcc -= float64(whole)
	}

	// Resolve the terminator.
	if ev.Kind.IsConditional() {
		c.stats.Branches++
		if c.pred.Predict(ev.LastPC()) != ev.Taken {
			c.stats.BranchMispredicts++
			c.cycle += uint64(c.cfg.MispredictPenalty)
		}
		c.pred.Update(ev.LastPC(), ev.Taken)
	}

	if !c.pfNone {
		c.pf.OnEvent(*ev, c.cycle)
	}
	c.stats.Events++
	c.stats.Instrs += uint64(ev.Instrs)
	c.head++ // consume; compaction happens once per refill in fillWindow
	return true
}

// probePf asks the attached prefetcher for b, skipping the interface
// dispatch entirely on the next-line-only baseline.
func (c *Core) probePf(b isa.Block) (uint64, bool) {
	if c.pfNone {
		return 0, false
	}
	return c.pf.Probe(b, c.cycle)
}
