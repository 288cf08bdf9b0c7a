package analysis

import (
	"testing"

	"tifs/internal/isa"
	"tifs/internal/trace"
	"tifs/internal/workload"
	"tifs/internal/xrand"
)

// blocks converts small ints to block numbers.
func blocks(vs ...int) []isa.Block {
	out := make([]isa.Block, len(vs))
	for i, v := range vs {
		out[i] = isa.Block(v)
	}
	return out
}

// TestFig4Accounting reproduces the paper's Fig. 4 example: a stream
// w x y z occurring three times followed by never-repeating misses
// p q r s. Expected: 4 New (first occurrence), 2 Head + 6 Opportunity
// (two repeats), 4 Non-repetitive.
func TestFig4Accounting(t *testing.T) {
	const w, x, y, z, p, q, r, s = 10, 11, 12, 13, 20, 21, 22, 23
	seq := blocks(w, x, y, z, w, x, y, z, w, x, y, z, p, q, r, s)
	c := Categorize(seq)

	if got := c.Counts.Count(CatNew); got != 4 {
		t.Errorf("New = %d, want 4", got)
	}
	if got := c.Counts.Count(CatHead); got != 2 {
		t.Errorf("Head = %d, want 2", got)
	}
	if got := c.Counts.Count(CatOpportunity); got != 6 {
		t.Errorf("Opportunity = %d, want 6", got)
	}
	if got := c.Counts.Count(CatNonRepetitive); got != 4 {
		t.Errorf("Non-repetitive = %d, want 4", got)
	}
	if got := c.Counts.Total(); got != uint64(len(seq)) {
		t.Errorf("total %d != trace length %d", got, len(seq))
	}
	// Both repeats are 4-block streams.
	if c.StreamLengths.Total() != 2 || c.StreamLengths.Count(4) != 2 {
		t.Errorf("stream lengths: %+v", c.StreamLengths)
	}
}

func TestCategorizeTotalAlwaysMatches(t *testing.T) {
	rng := xrand.New(42)
	streams := make([][]isa.Block, 6)
	for i := range streams {
		streams[i] = make([]isa.Block, rng.Range(3, 40))
		for j := range streams[i] {
			streams[i][j] = isa.Block(i*1000 + j)
		}
	}
	var seq []isa.Block
	for k := 0; k < 200; k++ {
		seq = append(seq, streams[rng.Intn(len(streams))]...)
	}
	c := Categorize(seq)
	if got := c.Counts.Total(); got != uint64(len(seq)) {
		t.Fatalf("categorized %d misses, trace has %d", got, len(seq))
	}
	if c.RepetitiveFrac() < 0.9 {
		t.Errorf("highly repetitive trace classified %.2f repetitive", c.RepetitiveFrac())
	}
}

func TestCategorizeAllUnique(t *testing.T) {
	seq := make([]isa.Block, 200)
	for i := range seq {
		seq[i] = isa.Block(i)
	}
	c := Categorize(seq)
	if got := c.Counts.Count(CatNonRepetitive); got != 200 {
		t.Errorf("unique trace: Non-repetitive = %d, want 200", got)
	}
	if c.OpportunityFrac() != 0 {
		t.Errorf("unique trace has opportunity %f", c.OpportunityFrac())
	}
}

func TestCategorizeEmpty(t *testing.T) {
	c := Categorize(nil)
	if c.Counts.Total() != 0 || c.RepetitiveFrac() != 1 {
		t.Errorf("empty categorization: %+v", c.Counts)
	}
}

func TestHeuristicPerfectlyRepeatingStream(t *testing.T) {
	// One stream repeated 10 times back to back. The recorded history is
	// itself periodic, so once a replay locks on it covers every
	// subsequent miss *including* later heads (the stream continuation
	// predicts the next repetition). Only the first occurrence (5 misses)
	// and the first repeat's head are uncovered.
	var seq []isa.Block
	for r := 0; r < 10; r++ {
		seq = append(seq, blocks(1, 2, 3, 4, 5)...)
	}
	for _, p := range Policies() {
		res := EvaluateHeuristic(p, seq)
		want := uint64(50 - 5 - 1)
		if res.Covered != want {
			t.Errorf("%s: covered %d, want %d", p, res.Covered, want)
		}
	}
}

func TestHeuristicDivergentStreams(t *testing.T) {
	// Two streams share a head block (0) but diverge afterwards,
	// alternating, with unique noise between occurrences so replay cannot
	// ride the global periodicity: X = 0 1 2 3..., Y = 0 101 102...
	// Under strict alternation, Recent always picks the *other* stream
	// and pays a divergence miss per occurrence, as does First on Y
	// occurrences. Digram keys on (head, next) and Longest picks the
	// matching continuation, so both cover the divergence point too.
	var seq []isa.Block
	noise := 100000
	for r := 0; r < 12; r++ {
		seq = append(seq, blocks(0, 1, 2, 3, 4, 5)...)
		seq = append(seq, isa.Block(noise))
		noise++
		seq = append(seq, blocks(0, 101, 102, 103, 104, 105)...)
		seq = append(seq, isa.Block(noise))
		noise++
	}
	first := EvaluateHeuristic(PolicyFirst, seq)
	digram := EvaluateHeuristic(PolicyDigram, seq)
	recent := EvaluateHeuristic(PolicyRecent, seq)
	longest := EvaluateHeuristic(PolicyLongest, seq)

	if digram.Covered <= recent.Covered {
		t.Errorf("digram (%d) should beat recent (%d) on alternating streams", digram.Covered, recent.Covered)
	}
	if longest.Covered <= recent.Covered {
		t.Errorf("longest (%d) should beat recent (%d) on alternating streams", longest.Covered, recent.Covered)
	}
	if first.Covered > longest.Covered {
		t.Errorf("first (%d) should not beat longest (%d)", first.Covered, longest.Covered)
	}
}

func TestHeuristicRecentAdaptsToPhaseChange(t *testing.T) {
	// Stream A repeats, then the program phase changes and head 0
	// permanently continues into stream B. Recent adapts after one
	// occurrence; First never does.
	var seq []isa.Block
	for r := 0; r < 5; r++ {
		seq = append(seq, blocks(0, 1, 2, 3)...)
	}
	for r := 0; r < 20; r++ {
		seq = append(seq, blocks(0, 7, 8, 9)...)
	}
	first := EvaluateHeuristic(PolicyFirst, seq)
	recent := EvaluateHeuristic(PolicyRecent, seq)
	if recent.Covered <= first.Covered {
		t.Errorf("recent (%d) should beat first (%d) across a phase change", recent.Covered, first.Covered)
	}
}

func TestHeuristicEmptyAndCoverage(t *testing.T) {
	res := EvaluateHeuristic(PolicyRecent, nil)
	if res.Coverage() != 0 || res.Total != 0 {
		t.Errorf("empty = %+v", res)
	}
	res = HeuristicResult{Policy: "x", Covered: 25, Total: 100}
	if res.Coverage() != 0.25 {
		t.Errorf("Coverage = %f", res.Coverage())
	}
}

func TestEvaluateHeuristicsOrderingOnWorkload(t *testing.T) {
	spec, _ := workload.ByName("OLTP-DB2")
	g := workload.Build(spec, workload.ScaleSmall, 1)
	misses := trace.ExtractMisses(g.Execs[0], 150_000)
	seq := trace.Blocks(misses)
	if len(seq) < 500 {
		t.Fatalf("only %d misses extracted", len(seq))
	}

	results := EvaluateHeuristics(seq)
	byName := map[string]float64{}
	for _, r := range results {
		byName[r.Policy] = r.Coverage()
	}
	opp := Categorize(seq).OpportunityFrac()

	// Orderings: Longest is the best single-policy bound. In the paper's
	// drifting workloads Recent beats First; our synthetic workloads are
	// stationary, which mildly favors First, so we require Recent to be
	// competitive (within a few points) rather than strictly above —
	// EXPERIMENTS.md documents the deviation.
	if byName[PolicyLongest] < byName[PolicyRecent] {
		t.Errorf("Longest (%.3f) below Recent (%.3f)", byName[PolicyLongest], byName[PolicyRecent])
	}
	if byName[PolicyRecent] < byName[PolicyFirst]-0.06 {
		t.Errorf("Recent (%.3f) far below First (%.3f)", byName[PolicyRecent], byName[PolicyFirst])
	}
	// Single-lookup policies stay near or below the SEQUITUR opportunity;
	// the oracle-selection Longest can exceed it slightly (it may cover
	// partial repeats the grammar did not fold into rules) but never the
	// repetitive fraction.
	rep := Categorize(seq).RepetitiveFrac()
	for _, p := range Policies() {
		bound := opp + 0.05
		if p == PolicyLongest {
			bound = rep
		}
		if byName[p] > bound {
			t.Errorf("%s coverage %.3f exceeds bound %.3f", p, byName[p], bound)
		}
	}
	// Recent must be a usable policy on server workloads (small-scale
	// traces are heavily fragmented; medium-scale runs reach ~65-70%).
	if byName[PolicyRecent] < 0.25 {
		t.Errorf("Recent coverage %.3f is implausibly low", byName[PolicyRecent])
	}
}

func TestBranchLookaheadWindowSums(t *testing.T) {
	recs := []trace.MissRecord{
		{Branches: 0}, {Branches: 2}, {Branches: 3}, {Branches: 5}, {Branches: 7}, {Branches: 1},
	}
	h := BranchLookahead(recs, 4)
	// Windows: i=0: 2+3+5+7=17; i=1: 3+5+7+1=16. Two samples.
	if h.Total() != 2 {
		t.Fatalf("samples = %d, want 2", h.Total())
	}
	if h.Count(17) != 1 || h.Count(16) != 1 {
		t.Errorf("window sums wrong: %v", h.Values())
	}
}

func TestBranchLookaheadShortTrace(t *testing.T) {
	h := BranchLookahead([]trace.MissRecord{{Branches: 1}}, 4)
	if h.Total() != 0 {
		t.Errorf("short trace produced %d samples", h.Total())
	}
}

func TestBranchLookaheadDefaultDepth(t *testing.T) {
	recs := make([]trace.MissRecord, 10)
	for i := range recs {
		recs[i].Branches = 1
	}
	h := BranchLookahead(recs, 0)
	if h.Total() == 0 {
		t.Fatal("no samples with default depth")
	}
	for _, v := range h.Values() {
		if v != DefaultLookaheadMisses {
			t.Errorf("window sum = %d, want %d", v, DefaultLookaheadMisses)
		}
	}
	cdf := LookaheadCDF(h)
	if len(cdf) != len(LookaheadBuckets()) {
		t.Errorf("CDF has %d points", len(cdf))
	}
	// All sums are 4, so CDF at 4 must be 1.
	for _, pt := range cdf {
		if pt.X >= 4 && pt.P != 1 {
			t.Errorf("CDF(%d) = %f, want 1", pt.X, pt.P)
		}
		if pt.X < 4 && pt.P != 0 {
			t.Errorf("CDF(%d) = %f, want 0", pt.X, pt.P)
		}
	}
}

func TestIMLCoverageSingleRepeatingStream(t *testing.T) {
	var seq []isa.Block
	for r := 0; r < 20; r++ {
		for i := 0; i < 50; i++ {
			seq = append(seq, isa.Block(100+i))
		}
	}
	// Unbounded: everything after the first pass except heads is covered.
	cov := IMLCoverage([][]isa.Block{seq}, 0)
	want := float64(19*49) / float64(20*50)
	if cov < want-0.02 || cov > want+0.02 {
		t.Errorf("unbounded coverage = %.3f, want ~%.3f", cov, want)
	}
	// IML smaller than the stream: the log wraps before the stream
	// recurs, so coverage collapses.
	covTiny := IMLCoverage([][]isa.Block{seq}, 8)
	if covTiny > 0.2 {
		t.Errorf("tiny IML coverage = %.3f, should collapse", covTiny)
	}
}

func TestIMLCoverageMonotonicSweep(t *testing.T) {
	spec, _ := workload.ByName("Web-Zeus")
	g := workload.Build(spec, workload.ScaleSmall, 2)
	perCore := make([][]isa.Block, 2)
	for c, x := range g.Execs {
		perCore[c] = trace.Blocks(trace.ExtractMisses(x, 80_000))
	}
	pts := IMLCapacitySweep(perCore, []int{256, 2048, 16384})
	if len(pts) != 3 {
		t.Fatalf("sweep points = %d", len(pts))
	}
	// Allow tiny non-monotonic wiggle, but the trend must rise.
	if pts[2].Coverage < pts[0].Coverage {
		t.Errorf("coverage not increasing: %.3f .. %.3f", pts[0].Coverage, pts[2].Coverage)
	}
	if pts[0].StorageKB >= pts[1].StorageKB {
		t.Error("storage not increasing with entries")
	}
}

func TestIMLCrossCoreSharing(t *testing.T) {
	// Core 0 logs a stream; core 1 then encounters it. With a shared
	// index, core 1 follows core 0's log.
	stream := blocks(1, 2, 3, 4, 5, 6, 7, 8)
	core0 := append(append([]isa.Block{}, stream...), stream...)
	core1 := append([]isa.Block{}, stream...)
	// Interleaving is round-robin per miss; core 1's occurrence overlaps
	// core 0's second pass, but the index already has entries from the
	// first pass.
	cov := IMLCoverage([][]isa.Block{core0, core1}, 0)
	if cov < 0.5 {
		t.Errorf("cross-core coverage = %.3f, want majority", cov)
	}
}

func TestIMLStorageKB(t *testing.T) {
	// 8K entries * 39 bits = 39 KB per core (paper: ~40 KB/core).
	got := IMLStorageKB(8192)
	if got < 38 || got > 40 {
		t.Errorf("IMLStorageKB(8192) = %.1f, want ~39", got)
	}
}

func TestIMLCoverageEmpty(t *testing.T) {
	if IMLCoverage(nil, 0) != 0 {
		t.Error("no cores should give 0")
	}
	if IMLCoverage([][]isa.Block{{}}, 100) != 0 {
		t.Error("empty traces should give 0")
	}
}
