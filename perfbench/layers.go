package main

import (
	"sort"
	"time"

	"tifs"
)

// mechanisms are the prefetchers every simulation layer metric covers,
// by their tifs.MechanismByName name and their metric suffix.
var mechanisms = []struct{ name, suffix string }{
	{"next-line", "nextline"},
	{"fdip", "fdip"},
	{"tifs-dedicated", "tifs-dedicated"},
	{"tifs-virtualized", "tifs-virtualized"},
	{"perfect", "perfect"},
}

// countersOf flattens one simulation's modelled-component counters.
func countersOf(r tifs.SimResult) map[string]uint64 {
	c := map[string]uint64{
		"sim.cycles":              r.Cycles,
		"sim.instrs":              r.TotalInstrs,
		"sim.events":              r.TotalEvents,
		"prefetch.issued":         r.Prefetch.Issued,
		"prefetch.hits":           r.Prefetch.Hits(),
		"prefetch.discards":       r.Prefetch.Discards,
		"prefetch.meta_reads":     r.Prefetch.MetaReads,
		"uncore.l2_misses":        r.Uncore.L2Misses,
		"uncore.bank_wait_cycles": r.Uncore.BankWaitCycles,
		"core.index_lookups":      0,
		"core.streams_allocated":  0,
	}
	for _, s := range r.PerCore {
		c["cpu.misses"] += s.Misses
		c["cpu.prefetch_hits"] += s.PrefetchHits
		c["cpu.fetch_stall_cycles"] += s.FetchStallCycles
		c["cpu.stall_miss"] += s.StallMiss
		c["branch.mispredicts"] += s.BranchMispredicts
	}
	if r.TIFS != nil {
		c["core.index_lookups"] = r.TIFS.IndexLookups
		c["core.streams_allocated"] = r.TIFS.StreamsAllocated
	}
	return c
}

// mechTime is host time spent simulating one mechanism.
type mechTime struct {
	host   time.Duration
	events uint64
}

// layers accumulates the per-layer measurements of a traced run.
type layers struct {
	buildMs []float64 // workload builds per set-up round
	// overhead is the median traced pass minus the median untraced one.
	overhead float64

	genTime, extractTime           time.Duration
	genEvents, extractEvents       uint64
	misses                         uint64
	categorizeTime, heuristicsTime time.Duration

	mech  map[string]*mechTime
	model map[string]uint64 // summed counters of the timed simulations

	// steadySims counts the pooled simulations of sim-serial's passes
	// after the first, and steadyAllocs their heap allocations.
	steadySims, steadyAllocs uint64

	eng          engineStats
	engPasses    int
	engWall      time.Duration
	engSims      uint64
	engGrammars  uint64
	engStoreHits uint64
	sweepMs      []float64
	mergeMs      []float64
	storeTrips   int
	store        storeTally
	storeBytes   []float64
}

// addSim records one timed simulation of the named mechanism.
func (l *layers) addSim(mech string, host time.Duration, r tifs.SimResult) {
	if l.mech == nil {
		l.mech = map[string]*mechTime{}
		l.model = map[string]uint64{}
	}
	m := l.mech[mech]
	if m == nil {
		m = &mechTime{}
		l.mech[mech] = m
	}
	m.host += host
	m.events += r.TotalEvents
	for k, v := range countersOf(r) {
		l.model[k] += v
	}
}

// addEngine folds one traced pass's engine counters in.
func (l *layers) addEngine(e *tifs.SimEngine, wall time.Duration) {
	l.engPasses++
	l.engWall += wall
	l.engSims += e.SimulationsRun()
	l.engGrammars += e.GrammarBuilds()
	l.engStoreHits += e.StoreHits()
}

// addStore folds one traced trip's store wrapper in.
func (l *layers) addStore(s storeTally, bytes int64) {
	l.storeTrips++
	l.store.gets += s.gets
	l.store.hits += s.hits
	l.store.puts += s.puts
	l.store.getTimes = append(l.store.getTimes, s.getTimes...)
	l.store.putTimes = append(l.store.putTimes, s.putTimes...)
	l.storeBytes = append(l.storeBytes, float64(bytes))
}

type layerMetric struct {
	name  string
	value float64
	unit  string
}

// selfLayers are the layers whose self time the trace reports.
var selfLayers = []string{"bench", "workload", "cfg", "trace", "analysis", "sim", "engine", "shard", "store", "experiments"}

// metrics lists every per-layer metric. A layer the workload never
// reaches reports 0.
func (l *layers) metrics(b *bench) []layerMetric {
	per := func(d time.Duration, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n)
	}
	perPass := func(v float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return v / float64(n)
	}
	out := []layerMetric{
		{"workload.build_ms", median(l.buildMs), "ms"},
		{"cfg.gen_ns_per_event", per(l.genTime, l.genEvents), "ns"},
		{"trace.extract_ns_per_event", per(l.extractTime, l.extractEvents), "ns"},
		{"trace.misses_per_kevent", 1000 * perPass(float64(l.misses), int(l.extractEvents)), "count"},
		{"analysis.categorize_ns_per_miss", per(l.categorizeTime, l.misses), "ns"},
		{"analysis.heuristics_ns_per_miss", per(l.heuristicsTime, l.misses), "ns"},
	}
	nsPer := map[string]float64{}
	for _, m := range mechanisms {
		if t := l.mech[m.name]; t != nil {
			nsPer[m.suffix] = per(t.host, t.events)
		}
		out = append(out, layerMetric{"sim.ns_per_event." + m.suffix, nsPer[m.suffix], "ns"})
	}
	for _, m := range mechanisms[1:] {
		out = append(out, layerMetric{"prefetch.attach_ns_per_event." + m.suffix, nsPer[m.suffix] - nsPer["nextline"], "ns"})
	}
	c := l.model
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	out = append(out,
		layerMetric{"sim.steady_allocs", perPass(float64(l.steadyAllocs), int(l.steadySims)), "count"},
		layerMetric{"sim.cycles", float64(c["sim.cycles"]), "count"},
		layerMetric{"sim.ipc", ratio(c["sim.instrs"], c["sim.cycles"]), "instr/cycle"},
	)
	for _, name := range []string{"cpu.misses", "cpu.prefetch_hits", "cpu.fetch_stall_cycles", "cpu.stall_miss", "branch.mispredicts", "prefetch.issued"} {
		out = append(out, layerMetric{name, float64(c[name]), "count"})
	}
	out = append(out, layerMetric{"prefetch.useful_ratio", ratio(c["prefetch.hits"], c["prefetch.issued"]), "ratio"})
	for _, name := range []string{"prefetch.discards", "prefetch.meta_reads", "core.index_lookups", "core.streams_allocated", "uncore.l2_misses", "uncore.bank_wait_cycles"} {
		out = append(out, layerMetric{name, float64(c[name]), "count"})
	}

	e := &l.eng
	util := 0.0
	if l.engWall > 0 {
		util = (e.simBusy + e.traceBusy).Seconds() / (l.engWall.Seconds() * float64(b.par))
	}
	out = append(out,
		layerMetric{"engine.sims_run", perPass(float64(l.engSims), l.engPasses), "count"},
		layerMetric{"engine.traces_run", perPass(float64(e.traces), l.engPasses), "count"},
		layerMetric{"engine.grammar_builds", perPass(float64(l.engGrammars), l.engPasses), "count"},
		layerMetric{"engine.store_hits", perPass(float64(l.engStoreHits), l.engPasses), "count"},
		layerMetric{"engine.sim_busy_s", perPass(e.simBusy.Seconds(), l.engPasses), "s"},
		layerMetric{"engine.trace_busy_s", perPass(e.traceBusy.Seconds(), l.engPasses), "s"},
		layerMetric{"engine.worker_util", util, "ratio"},
		layerMetric{"engine.sim_max_ms", float64(e.simMax.Nanoseconds()) / 1e6, "ms"},
	)

	s := &l.store
	out = append(out,
		layerMetric{"shard.sweep_ms", median(l.sweepMs), "ms"},
		layerMetric{"experiments.merge_ms", median(l.mergeMs), "ms"},
		layerMetric{"store.gets", perPass(float64(s.gets), l.storeTrips), "count"},
		layerMetric{"store.get_hit_ratio", ratio(uint64(s.hits), uint64(s.gets)), "ratio"},
		layerMetric{"store.get_us_p50", durMedianUs(s.getTimes), "us"},
		layerMetric{"store.puts", perPass(float64(s.puts), l.storeTrips), "count"},
		layerMetric{"store.put_us_p50", durMedianUs(s.putTimes), "us"},
		layerMetric{"store.bytes", median(l.storeBytes), "bytes"},
	)

	self := b.tr.selfTimes()
	for _, layer := range selfLayers {
		out = append(out, layerMetric{layer + ".self_s", self[layer].Seconds(), "s"})
	}
	out = append(out,
		layerMetric{"tracing.overhead_s", l.overhead, "s"},
		layerMetric{"tracing.spans", float64(len(b.tr.spans)), "count"},
	)
	return out
}

func durMedianUs(d []time.Duration) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[len(s)/2].Nanoseconds()) / 1e3
}
