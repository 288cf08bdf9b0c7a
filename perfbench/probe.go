package main

import (
	"fmt"
	"time"

	"tifs"
)

// Probe budgets: events generated and filtered per workload, and events
// per core of each probe simulation. Short runs use a tenth.
const (
	probeEvents    = 200_000
	probeSimEvents = 25_000
)

// probeLayers times each layer's public entry point directly, on the
// workload's own inputs: event generation, miss extraction, the two
// SEQUITUR analyses, and (unless the passes already timed them) one
// pooled simulation per mechanism and workload.
func probeLayers(b *bench, ws []*tifs.Workload, scale tifs.Scale, sims bool) {
	events, simEvents := probeEvents, uint64(probeSimEvents)
	if b.cfg.short {
		events, simEvents = events/10, simEvents/10
	}
	l := &b.layers
	root := b.tr.begin("bench.probe", 0)
	defer b.tr.end(root)
	for _, w := range ws {
		b.op("probe "+w.Spec.Name, func() error {
			w.Reset()
			sp := b.tr.begin("cfg.gen", root)
			t0 := time.Now()
			n := generate(w.Execs[0].NextBatch, events)
			l.genTime += time.Since(t0)
			b.tr.end(sp)
			l.genEvents += n
			if n != uint64(events) {
				return fmt.Errorf("generated %d of %d events", n, events)
			}

			w.Reset()
			sp = b.tr.begin("trace.extract", root)
			t0 = time.Now()
			recs := tifs.ExtractMisses(w, 0, uint64(events))
			l.extractTime += time.Since(t0)
			b.tr.end(sp)
			l.extractEvents += uint64(events)
			blocks := tifs.MissBlocks(recs)
			l.misses += uint64(len(blocks))

			sp = b.tr.begin("analysis.categorize", root)
			t0 = time.Now()
			tifs.Categorize(blocks)
			l.categorizeTime += time.Since(t0)
			b.tr.end(sp)

			sp = b.tr.begin("analysis.heuristics", root)
			t0 = time.Now()
			tifs.Heuristics(blocks)
			l.heuristicsTime += time.Since(t0)
			b.tr.end(sp)
			w.Reset()
			return nil
		})
	}
	if !sims {
		return
	}
	runner := tifs.NewSimRunner()
	defer runner.Close()
	for _, w := range ws {
		for _, m := range mechanisms {
			b.op("probe "+w.Spec.Name+"/"+m.name, func() error {
				mech, err := tifs.MechanismByName(m.name)
				if err != nil {
					return err
				}
				cfg := tifs.SimConfig{Cores: 4, EventsPerCore: simEvents, Mechanism: mech}
				runner.Run(w.Spec, scale, cfg) // fills the runner's pools
				sp := b.tr.begin("sim.run", root)
				t0 := time.Now()
				r := runner.Run(w.Spec, scale, cfg)
				d := time.Since(t0)
				b.tr.end(sp)
				l.addSim(m.name, d, r)
				return nil
			})
		}
	}
}

// generate pulls n events through a source's batch interface.
func generate[E any](nextBatch func([]E) int, n int) uint64 {
	buf := make([]E, 1024)
	got := 0
	for got < n {
		k := nextBatch(buf[:min(len(buf), n-got)])
		if k == 0 {
			break
		}
		got += k
	}
	return uint64(got)
}
