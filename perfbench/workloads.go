package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tifs"
)

var workloadNames = []string{"figures-small", "sim-serial", "analysis-medium", "sweep-roundtrip"}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "figures-small":
		return newFigures(cfg, nil, tifs.ScaleSmall, figuresEvents), nil
	case "analysis-medium":
		return newFigures(cfg, []string{"fig3", "fig5", "fig6", "fig11"}, tifs.ScaleMedium, 0), nil
	case "sim-serial":
		return newSimSerial(cfg), nil
	case "sweep-roundtrip":
		return newSweep(cfg), nil
	}
	return nil, fmt.Errorf("unknown --workload %q (have %s)", cfg.workload, strings.Join(workloadNames, ", "))
}

// goldenOptions are the settings the committed golden outputs are
// rendered under: small scale, 4,000 events per core, 4 cores.
func goldenOptions() tifs.ExperimentOptions {
	return tifs.ExperimentOptions{Scale: tifs.ScaleSmall, Events: 4_000, Cores: 4}
}

func allExperimentIDs() []string {
	var ids []string
	for _, e := range tifs.Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}

// buildSuite builds every spec for 4 cores and records the time taken.
// Rounds after the first rename the specs, which reseeds them, so each
// round builds its programs instead of reading the process-wide cache.
func buildSuite(b *bench, specs []tifs.WorkloadSpec, scale tifs.Scale, round int) []*tifs.Workload {
	root := b.tr.begin("bench.setup", 0)
	defer b.tr.end(root)
	t0 := time.Now()
	out := make([]*tifs.Workload, 0, len(specs))
	for _, s := range specs {
		if round > 0 {
			s.Name += "~setup" + strconv.Itoa(round)
		}
		sp := b.tr.begin("workload.build", root)
		out = append(out, tifs.BuildWorkload(s, scale, 4))
		b.tr.end(sp)
	}
	b.layers.buildMs = append(b.layers.buildMs, float64(time.Since(t0).Nanoseconds())/1e6)
	return out
}

// gridEvents counts the workload events a sweep grid processes: the
// measured events of every simulation plus every trace extraction.
func gridEvents(g tifs.SweepGrid) uint64 {
	var n uint64
	for _, j := range g.Jobs {
		per := j.Config.EventsPerCore
		if per == 0 {
			per = j.Scale.DefaultEvents()
		}
		cores := j.Config.Cores
		if cores == 0 {
			cores = 4
		}
		n += per * uint64(cores)
	}
	for _, t := range g.Traces {
		n += t.Events * uint64(t.Cores)
	}
	return n
}

// figures renders experiments through tifs.RunExperiments on a fresh,
// storeless engine per pass and checks every rendered table. It is both
// figures-small (the whole registry) and analysis-medium (the offline
// analyses at medium scale).
type figures struct {
	ids     []string
	opts    tifs.ExperimentOptions
	built   []*tifs.Workload
	events  uint64
	digests *digestRefs
	golden  *goldenRefs
	fig13   string
}

// figuresEvents is figures-small's per-core event budget, a quarter of
// the small scale's default. At the default a pass takes about 17 s on a
// 2-CPU host, so a run held one pass and its wall time varied by 16-20%
// between runs with the host's load; at a quarter a run holds four passes
// and reports their median.
const figuresEvents = 50_000

func newFigures(cfg config, ids []string, scale tifs.Scale, events uint64) *figures {
	f := &figures{ids: ids, opts: tifs.ExperimentOptions{Scale: scale, Events: events, Cores: 4}}
	if ids == nil {
		f.ids = allExperimentIDs()
	}
	if cfg.short {
		// The short form renders at the golden settings and checks
		// against the golden files.
		f.opts = goldenOptions()
	}
	return f
}

func (f *figures) minPasses() int { return 1 }

func (f *figures) setup(b *bench, round int) error {
	built := buildSuite(b, tifs.Workloads(), f.opts.Scale, round)
	if round > 0 {
		return nil
	}
	f.built = built
	g, err := tifs.ExperimentGrid(f.ids, f.opts)
	if err != nil {
		return err
	}
	f.events = gridEvents(g)
	if b.cfg.short {
		f.golden = loadGolden(b.cfg.golden, f.ids)
	} else {
		f.digests = loadDigests(filepath.Join(b.cfg.refs, b.cfg.workload+".sha256"))
	}
	return nil
}

func (f *figures) check(b *bench, id, out string) error {
	if f.golden != nil {
		return f.golden.check(id, out)
	}
	return f.digests.check(id, out, b.cfg.record)
}

func (f *figures) pass(b *bench, traced bool) uint64 {
	e := tifs.NewSimEngine(b.par, nil)
	defer e.Close()
	var parent atomic.Int64
	if traced {
		b.layers.eng.observe(e, b.tr, &parent)
	}
	t0 := time.Now()
	root := b.tr.begin("bench.pass", 0)
	o := f.opts
	o.Engine = e
	for _, id := range f.ids {
		b.op(id, func() error {
			sp := b.tr.begin("experiments.run", root)
			parent.Store(int64(sp))
			out, err := tifs.RunExperiments([]string{id}, o)
			b.tr.end(sp)
			if err != nil {
				return err
			}
			if id == "fig13" {
				f.fig13 = out
			}
			return f.check(b, id, out)
		})
	}
	b.tr.end(root)
	if traced {
		b.layers.addEngine(e, time.Since(t0))
	}
	return f.events
}

func (f *figures) probe(b *bench) { probeLayers(b, f.built, f.opts.Scale, true) }

func (f *figures) report(b *bench) {
	if b.cfg.record && f.digests != nil {
		if err := f.digests.save(); err != nil {
			b.op("record references", func() error { return err })
		}
	}
	if b.cfg.workload == "figures-small" {
		b.print("note: the figure workloads are fixed by the experiment registry and take no seed")
	}
	if f.fig13 == "" {
		return
	}
	v, err := fig13Speedup(f.fig13)
	if err != nil {
		b.op("fig13 speedup", func() error { return err })
		return
	}
	b.print("metric %-36s %.6g %s (simulated geomean TIFS-virtualized over next-line; the model is unvalidated)", "fig13_tifs_speedup", v, "x")
}

// fig13Speedup reads the TIFS-virtualized column of Fig. 13's geomean
// row: the simulated speedup over next-line prefetching.
func fig13Speedup(out string) (float64, error) {
	var header []string
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) > 0 && fields[0] == "Workload" {
			header = fields
		}
		if len(fields) == 0 || fields[0] != "geomean" {
			continue
		}
		for i, h := range header {
			if h == "TIFS-virtualized" && i < len(fields) {
				return strconv.ParseFloat(fields[i], 64)
			}
		}
	}
	return 0, errors.New("fig13: no geomean TIFS-virtualized entry")
}

// simSerial runs the Table-I workloads under every mechanism on one
// goroutine and one pooled SimRunner, 200k events per core.
type simSerial struct {
	specs  []tifs.WorkloadSpec
	mechs  []tifs.Mechanism
	events uint64
	runner *tifs.SimRunner
	refs   *counterRefs
	first  map[string]map[string]uint64 // seed != 0: each config's first counters
	passes int
}

func newSimSerial(cfg config) *simSerial {
	s := &simSerial{events: 200_000, first: map[string]map[string]uint64{}}
	if cfg.short {
		s.events = 5_000
	}
	return s
}

// minPasses is two: the first pass fills the runner's pools, the second
// is the steady state whose heap allocations are counted.
func (s *simSerial) minPasses() int { return 2 }

// specs returns the suite for a seed. Seed 0 is the shipped suite; any
// other seed suffixes each Spec.Name, which reseeds the workload's
// program and its per-core executors. The program only ever sees the
// resulting specs.
func seededSpecs(seed int64) []tifs.WorkloadSpec {
	specs := tifs.Workloads()
	if seed != 0 {
		for i := range specs {
			specs[i].Name += "#" + strconv.FormatInt(seed, 10)
		}
	}
	return specs
}

func (s *simSerial) setup(b *bench, round int) error {
	specs := seededSpecs(b.cfg.seed)
	buildSuite(b, specs, tifs.ScaleSmall, round)
	if round > 0 {
		return nil
	}
	s.specs = specs
	for _, m := range mechanisms {
		mech, err := tifs.MechanismByName(m.name)
		if err != nil {
			return err
		}
		s.mechs = append(s.mechs, mech)
	}
	s.runner = tifs.NewSimRunner()
	s.refs = loadCounters(filepath.Join(b.cfg.refs, "sim-serial.json"))
	return nil
}

func (s *simSerial) pass(b *bench, traced bool) uint64 {
	steady := s.passes > 0
	s.passes++
	root := b.tr.begin("bench.pass", 0)
	defer b.tr.end(root)
	var events uint64
	var m0, m1 runtime.MemStats
	for _, spec := range s.specs {
		for i, mech := range s.mechs {
			name := mechanisms[i].name
			key := fmt.Sprintf("%d/%s/%s", s.events, spec.Name, name)
			b.op(key, func() error {
				cfg := tifs.SimConfig{Cores: 4, EventsPerCore: s.events, Mechanism: mech}
				sp := b.tr.begin("sim.run", root)
				if steady {
					runtime.ReadMemStats(&m0)
				}
				t0 := time.Now()
				r := s.runner.Run(spec, tifs.ScaleSmall, cfg)
				d := time.Since(t0)
				if steady {
					runtime.ReadMemStats(&m1)
					b.layers.steadySims++
					b.layers.steadyAllocs += m1.Mallocs - m0.Mallocs
				}
				b.tr.end(sp)
				events += r.TotalEvents
				if traced {
					b.layers.addSim(name, d, r)
				}
				return s.checkCounters(b, key, countersOf(r))
			})
		}
	}
	// Seed 0, the shipped suite, is held to zero steady-state allocations.
	// Other seeds lengthen every workload name, and cfg.Executor.Reset
	// then builds its "exec/"+seed string on the heap (Go does so for
	// concatenations over 32 bytes) once per core and run. There the
	// count is reported as sim.steady_allocs instead of failing the run.
	if steady && b.cfg.seed == 0 {
		b.op("steady-state allocations", func() error {
			if n := b.layers.steadyAllocs / b.layers.steadySims; n != 0 {
				return fmt.Errorf("steady-state pooled simulations average %d heap allocations", n)
			}
			return nil
		})
	}
	return events
}

// checkCounters holds seed 0 to the recorded reference counters and any
// other seed to the counters of its own first run of the same config.
func (s *simSerial) checkCounters(b *bench, key string, got map[string]uint64) error {
	if b.cfg.seed == 0 {
		return s.refs.check(key, got, b.cfg.record)
	}
	want, ok := s.first[key]
	if !ok {
		s.first[key] = got
		return nil
	}
	return sameCounters(key, got, want)
}

func (s *simSerial) probe(b *bench) {
	ws := make([]*tifs.Workload, 0, len(s.specs))
	for _, spec := range s.specs {
		ws = append(ws, tifs.BuildWorkload(spec, tifs.ScaleSmall, 4))
	}
	probeLayers(b, ws, tifs.ScaleSmall, false)
}

func (s *simSerial) report(b *bench) {
	defer s.runner.Close()
	if b.cfg.record && b.cfg.seed == 0 {
		if err := s.refs.save(); err != nil {
			b.op("record references", func() error { return err })
		}
	}
	if b.cfg.seed == 0 {
		b.print("note: seed 0 is the shipped suite, checked against recorded counters")
	} else {
		b.print("note: seed %d reseeds every workload; counters are checked for repeat identity", b.cfg.seed)
	}
	if l := &b.layers; l.steadySims > 0 {
		b.print("metric %-36s %d %s (%d allocations over %d steady-state simulations, truncated like testing.AllocsPerRun)",
			"steady_allocs", l.steadyAllocs/l.steadySims, "count", l.steadyAllocs, l.steadySims)
	}
}

// sweep is the store round trip at the golden settings: two concurrent
// ShardedSweepAuto workers fill a fresh store, a fresh store-backed
// engine renders every experiment from it, and each rendered table is
// compared byte for byte with its golden file.
type sweep struct {
	ids    []string
	opts   tifs.ExperimentOptions
	grid   tifs.SweepGrid
	built  []*tifs.Workload
	events uint64
	golden *goldenRefs
	trips  int
	tripMs []float64
}

// sweepShards is how many lease-manifest shards the workers claim.
const sweepShards = 4

func newSweep(cfg config) *sweep {
	return &sweep{ids: allExperimentIDs(), opts: goldenOptions()}
}

func (s *sweep) minPasses() int { return 1 }

func (s *sweep) setup(b *bench, round int) error {
	specs := tifs.Workloads()
	built := buildSuite(b, specs, s.opts.Scale, round)
	if round > 0 {
		return nil
	}
	s.built = built
	g, err := tifs.ExperimentGrid(nil, s.opts)
	if err != nil {
		return err
	}
	s.grid = g
	s.events = gridEvents(g)
	s.golden = loadGolden(b.cfg.golden, s.ids)
	return nil
}

func (s *sweep) pass(b *bench, traced bool) uint64 {
	dir := filepath.Join(b.cfg.out, "stores", fmt.Sprintf("trip-%d", s.trips))
	s.trips++
	t0 := time.Now()
	b.op("trip", func() error {
		root := b.tr.begin("bench.pass", 0)
		err := s.fill(b, dir, root, traced)
		if err == nil {
			err = s.render(b, dir, root, traced)
		}
		b.tr.end(root)
		return errors.Join(err, os.RemoveAll(dir))
	})
	d := time.Since(t0)
	if !traced {
		s.tripMs = append(s.tripMs, float64(d.Nanoseconds())/1e6)
	}
	return s.events
}

// fill runs two concurrent self-assigning shard workers over the grid.
func (s *sweep) fill(b *bench, dir string, root int, traced bool) error {
	sp := b.tr.begin("shard.sweep", root)
	t0 := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := b.tr.begin("shard.worker", sp)
			_, errs[i] = tifs.ShardedSweepAuto(context.Background(), dir, sweepShards, s.grid, tifs.ExperimentOptions{Parallelism: 1})
			b.tr.end(w)
		}()
	}
	wg.Wait()
	b.tr.end(sp)
	if traced {
		b.layers.sweepMs = append(b.layers.sweepMs, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return errors.Join(errs...)
}

// render assembles every experiment from the filled store and compares
// it with the golden files.
func (s *sweep) render(b *bench, dir string, root int, traced bool) error {
	sp := b.tr.begin("store.open", root)
	st, err := tifs.OpenResultStore(dir)
	b.tr.end(sp)
	if err != nil {
		return err
	}
	var backend tifs.StoreBackend = st
	var parent atomic.Int64
	var ts *timedStore
	if traced {
		ts = &timedStore{StoreBackend: st, tr: b.tr, parent: &parent}
		backend = ts
	}
	e := tifs.NewSimEngineBackend(b.par, backend)
	if traced {
		b.layers.eng.observe(e, b.tr, &parent)
	}
	sp = b.tr.begin("experiments.merge", root)
	t0 := time.Now()
	o := s.opts
	o.Engine = e
	var errs []error
	for _, id := range s.ids {
		rp := b.tr.begin("experiments.run", sp)
		parent.Store(int64(rp))
		out, err := tifs.RunExperiments([]string{id}, o)
		b.tr.end(rp)
		if err == nil {
			err = s.golden.check(id, out)
		}
		errs = append(errs, err)
	}
	wall := time.Since(t0)
	b.tr.end(sp)
	e.Close()
	sp = b.tr.begin("store.close", root)
	if err := backend.Close(); err != nil {
		errs = append(errs, fmt.Errorf("close store: %w", err))
	}
	b.tr.end(sp)
	if traced {
		b.layers.mergeMs = append(b.layers.mergeMs, float64(wall.Nanoseconds())/1e6)
		b.layers.addEngine(e, wall)
		b.layers.addStore(ts.tally, dirBytes(dir))
	}
	return errors.Join(errs...)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

func (s *sweep) probe(b *bench) { probeLayers(b, s.built, s.opts.Scale, true) }

func (s *sweep) report(b *bench) {
	b.print("note: the sweep round trip runs at the fixed golden settings and takes no seed")
	if len(s.tripMs) == 0 {
		return
	}
	v := append([]float64(nil), s.tripMs...)
	sort.Float64s(v)
	b.print("metric %-36s %.6g %s (%d trips)", "op_p50_ms", median(v), "ms", len(v))
	// The tail is the highest percentile with at least ten trips beyond it.
	if len(v) > 10 {
		k := len(v) - 11
		p := 100 * float64(k+1) / float64(len(v))
		b.print("metric %-36s %.6g %s (p%.0f of %d trips, 10 beyond)", "op_tail_ms", v[k], "ms", math.Floor(p), len(v))
	} else {
		b.print("metric %-36s %.6g %s (max of %d trips: too few for a tail with 10 beyond)", "op_tail_ms", v[len(v)-1], "ms", len(v))
	}
}
