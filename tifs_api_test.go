package tifs_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"tifs"
)

func TestWorkloadsAPI(t *testing.T) {
	ws := tifs.Workloads()
	if len(ws) != 6 {
		t.Fatalf("workloads = %d", len(ws))
	}
	if _, err := tifs.WorkloadByName("OLTP-Oracle"); err != nil {
		t.Error(err)
	}
	if _, err := tifs.WorkloadByName("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := tifs.ParseScale("medium"); err != nil {
		t.Error(err)
	}
}

// TestBadWorkloadListRejected: an unknown or repeated workload name is
// an error before anything runs, not an empty or double-counted table.
func TestBadWorkloadListRejected(t *testing.T) {
	for _, tc := range []struct {
		workloads []string
		want      string
	}{
		{[]string{"OLTP-DB3"}, `unknown workload "OLTP-DB3"`},
		{[]string{"OLTP-DB2", "OLTP-DB2"}, `workload "OLTP-DB2" listed twice`},
	} {
		o := tifs.ExperimentOptions{Workloads: tc.workloads, Events: 1_000}
		out, err := tifs.RunExperiments([]string{"fig13"}, o)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("RunExperiments(%v): err %v, want %q (output %q)", tc.workloads, err, tc.want, out)
		}
		if _, err := tifs.ExperimentGrid([]string{"fig13"}, o); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ExperimentGrid(%v): err %v, want %q", tc.workloads, err, tc.want)
		}
		if err := tifs.CheckWorkloads(tc.workloads); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("CheckWorkloads(%v): err %v, want %q", tc.workloads, err, tc.want)
		}
	}
	if err := tifs.CheckWorkloads([]string{"OLTP-DB2", "Web-Zeus"}); err != nil {
		t.Errorf("valid list rejected: %v", err)
	}
}

func TestMissExtractionAndAnalyses(t *testing.T) {
	spec, _ := tifs.WorkloadByName("Web-Zeus")
	w := tifs.BuildWorkload(spec, tifs.ScaleSmall, 1)
	misses := tifs.ExtractMisses(w, 0, 100_000)
	if len(misses) == 0 {
		t.Fatal("no misses")
	}
	blocks := tifs.MissBlocks(misses)
	cat := tifs.Categorize(blocks)
	if cat.Counts.Total() != uint64(len(misses)) {
		t.Error("categorization total mismatch")
	}
	hs := tifs.Heuristics(blocks)
	if len(hs) != 4 {
		t.Errorf("heuristics = %d", len(hs))
	}
}

func TestSimulateAPI(t *testing.T) {
	spec, _ := tifs.WorkloadByName("DSS-Qry2")
	r := tifs.Simulate(spec, tifs.ScaleSmall, tifs.SimConfig{
		EventsPerCore: 40_000,
		Mechanism:     tifs.TIFS(tifs.TIFSDedicated()),
	})
	if r.Cycles == 0 {
		t.Fatal("no cycles")
	}
	if r.TIFS == nil {
		t.Error("TIFS stats missing")
	}
}

func TestExperimentRegistryAPI(t *testing.T) {
	if len(tifs.Experiments()) < 13 {
		t.Errorf("registry has %d entries", len(tifs.Experiments()))
	}
	out, err := tifs.RunExperiments([]string{"table2"}, tifs.ExperimentOptions{Scale: tifs.ScaleSmall})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "8MB 16-way") {
		t.Errorf("table2 output missing L2 row:\n%s", out)
	}
	if _, err := tifs.RunExperiments([]string{"fig99"}, tifs.ExperimentOptions{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// sweepBackend is a store handle a sweep test owns and closes.
type sweepBackend interface {
	tifs.StoreBackend
	Close() error
}

// sweepAuto runs two concurrent ShardedSweep(AutoShard) workers, each on
// its own store handle from open (closed when its worker returns), and
// checks that together they ran every shard exactly once, covering the
// whole grid.
func sweepAuto(t *testing.T, open func() sweepBackend, count int, grid tifs.SweepGrid, o tifs.ExperimentOptions) {
	t.Helper()
	var wg sync.WaitGroup
	reports := make([][]tifs.ShardReport, 2)
	errs := make([]error, len(reports))
	for w := range reports {
		st := open()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer st.Close()
			reports[w], errs[w] = tifs.ShardedSweep(context.Background(), st, tifs.AutoShard, count, grid, o)
		}()
	}
	wg.Wait()
	ran := map[int]int{}
	var total int
	for w := range reports {
		if errs[w] != nil {
			t.Fatalf("auto worker %d: %v", w, errs[w])
		}
		for _, rep := range reports[w] {
			ran[rep.Index]++
			total += rep.Jobs + rep.Traces
		}
	}
	for i := 0; i < count; i++ {
		if ran[i] != 1 {
			t.Errorf("auto workers ran shard %d %d times, want once", i, ran[i])
		}
	}
	if total != len(grid.Jobs)+len(grid.Traces) {
		t.Errorf("auto workers covered %d of %d grid points", total, len(grid.Jobs)+len(grid.Traces))
	}
}

// mergeFig13 renders fig13 over a filled store with a fresh engine and
// checks that nothing was re-simulated.
func mergeFig13(t *testing.T, st tifs.StoreBackend, grid tifs.SweepGrid, o tifs.ExperimentOptions) string {
	t.Helper()
	if jobs, traces := tifs.MissingFromStore(st, grid); len(jobs)+len(traces) != 0 {
		t.Fatalf("store missing %d jobs, %d traces after the sweep", len(jobs), len(traces))
	}
	e := tifs.NewSimEngine(0, st)
	o.Engine = e
	merged, err := tifs.RunExperiments([]string{"fig13"}, o)
	if err != nil {
		t.Fatal(err)
	}
	if n := e.SimulationsRun(); n != 0 {
		t.Errorf("merge re-simulated %d grid points", n)
	}
	return merged
}

// TestShardedSweepAPI drives the public sharding surface end to end:
// enumerate a grid, run both workers of a 2-shard sweep into one store
// directory, and verify a merge renders the same bytes as a direct run
// with zero re-simulation. A second leg does the same with two
// concurrent self-assigning workers on a fresh directory.
func TestShardedSweepAPI(t *testing.T) {
	dir := t.TempDir()
	o := tifs.ExperimentOptions{
		Scale:     tifs.ScaleSmall,
		Events:    3_000,
		Workloads: []string{"OLTP-DB2"},
	}
	grid, err := tifs.ExperimentGrid([]string{"fig12", "fig13"}, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Jobs) == 0 {
		t.Fatal("grid enumerated no jobs")
	}
	if _, err := tifs.ExperimentGrid([]string{"fig99"}, o); err == nil {
		t.Error("unknown experiment id accepted")
	}
	if _, err := tifs.ShardedSweep(context.Background(), nil, 0, 2, grid, o); err == nil {
		t.Error("sweep without a store accepted")
	}

	st, err := tifs.OpenResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var total int
	for index := 0; index < 2; index++ {
		reports, err := tifs.ShardedSweep(context.Background(), st, index, 2, grid, o)
		if err != nil {
			t.Fatal(err)
		}
		if len(reports) != 1 || reports[0].Index != index {
			t.Fatalf("pinned shard %d returned reports %v", index, reports)
		}
		total += reports[0].Jobs + reports[0].Traces
	}
	if total != len(grid.Jobs)+len(grid.Traces) {
		t.Errorf("shards covered %d of %d grid points", total, len(grid.Jobs)+len(grid.Traces))
	}
	merged := mergeFig13(t, st, grid, o)

	// The direct run's engine gets a nil *ResultStore: that means no
	// store, not a typed-nil backend that panics on first use.
	storeless := tifs.NewSimEngine(0, (*tifs.ResultStore)(nil))
	direct, err := tifs.RunExperiments([]string{"fig13"}, tifs.ExperimentOptions{
		Scale:     tifs.ScaleSmall,
		Events:    3_000,
		Workloads: []string{"OLTP-DB2"},
		Engine:    storeless,
	})
	if err != nil {
		t.Fatal(err)
	}
	if storeless.SimulationsRun() == 0 || storeless.StoreHits() != 0 {
		t.Errorf("nil-store engine: %d simulations, %d store hits; want >0 and 0",
			storeless.SimulationsRun(), storeless.StoreHits())
	}
	if merged != direct {
		t.Errorf("merged output differs from direct run:\n--- merged\n%s\n--- direct\n%s", merged, direct)
	}

	autoDir := t.TempDir()
	sweepAuto(t, func() sweepBackend {
		st, err := tifs.OpenResultStore(autoDir)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}, 4, grid, o)
	autoStore, err := tifs.OpenResultStore(autoDir)
	if err != nil {
		t.Fatal(err)
	}
	defer autoStore.Close()
	if merged := mergeFig13(t, autoStore, grid, o); merged != direct {
		t.Errorf("auto-claim merge differs from direct run:\n--- merged\n%s\n--- direct\n%s", merged, direct)
	}
}

func TestExperimentSingleWorkload(t *testing.T) {
	out, err := tifs.RunExperiments([]string{"fig6"}, tifs.ExperimentOptions{
		Scale:     tifs.ScaleSmall,
		Events:    80_000,
		Cores:     1,
		Workloads: []string{"DSS-Qry17"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "DSS-Qry17") || strings.Contains(out, "OLTP") {
		t.Errorf("workload filter not applied:\n%s", out)
	}
}
