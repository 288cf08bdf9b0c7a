package workload

import (
	"testing"

	"tifs/internal/cfg"
	"tifs/internal/isa"
)

func TestSuiteHasSixWorkloads(t *testing.T) {
	suite := Suite()
	if len(suite) != 6 {
		t.Fatalf("suite has %d workloads, want 6", len(suite))
	}
	classes := map[Class]int{}
	for _, s := range suite {
		classes[s.Class]++
		if s.Name == "" || s.Description == "" {
			t.Errorf("workload %+v missing identity", s)
		}
		if s.AppKB <= 0 || s.TxnTypes <= 0 || s.ThreadsPerCore <= 0 {
			t.Errorf("workload %s has degenerate parameters", s.Name)
		}
	}
	if classes[OLTP] != 2 || classes[DSS] != 2 || classes[Web] != 2 {
		t.Errorf("class mix = %v, want 2 each", classes)
	}
}

func TestByName(t *testing.T) {
	s, ok := ByName("OLTP-Oracle")
	if !ok || s.Class != OLTP {
		t.Errorf("ByName(OLTP-Oracle) = %+v, %v", s, ok)
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName should fail for unknown workload")
	}
	names := Names()
	if len(names) != 6 || names[0] != "OLTP-DB2" {
		t.Errorf("Names() = %v", names)
	}
}

func TestParseScale(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Scale
	}{{"small", ScaleSmall}, {"medium", ScaleMedium}, {"full", ScaleFull}} {
		got, err := ParseScale(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseScale(%q) = %v, %v", c.in, got, err)
		}
		if got.String() != c.in {
			t.Errorf("Scale.String() = %q, want %q", got.String(), c.in)
		}
	}
	if _, err := ParseScale("giant"); err == nil {
		t.Error("ParseScale should reject unknown scales")
	}
}

func TestScaleDefaults(t *testing.T) {
	if ScaleSmall.DefaultEvents() >= ScaleMedium.DefaultEvents() {
		t.Error("small events should be < medium")
	}
	if ScaleMedium.DefaultEvents() >= ScaleFull.DefaultEvents() {
		t.Error("medium events should be < full")
	}
}

// take pulls the next n events from an infinite executor in one batch.
func take(t *testing.T, x *cfg.Executor, n int) []isa.BlockEvent {
	t.Helper()
	evs := make([]isa.BlockEvent, n)
	if got := x.NextBatch(evs); got != n {
		t.Fatalf("infinite source filled %d of %d events", got, n)
	}
	return evs
}

func TestBuildProducesRunnableCores(t *testing.T) {
	spec, _ := ByName("Web-Zeus")
	g := Build(spec, ScaleSmall, 4)
	if g.Cores() != 4 {
		t.Fatalf("Cores = %d", g.Cores())
	}
	if err := g.Program.Validate(); err != nil {
		t.Fatalf("program invalid: %v", err)
	}
	for c, x := range g.Execs {
		evs := take(t, x, 20001)
		prev := evs[0]
		for i, ev := range evs[1:] {
			if prev.Kind != isa.CTTrap && prev.Kind != isa.CTTrapReturn && prev.NextPC() != ev.PC {
				t.Fatalf("core %d event %d: inconsistent stream", c, i)
			}
			prev = ev
		}
	}
}

func TestBuildDeterministicAcrossCalls(t *testing.T) {
	spec, _ := ByName("DSS-Qry2")
	g1 := Build(spec, ScaleSmall, 2)
	g2 := Build(spec, ScaleSmall, 2)
	s1, s2 := take(t, g1.Execs[0], 20000), take(t, g2.Execs[0], 20000)
	for i, e1 := range s1 {
		if e1 != s2[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestCoresAreDecorrelated(t *testing.T) {
	spec, _ := ByName("OLTP-DB2")
	g := Build(spec, ScaleSmall, 2)
	const n = 5000
	s0, s1 := take(t, g.Execs[0], n), take(t, g.Execs[1], n)
	same := 0
	for i, e0 := range s0 {
		if e0.PC == s1[i].PC {
			same++
		}
	}
	if same > n/2 {
		t.Errorf("cores in lockstep: %d/%d identical PCs", same, n)
	}
}

func TestFootprintsScaleAndOrder(t *testing.T) {
	oracle, _ := ByName("OLTP-Oracle")
	q17, _ := ByName("DSS-Qry17")

	gBig := Build(oracle, ScaleMedium, 1)
	gSmall := Build(oracle, ScaleSmall, 1)
	if gBig.Program.TotalBytes() <= gSmall.Program.TotalBytes() {
		t.Error("medium scale should have a larger image than small")
	}

	gDSS := Build(q17, ScaleMedium, 1)
	if gDSS.Program.TotalBytes() >= gBig.Program.TotalBytes() {
		t.Errorf("DSS image (%d B) should be smaller than OLTP (%d B)",
			gDSS.Program.TotalBytes(), gBig.Program.TotalBytes())
	}
}

func TestWorkingSetExceedsL1AtSmallScale(t *testing.T) {
	// Even the smallest build of every workload must exceed a 64 KB L1-I,
	// or the whole study degenerates. OLTP and Web must exceed it by 2x;
	// DSS is intentionally smaller (the paper's point about its reduced
	// prefetch sensitivity) but still larger than L1.
	const l1Blocks = 64 * 1024 / isa.BlockBytes
	for _, spec := range Suite() {
		g := Build(spec, ScaleSmall, 1)
		want := 2 * l1Blocks
		if spec.Class == DSS {
			want = l1Blocks * 5 / 4
		}
		if got := g.Program.TotalBlocks(); got < want {
			t.Errorf("%s small image = %d blocks, want > %d", spec.Name, got, want)
		}
	}
}

func TestRegionsPresent(t *testing.T) {
	spec, _ := ByName("Web-Apache")
	g := Build(spec, ScaleSmall, 1)
	names := map[string]bool{}
	for _, r := range g.Program.Regions {
		names[r.Name] = true
		if r.Funcs == 0 {
			t.Errorf("region %s has no functions", r.Name)
		}
	}
	for _, want := range []string{"app", "lib", "os"} {
		if !names[want] {
			t.Errorf("missing region %s", want)
		}
	}
}

func TestOSCodeExecutes(t *testing.T) {
	spec, _ := ByName("OLTP-DB2")
	g := Build(spec, ScaleSmall, 1)
	sawOS := false
	for _, ev := range take(t, g.Execs[0], 200000) {
		if ev.PC >= osBase {
			sawOS = true
			break
		}
	}
	if !sawOS {
		t.Error("OS region never executed (traps not firing)")
	}
}

func TestBuildPanicsWithoutCores(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Build with 0 cores should panic")
		}
	}()
	Build(Suite()[0], ScaleSmall, 0)
}
