package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks
// the output against.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runShort runs one workload's short form and returns its result line
// and everything printed before it.
func runShort(t *testing.T, workload string, trace bool, extra ...string) (result, string) {
	t.Helper()
	args := []string{"--workload", workload, "--short", "--root", "..", "--out", t.TempDir()}
	if trace {
		args = append(args, "--trace", "1")
	}
	var stdout, stderr bytes.Buffer
	if code := run(append(args, extra...), &stdout, &stderr); code != 0 {
		t.Fatalf("%s: exit %d\n%s", workload, code, stderr.String())
	}
	out := strings.TrimRight(stdout.String(), "\n")
	i := strings.LastIndexByte(out, '\n')
	var res result
	if err := json.Unmarshal([]byte(out[i+1:]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, out)
	}
	return res, out[:max(i, 0)]
}

// printed lists, per workload, the end-to-end figures printed beside the
// gated metrics.
var printed = map[string][]string{
	"figures-small":   {"fail_frac", "fig13_tifs_speedup"},
	"sim-serial":      {"fail_frac", "steady_allocs"},
	"analysis-medium": {"fail_frac"},
	"sweep-roundtrip": {"fail_frac", "op_p50_ms", "op_tail_ms"},
}

func TestShortRunsEmitEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			res, text := runShort(t, w, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json names %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", w, trace, m.Name, got, m.Unit)
				}
				if !trace && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w, m.Name)
				}
			}
			if trace {
				continue
			}
			for _, name := range printed[w] {
				if !strings.Contains(text, "metric "+name+" ") {
					t.Errorf("%s: %s not printed:\n%s", w, name, text)
				}
			}
		}
	}
}

// corrupt copies the reference and golden directories and damages one
// file in each copy.
func corrupt(t *testing.T) (refs, golden string) {
	t.Helper()
	refs, golden = t.TempDir(), t.TempDir()
	copyDir(t, "refs", refs)
	copyDir(t, filepath.Join("..", "internal", "experiments", "testdata", "golden"), golden)
	if err := os.WriteFile(filepath.Join(refs, "sim-serial.json"), []byte(`{"5000/OLTP-DB2/fdip": [`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig3", "fig13"} {
		path := filepath.Join(golden, id+".txt")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 1
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return refs, golden
}

func copyDir(t *testing.T, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCorruptReferenceCountsAsFailure(t *testing.T) {
	refs, golden := corrupt(t)
	for _, w := range workloadNames {
		res, _ := runShort(t, w, false, "--refs", refs, "--golden", golden)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted reference gave correct=%t failed=%d of %d", w, res.Correct, res.Failed, res.Attempted)
		}
	}
}

func TestMalformedDigestFileFailsEveryCheck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.sha256")
	if err := os.WriteFile(path, []byte("fig3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	d := loadDigests(path)
	if err := d.check("fig3", "anything", false); err == nil {
		t.Fatal("malformed digest file passed a check")
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "experiments.run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "engine.sim", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "engine.sim", Start: 40, End: 70},    // overlaps 2
		{ID: 4, Parent: 1, Name: "engine.trace", Start: 90, End: 120}, // runs past its parent
	}
	self := tr.selfTimes()
	if got := self["experiments"]; got != 30 { // 100 - (60 + 10)
		t.Errorf("experiments self = %d, want 30", got)
	}
	if got := self["engine"]; got != 100 {
		t.Errorf("engine self = %d, want 100", got)
	}
}

func TestFig13Speedup(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "internal", "experiments", "testdata", "golden", "fig13.txt"))
	if err != nil {
		t.Fatal(err)
	}
	v, err := fig13Speedup(string(data))
	if err != nil || v != 1.000 {
		t.Fatalf("fig13Speedup = %v, %v; want 1.000 from the golden geomean row", v, err)
	}
}
