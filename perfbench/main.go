// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed number of seconds, checks every output it
// produces, and prints its metrics: the end-to-end metrics when run
// untraced, the per-layer metrics when run with --trace 1. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": 13, "failed": 0, "metrics": {...}}
//
// See README.md for the workloads, the metrics, and how each layer
// metric maps onto an end-to-end one. Run it through run.sh, which
// builds it from the checkout's sources:
//
//	bash perfbench/run.sh --workload sim-serial --seed 3 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	short    bool
	record   bool
	root     string // repository checkout the benchmark runs against
	out      string // scratch directory for stores and span files
	refs     string // reference values recorded for the correctness checks
	golden   string // the experiments' golden outputs
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRounds is how many times each run repeats its set-up; setup_s is
// the median. Round 0 builds the real inputs before the passes. The later
// rounds rebuild under throwaway names, so the process-wide program cache
// cannot serve them; they run after the passes and after peak_rss_mb is
// read, so the programs they leave cached burden neither. A round takes
// about 10 ms on a 2-CPU host, where nine rounds let setup_s vary twofold
// between runs; 25, each from a collected heap, keep it within 6-22%
// (interquartile range over median of ten runs).
const setupRounds = 25

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w, err := newWorkload(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if _, err := os.Stat(filepath.Join(cfg.root, "go.mod")); err != nil {
		fmt.Fprintln(stderr, "perfbench: --root is not the repository checkout:", err)
		return 2
	}
	b := newBench(cfg, stdout, stderr)
	res, err := b.measure(w)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&cfg.seed, "seed", 0, "input seed (sim-serial only; the figure workloads are fixed by the experiment registry)")
	fs.Float64Var(&cfg.seconds, "seconds", 25, "measurement time in seconds")
	fs.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	fs.BoolVar(&cfg.short, "short", false, "run the smallest configuration of the workload once (self-test)")
	fs.BoolVar(&cfg.record, "record-refs", false, "rewrite the reference values from this run instead of checking them")
	fs.StringVar(&cfg.root, "root", ".", "repository checkout")
	fs.StringVar(&cfg.out, "out", ".bench_build", "scratch directory for stores and span files")
	fs.StringVar(&cfg.refs, "refs", "", "reference directory (default <root>/perfbench/refs)")
	fs.StringVar(&cfg.golden, "golden", "", "golden output directory (default <root>/internal/experiments/testdata/golden)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("--seconds must be positive, got %v", cfg.seconds)
	}
	if cfg.seed < 0 {
		return cfg, fmt.Errorf("--seed must not be negative, got %d", cfg.seed)
	}
	if cfg.refs == "" {
		cfg.refs = filepath.Join(cfg.root, "perfbench", "refs")
	}
	if cfg.golden == "" {
		cfg.golden = filepath.Join(cfg.root, "internal", "experiments", "testdata", "golden")
	}
	return cfg, nil
}

// bench carries one run's state: the tracer, the operation tally the
// correctness checks feed, and the per-layer accumulators.
type bench struct {
	cfg    config
	stdout io.Writer
	stderr io.Writer
	tr     *tracer
	par    int // engine parallelism: the host's CPU count

	attempted, failed int
	layers            layers
}

func newBench(cfg config, stdout, stderr io.Writer) *bench {
	return &bench{cfg: cfg, stdout: stdout, stderr: stderr, tr: newTracer(), par: runtime.NumCPU()}
}

// op runs one checked operation. An error, a panic, or a mismatch the
// function reports counts it as failed; the run continues either way.
func (b *bench) op(name string, fn func() error) {
	b.attempted++
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		return fn()
	}()
	if err != nil {
		b.failed++
		if b.failed <= 10 {
			fmt.Fprintf(b.stderr, "perfbench: %s failed: %v\n", name, err)
		}
	}
}

// print writes one human-readable line ahead of the result line.
func (b *bench) print(format string, a ...any) {
	fmt.Fprintf(b.stdout, format+"\n", a...)
}

// workload is one benchmark workload. A pass is its unit of repeated
// work; passes repeat until the measurement time is spent.
type workload interface {
	// setup builds the pass's inputs. Round 0 builds the real ones; later
	// rounds repeat the same work under throwaway names for timing.
	setup(b *bench, round int) error
	// pass runs once and returns the workload events it processed.
	pass(b *bench, traced bool) uint64
	// minPasses is the fewest passes a run makes.
	minPasses() int
	// probe times the layers' entry points directly (traced runs only).
	probe(b *bench)
	// report prints the workload's own end-to-end figures.
	report(b *bench)
}

// passTimes records one pass.
type passTimes struct {
	wall, cpu time.Duration
	traced    bool
}

func (b *bench) measure(w workload) (result, error) {
	cfg := b.cfg
	b.print("perfbench workload=%s seed=%d seconds=%g trace=%t short=%t", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.short)
	b.print("host nproc=%d gomaxprocs=%d go=%s commit=%s (context, not metrics)",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commitOf(cfg.root))
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return result{}, fmt.Errorf("create scratch directory: %w", err)
	}

	// Set-up: every round is timed; its median is setup_s. Spans cover
	// set-up in traced runs so workload builds show in the trace. Like
	// every pass, every round starts from a collected heap.
	var setups []float64
	setup := func(round int) error {
		b.tr.setOn(cfg.trace)
		defer b.tr.setOn(false)
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(b, round); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return nil
	}
	if err := setup(0); err != nil {
		return result{}, err
	}

	minPasses := w.minPasses()
	if cfg.trace && minPasses < 3 {
		minPasses = 3 // a warm-up pass, then one traced and one untraced
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	var passes []passTimes
	var events uint64
	var last time.Duration
	start := time.Now()
	for i := 0; ; i++ {
		if i >= minPasses && (cfg.short || time.Since(start)+last > budget) {
			break
		}
		// Traced runs alternate untraced and traced passes after an
		// untraced warm-up, so the two are measured under the same
		// conditions.
		traced := cfg.trace && i%2 == 1
		b.tr.setOn(traced)
		// Every pass starts from a collected heap, so the previous pass's
		// garbage does not shift when this one's collections run.
		runtime.GC()
		u0 := cpuTime()
		t0 := time.Now()
		events += w.pass(b, traced)
		last = time.Since(t0)
		passes = append(passes, passTimes{wall: last, cpu: cpuTime() - u0, traced: traced})
		b.tr.setOn(false)
	}
	measured := time.Since(start)

	if cfg.trace {
		b.tr.setOn(true)
		w.probe(b)
		b.tr.setOn(false)
	}

	rss := peakRSSMB()
	for round := 1; round < setupRounds; round++ {
		if err := setup(round); err != nil {
			return result{}, err
		}
	}

	var walls, cpus, plain, traced []float64
	for i, p := range passes {
		if p.traced {
			traced = append(traced, p.wall.Seconds())
			continue
		}
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		if i > 0 {
			plain = append(plain, p.wall.Seconds())
		}
	}
	b.print("passes %d in %.3f s (%d traced), untraced pass walls %.4g s", len(passes), measured.Seconds(), len(traced), walls)

	w.report(b) // may record a failed operation
	if cfg.record {
		b.print("references recorded under %s", cfg.refs)
	}
	res := result{Correct: b.failed == 0 && b.attempted > 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) {
		res.Metrics[name] = metric{Value: v, Unit: unit}
		b.print("metric %-36s %.6g %s", name, v, unit)
	}
	b.print("metric %-36s %.6g %s", "fail_frac", float64(b.failed)/float64(max(b.attempted, 1)), "ratio")
	if !cfg.trace {
		put("wall_s", median(walls), "s")
		put("cpu_s", median(cpus), "s")
		put("peak_rss_mb", rss, "MB")
		put("setup_s", median(setups), "s")
		put("events_per_s", float64(events)/float64(len(walls))/median(walls), "1/s")
		return res, nil
	}
	b.layers.overhead = median(traced) - median(plain)
	for _, m := range b.layers.metrics(b) {
		put(m.name, m.value, m.unit)
	}
	path, err := b.tr.write(filepath.Join(cfg.out, "spans", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed)))
	if err != nil {
		return result{}, err
	}
	b.print("spans %d written to %s", len(b.tr.spans), path)
	return res, nil
}

// commitOf reads the checked-out commit from <root>/.git without running
// git, so nothing outside the checkout is consulted. A checkout that is
// not a git repository reports "unknown".
func commitOf(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return shortHash(strings.TrimSpace(string(head)))
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return shortHash(strings.TrimSpace(string(id)))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return shortHash(id)
		}
	}
	return "unknown"
}

func shortHash(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}

// median of the values; 0 for none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
