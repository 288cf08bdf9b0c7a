// Command benchjson snapshots simulator throughput as a small JSON
// document, one file per commit, so performance history accumulates as
// comparable artifacts instead of scrollback:
//
//	go run ./tools/benchjson            # writes BENCH_<short-sha>.json
//	go run ./tools/benchjson -o out.json
//
// Each snapshot runs the pooled simulator benchmark serially and at
// intra-run sharding levels 2/4/8 through testing.Benchmark, recording
// events/s, ns/op, and allocations per run. The allocation column is a
// correctness signal, not just a performance one: steady-state
// simulation must stay at zero allocations at every sharding level.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"

	"tifs"
)

// point is one benchmarked configuration in the snapshot.
type point struct {
	Name         string  `json:"name"`
	Intra        int     `json:"intra"`
	Iterations   int     `json:"iterations"`
	NsPerOp      int64   `json:"ns_per_op"`
	EventsPerSec float64 `json:"events_per_sec"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
}

// snapshot is the whole document: enough machine context to compare
// two commits honestly, plus the measured points.
type snapshot struct {
	Commit    string  `json:"commit"`
	GoVersion string  `json:"go_version"`
	NumCPU    int     `json:"num_cpu"`
	Workload  string  `json:"workload"`
	Events    uint64  `json:"events_per_core"`
	Points    []point `json:"points"`
}

// gitShortSHA asks git for the current commit; "unknown" (not an
// error) when the tool runs outside a checkout.
func gitShortSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func main() {
	var (
		outPath = flag.String("o", "", "output file (default BENCH_<short-sha>.json)")
		events  = flag.Uint64("events", 200_000, "per-core event budget per iteration")
		wlName  = flag.String("workload", "OLTP-DB2", "workload to simulate")
	)
	flag.Parse()

	spec, err := tifs.WorkloadByName(*wlName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}

	snap := snapshot{
		Commit:    gitShortSHA(),
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Workload:  *wlName,
		Events:    *events,
	}

	for _, intra := range []int{1, 2, 4, 8} {
		intra := intra
		r := tifs.NewSimRunner()
		cfg := tifs.SimConfig{
			EventsPerCore:    *events,
			Mechanism:        tifs.NextLineOnly(),
			IntraParallelism: intra,
		}
		r.Run(spec, tifs.ScaleSmall, cfg) // warm the pools
		var total uint64
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			total = 0
			for i := 0; i < b.N; i++ {
				total += r.Run(spec, tifs.ScaleSmall, cfg).TotalEvents
			}
		})
		p := point{
			Name:         fmt.Sprintf("SimulatorThroughputPooled/intra-%d", intra),
			Intra:        intra,
			Iterations:   res.N,
			NsPerOp:      res.NsPerOp(),
			EventsPerSec: float64(total) / res.T.Seconds(),
			AllocsPerOp:  res.AllocsPerOp(),
			BytesPerOp:   res.AllocedBytesPerOp(),
		}
		snap.Points = append(snap.Points, p)
		fmt.Fprintf(os.Stderr, "%-40s %12.0f events/s  %8d ns/op  %d allocs/op\n",
			p.Name, p.EventsPerSec, p.NsPerOp, p.AllocsPerOp)
		r.Close()
	}

	path := *outPath
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", snap.Commit)
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "wrote", path)
}
