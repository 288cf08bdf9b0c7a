package sim

import (
	"fmt"
	"strings"

	"tifs/internal/core"
	"tifs/internal/workload"
)

// MechanismByName resolves the CLI/service mechanism names to their
// constructors — the single registry tifssim and the sweep service
// share, so a simulation submitted over HTTP names mechanisms exactly
// like one run locally.
func MechanismByName(name string) (Mechanism, error) {
	switch name {
	case "next-line", "baseline":
		return Baseline(), nil
	case "fdip":
		return FDIP(), nil
	case "discontinuity":
		return Discontinuity(), nil
	case "tifs", "tifs-unbounded":
		return TIFS(core.UnboundedConfig()), nil
	case "tifs-dedicated":
		return TIFS(core.DedicatedConfig()), nil
	case "tifs-virtualized":
		return TIFS(core.VirtualizedConfig()), nil
	case "perfect":
		return Perfect(), nil
	default:
		return Mechanism{}, fmt.Errorf("unknown mechanism %q", name)
	}
}

// MechanismNames lists the names MechanismByName accepts, for usage
// strings and error messages.
func MechanismNames() []string {
	return []string{"next-line", "fdip", "discontinuity", "tifs-unbounded", "tifs-dedicated", "tifs-virtualized", "perfect"}
}

// Report renders the detailed single-simulation report: cycles, IPC,
// fetch-stall share, coverage, discards, and the L2 traffic ledger,
// plus the speedup line when a next-line baseline result accompanies
// the run. The core count in the header is the one the run used
// (len(r.PerCore)), so a defaulted width prints as resolved. tifssim
// prints it locally and the sweep service returns it as a simulation
// job's output, so the two paths are byte-identical by construction.
func Report(r Result, baseline *Result, scale workload.Scale) string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload:   %s (%s scale, %d cores)\n", r.Workload, scale, len(r.PerCore))
	fmt.Fprintf(&b, "mechanism:  %s\n", r.Mechanism)
	fmt.Fprintf(&b, "cycles:     %d (makespan)\n", r.Cycles)
	fmt.Fprintf(&b, "instrs:     %d   IPC: %.3f\n", r.TotalInstrs, r.IPC())
	fmt.Fprintf(&b, "fetch stall: %.1f%% of cycles\n", 100*r.FetchStallShare())
	fmt.Fprintf(&b, "coverage:   %.1f%%   discards: %.1f%%\n", 100*r.Coverage(), 100*r.DiscardFrac())
	fmt.Fprintf(&b, "prefetch:   issued=%d timely=%d late=%d\n",
		r.Prefetch.Issued, r.Prefetch.HitsTimely, r.Prefetch.HitsLate)
	if r.TIFS != nil {
		fmt.Fprintf(&b, "tifs:       streams=%d lookups=%d indexMisses=%d pauses=%d resumes=%d\n",
			r.TIFS.StreamsAllocated, r.TIFS.IndexLookups, r.TIFS.IndexMisses,
			r.TIFS.Pauses, r.TIFS.Resumes)
	}
	var useful uint64
	for _, s := range r.PerCore {
		useful += s.PrefetchHits
	}
	fmt.Fprintf(&b, "L2 traffic overhead: %.1f%% of base\n", 100*r.Traffic.OverheadFrac(useful))
	if baseline != nil {
		fmt.Fprintf(&b, "speedup over next-line: %.3f\n", r.SpeedupOver(*baseline))
	}
	return b.String()
}
