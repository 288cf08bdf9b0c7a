// Command diag is a development diagnostic: it prints miss densities,
// SEQUITUR categorization, and heuristic coverages for each workload so
// the synthetic models can be calibrated against the paper's figures.
//
//	go run ./tools/diag [scale [events [workload]]]
//
// A malformed argument exits with status 2.
package main

import (
	"fmt"
	"os"
	"strconv"

	"tifs/internal/analysis"
	"tifs/internal/trace"
	"tifs/internal/workload"
)

func main() {
	events := uint64(200_000)
	scale := workload.ScaleSmall
	if len(os.Args) > 1 {
		sc, err := workload.ParseScale(os.Args[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		scale = sc
		events = scale.DefaultEvents()
	}
	if len(os.Args) > 2 {
		n, err := strconv.ParseUint(os.Args[2], 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "events %q: want a non-negative integer\n", os.Args[2])
			os.Exit(2)
		}
		events = n
	}
	suite := workload.Suite()
	if len(os.Args) > 3 {
		s2, ok := workload.ByName(os.Args[3])
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q (have %v)\n", os.Args[3], workload.Names())
			os.Exit(2)
		}
		suite = []workload.Spec{s2}
	}
	for _, spec := range suite {
		g := workload.Build(spec, scale, 1)
		var recs []trace.MissRecord
		e := trace.NewExtractor(func(m trace.MissRecord) { recs = append(recs, m) })
		e.Run(g.Execs[0], events)
		seq := trace.Blocks(recs)

		cat := analysis.Categorize(seq)
		fmt.Printf("%-12s misses=%-7d MPKE=%6.2f  opp=%5.1f%% rep=%5.1f%% head=%4.1f%% new=%4.1f%%",
			spec.Name, len(seq), e.MPKE(),
			100*cat.OpportunityFrac(), 100*cat.RepetitiveFrac(),
			100*cat.Counts.Fraction(analysis.CatHead),
			100*cat.Counts.Fraction(analysis.CatNew))
		fmt.Printf("  medlen=%d wmedlen=%d\n", cat.StreamLengths.Percentile(0.5), cat.StreamLengths.WeightedMedian())

		for _, r := range analysis.EvaluateHeuristics(seq) {
			fmt.Printf("   %-8s %5.1f%%", r.Policy, 100*r.Coverage())
		}
		fmt.Println()
	}
	os.Exit(0)
}
