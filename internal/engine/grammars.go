package engine

import (
	"context"
	"fmt"

	"tifs/internal/sequitur"
	"tifs/internal/trace"
)

// The grammar tier: fig3, fig5, and fig6 each run SEQUITUR over a
// workload's per-core miss traces before analyzing the grammar. The
// traces themselves are memoized and persisted, but the grammar
// construction — superlinear in trace length, by far the heaviest
// analysis-phase step — used to be repaid by every process. Grammars
// memoizes the per-core snapshots in-process and persists them in the
// store under the miss-trace key plus the analysis variant, so a warm
// rerun pays neither the simulation nor the SEQUITUR pass.

// Grammar observer event kinds (see Observer).
const (
	EventGrammarStart = "grammar-start"
	EventGrammarDone  = "grammar-done"
)

// grammarKey extends the trace key with the analysis variant: the
// fig5/fig6 pipelines drop sequential-bias misses before building the
// grammar, which yields a different grammar over the same traces.
func grammarKey(t TraceJob, dropSequential bool) string {
	return fmt.Sprintf("%s|grammar|noseq=%t", t.Key(), dropSequential)
}

// GrammarBuilds returns how many grammar snapshot sets were actually
// constructed — requests minus memo and store hits.
func (e *Engine) GrammarBuilds() uint64 { return e.grammarBuilds.Load() }

// Grammars returns one SEQUITUR grammar snapshot per core over the
// workload's miss traces (optionally with sequential-bias misses
// dropped first, the fig5/fig6 variant), building each core's grammar
// concurrently under the worker bound and memoizing the set in-process
// and in the persistent store. Callers must treat the snapshots as
// read-only; they are shared. A cancelled ctx returns nil and leaves
// the key recomputable.
func (e *Engine) Grammars(ctx context.Context, t TraceJob, dropSequential bool) []*sequitur.Snapshot {
	key := grammarKey(t, dropSequential)
	snaps := e.grammars.do(ctx, key, func(ctx context.Context) ([]*sequitur.Snapshot, bool) {
		if e.store != nil {
			if snaps, ok := e.store.GetGrammars(key); ok && len(snaps) == t.Cores {
				e.storeHits.Add(1)
				e.notify(EventStoreHit, key)
				return snaps, true
			}
		}
		// The traces come from the memoized tier below; a store hit there
		// still spares the simulation even when the grammar must be built.
		recs := e.ExtractTraces(ctx, t)
		if recs == nil {
			return nil, false
		}
		e.notify(EventGrammarStart, key)
		snaps := make([]*sequitur.Snapshot, len(recs))
		if !e.perCore(ctx, len(recs), func(i int) {
			rc := recs[i]
			if dropSequential {
				rc = trace.DropSequential(rc)
			}
			g := sequitur.New()
			for _, r := range rc {
				g.Append(uint64(r.Block))
			}
			snaps[i] = g.Snapshot()
		}) {
			return nil, false
		}
		e.grammarBuilds.Add(1)
		if e.store != nil {
			e.store.PutGrammars(key, snaps)
		}
		e.notify(EventGrammarDone, key)
		return snaps, true
	})
	return snaps
}
