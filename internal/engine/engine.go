// Package engine schedules simulation work across goroutines. Every data
// point of the paper's evaluation — one (workload, mechanism, config)
// simulation — is independent, so an experiment's grid fans out over a
// bounded worker pool and completes in makespan rather than sum time.
//
// The engine also deduplicates and memoizes three kinds of work through
// one single-flight memo: simulations (the next-line baseline that fig1,
// fig13, and the ablations each need per workload runs once), per-core
// miss traces (extracted once for fig3, fig5, fig6, fig10, and fig11),
// and SEQUITUR grammars over those traces (built once for fig3, fig5,
// and fig6). Every piece of work is a pure function of its canonical key
// — all randomness is instance-seeded (internal/xrand) — so caching
// cannot change any value, and results are returned in submission
// order, which keeps experiment tables byte-identical whatever the
// parallelism.
//
// Each kind of work consults an optional persistent store (SetBackend)
// before computing and writes back what it computed, so a repeated CLI
// invocation skips every grid point it has already simulated. Workers
// draw pooled sim.Runner machines, so repeated simulations reuse all
// machine state and run allocation-free in steady state.
//
// Cancellation: every scheduling entry point takes a context.Context and
// stops admitting work once it is cancelled. Cancellation aborts, it
// does not poison — a computation cancelled before it produced its whole
// value forgets its key, and a caller still waiting on it with a live
// context takes the computation over; values that did complete stay
// cached and stay correct. Callers must treat any result returned after
// their own ctx is cancelled as invalid.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"tifs/internal/cpu"
	"tifs/internal/sequitur"
	"tifs/internal/sim"
	"tifs/internal/store"
	"tifs/internal/trace"
	"tifs/internal/workload"
)

// Job names one simulation: a workload, a scale, and a full simulator
// configuration.
type Job struct {
	Spec   workload.Spec
	Scale  workload.Scale
	Config sim.Config
}

// Key returns the canonical memoization key. Every field of the spec and
// config is scalar, so the printed form is a complete identity — stable
// across processes and machines, which is what lets the persistent store
// and the shard partitioner address work content-wise.
func (j Job) Key() string {
	return fmt.Sprintf("%+v|%d|%+v", j.Spec, j.Scale, j.Config)
}

// TraceJob names one per-core miss-trace extraction: the input of every
// offline analysis experiment.
type TraceJob struct {
	Spec   workload.Spec
	Scale  workload.Scale
	Cores  int
	Events uint64
}

// Key returns the canonical extraction key, with the same cross-process
// stability as Job.Key.
func (t TraceJob) Key() string {
	return fmt.Sprintf("%+v|%d|%d|%d", t.Spec, t.Scale, t.Cores, t.Events)
}

// Engine is a concurrency-bounded, memoizing simulation scheduler. The
// zero value is not usable; construct with New. An Engine is safe for
// concurrent use.
type Engine struct {
	parallelism int
	sem         chan struct{} // counting semaphore over running work

	// The three kinds of memoized work, each a single-flight memo keyed
	// canonically (Job.Key, TraceJob.Key, grammarKey).
	sims     *memo[sim.Result]
	traces   *memo[[][]trace.MissRecord]
	grammars *memo[[]*sequitur.Snapshot]

	// store is the optional persistent second memo tier: keys missing
	// from the in-process memo are looked up there before simulating,
	// and freshly simulated results are written back. Any store.Backend
	// serves — the on-disk store, or a remote client that may degrade to
	// missing on every Get; the engine recomputes on a miss, so a
	// backend outage costs time, never correctness.
	store store.Backend

	// runnerPool holds reusable simulation machines (one per
	// concurrently running job); a pooled steady-state run allocates
	// nothing. A plain free-list guarded by mu rather than sync.Pool,
	// which a garbage collection may empty.
	mu         sync.Mutex
	runnerPool []*sim.Runner

	// obs, when set, receives scheduling notifications (see Observer).
	// Written once before work is submitted, read by worker goroutines.
	obs Observer

	runs          atomic.Uint64 // simulations actually executed (memo misses)
	storeHits     atomic.Uint64 // jobs satisfied from the persistent store
	grammarBuilds atomic.Uint64 // grammar snapshot sets actually constructed
}

// Observer receives engine scheduling events, keyed by the canonical
// job or trace key. Kinds:
//
//	EventSimStart/EventSimDone      a memo-missing simulation ran
//	EventTraceStart/EventTraceDone  a memo-missing trace extraction ran
//	EventStoreHit                   the persistent tier supplied the value
//
// Deduplicated work emits no event: a submission that joins an
// in-flight or completed entry is invisible here, which is exactly what
// makes the event stream a faithful account of work actually performed.
// Callbacks run on worker goroutines and must be cheap and
// concurrency-safe.
type Observer func(kind, key string)

// Observer event kinds.
const (
	EventSimStart   = "sim-start"
	EventSimDone    = "sim-done"
	EventTraceStart = "trace-start"
	EventTraceDone  = "trace-done"
	EventStoreHit   = "store-hit"
)

// SetObserver attaches a scheduling observer. Set it before submitting
// work; it must not change while jobs are in flight.
func (e *Engine) SetObserver(obs Observer) { e.obs = obs }

func (e *Engine) notify(kind, key string) {
	if e.obs != nil {
		e.obs(kind, key)
	}
}

// New creates an engine running at most parallelism simulations at once;
// parallelism <= 0 selects GOMAXPROCS.
func New(parallelism int) *Engine {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		parallelism: parallelism,
		sem:         make(chan struct{}, parallelism),
		sims:        newMemo[sim.Result](),
		traces:      newMemo[[][]trace.MissRecord](),
		grammars:    newMemo[[]*sequitur.Snapshot](),
	}
}

// Parallelism returns the worker bound.
func (e *Engine) Parallelism() int { return e.parallelism }

// SimulationsRun returns how many simulations actually executed —
// submissions minus memoization and store hits — for dedup telemetry and
// tests.
func (e *Engine) SimulationsRun() uint64 { return e.runs.Load() }

// StoreHits returns how many memo-missing jobs were satisfied from the
// persistent store instead of simulating.
func (e *Engine) StoreHits() uint64 { return e.storeHits.Load() }

// SetBackend attaches a persistent store backend (the local store, the
// remote client, a test double) as the second memo tier. Attach it
// before submitting work; it must not change while jobs are in flight.
// A nil backend disables the tier.
func (e *Engine) SetBackend(b store.Backend) {
	if s, ok := b.(*store.Store); ok && s == nil {
		// Guard the typed-nil hazard: assigning (*store.Store)(nil) to the
		// interface field would make every e.store != nil check pass and
		// then panic inside the method calls.
		b = nil
	}
	e.store = b
}

// runner borrows a pooled simulation machine.
func (e *Engine) runner() *sim.Runner {
	e.mu.Lock()
	if n := len(e.runnerPool); n > 0 {
		r := e.runnerPool[n-1]
		e.runnerPool[n-1] = nil
		e.runnerPool = e.runnerPool[:n-1]
		e.mu.Unlock()
		return r
	}
	e.mu.Unlock()
	return sim.NewRunner()
}

// putRunner returns a machine to the pool.
func (e *Engine) putRunner(r *sim.Runner) {
	e.mu.Lock()
	e.runnerPool = append(e.runnerPool, r)
	e.mu.Unlock()
}

// Close does nothing: pooled simulation machines hold only memory.
//
// Deprecated: an Engine needs no release; drop the call.
func (e *Engine) Close() {}

// RunAll executes a batch of jobs across the worker pool and returns the
// results in job order. Duplicate keys within the batch (and against any
// earlier run) are simulated only once. If ctx is cancelled mid-batch,
// unstarted jobs are abandoned and their slots hold the zero Result.
func (e *Engine) RunAll(ctx context.Context, jobs []Job) []sim.Result {
	out := make([]sim.Result, len(jobs))
	fanOut(len(jobs), func(i int) {
		job, key := jobs[i], jobs[i].Key()
		res := e.sims.do(ctx, key, func(ctx context.Context) (sim.Result, bool) {
			return e.simulate(ctx, key, job)
		})
		// Cached results are shared between callers, so the slices and
		// pointers inside must not alias across them.
		out[i] = copyResult(res)
	})
	return out
}

// simulate computes one job under a worker slot: the store lookup too,
// which bounds a remote store's concurrent GETs by the worker count.
func (e *Engine) simulate(ctx context.Context, key string, job Job) (sim.Result, bool) {
	if !e.acquire(ctx) {
		return sim.Result{}, false
	}
	defer e.release()
	if ctx.Err() != nil {
		// Cancelled while queued: nothing ran.
		return sim.Result{}, false
	}
	if e.store != nil {
		if res, ok := e.store.GetResult(key); ok {
			e.storeHits.Add(1)
			e.notify(EventStoreHit, key)
			return res, true
		}
	}
	e.runs.Add(1)
	e.notify(EventSimStart, key)
	r := e.runner()
	// The pooled runner reuses its result buffers next run, so the
	// memoized copy must own its memory.
	res := copyResult(r.Run(job.Spec, job.Scale, job.Config))
	e.putRunner(r)
	if e.store != nil {
		e.store.PutResult(key, res)
	}
	e.notify(EventSimDone, key)
	return res, true
}

// acquire takes a worker slot, or reports false once ctx is cancelled.
func (e *Engine) acquire(ctx context.Context) bool {
	select {
	case e.sem <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

func (e *Engine) release() { <-e.sem }

// fanOut runs f(0), ..., f(n-1) concurrently and waits for all of them.
func fanOut(n int, f func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			f(i)
		}(i)
	}
	wg.Wait()
}

// perCore runs f(0), ..., f(n-1) concurrently, each under a worker slot,
// and reports whether the whole set ran with ctx live. A false result
// means some cores may not have run: the caller must discard the set.
func (e *Engine) perCore(ctx context.Context, n int, f func(i int)) bool {
	fanOut(n, func(i int) {
		if e.acquire(ctx) {
			defer e.release()
			f(i)
		}
	})
	return ctx.Err() == nil
}

// copyResult clones the result's reference fields.
func copyResult(r sim.Result) sim.Result {
	if r.PerCore != nil {
		pc := make([]cpu.Stats, len(r.PerCore))
		copy(pc, r.PerCore)
		r.PerCore = pc
	}
	if r.TIFS != nil {
		ts := *r.TIFS
		r.TIFS = &ts
	}
	return r
}

// Keys returns the canonical keys of every simulation and trace
// extraction this engine has been asked for, sorted. Grid-enumeration
// tests use it to prove a sweep's shard plan covers exactly the work the
// experiments perform.
func (e *Engine) Keys() (sims, traces []string) {
	return e.sims.keys(), e.traces.keys()
}

// ExtractTraces returns the per-core filtered L1-I miss traces for a
// workload build — the input of every offline analysis experiment —
// extracting each core's trace concurrently and memoizing the whole set.
// Callers must treat the returned records as read-only; they are shared.
// A cancelled ctx returns nil; a partially extracted set is discarded,
// not memoized.
func (e *Engine) ExtractTraces(ctx context.Context, t TraceJob) [][]trace.MissRecord {
	key := t.Key()
	recs := e.traces.do(ctx, key, func(ctx context.Context) ([][]trace.MissRecord, bool) {
		if e.store != nil {
			if recs, ok := e.store.GetMissTraces(key); ok && len(recs) == t.Cores {
				e.storeHits.Add(1)
				e.notify(EventStoreHit, key)
				return recs, true
			}
		}
		e.notify(EventTraceStart, key)
		gen := workload.Build(t.Spec, t.Scale, t.Cores)
		recs := make([][]trace.MissRecord, t.Cores)
		if !e.perCore(ctx, t.Cores, func(i int) { recs[i] = trace.ExtractMisses(gen.Execs[i], t.Events) }) {
			return nil, false
		}
		if e.store != nil {
			e.store.PutMissTraces(key, recs)
		}
		e.notify(EventTraceDone, key)
		return recs, true
	})
	return recs
}
