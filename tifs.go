// Package tifs is the public API of the Temporal Instruction Fetch
// Streaming reproduction (Ferdman et al., MICRO-41 2008).
//
// It exposes the pieces a downstream user composes:
//
//   - the six Table-I commercial server workload models
//     (Workloads, BuildWorkload);
//   - the L1-I miss-trace machinery and the paper's miss definition
//     (ExtractMisses);
//   - the offline SEQUITUR opportunity analyses of Figs. 3-6
//     (Categorize, Heuristics, StreamLengths);
//   - the cycle-accounted CMP simulator with pluggable prefetchers —
//     next-line baseline, FDIP, the TIFS variants, and bounds
//     (Simulate, mechanism constructors);
//   - every evaluation experiment as a named runner
//     (Experiments, RunExperiments);
//   - persistence and distribution over one store handle, StoreBackend:
//     a local directory (OpenResultStore) or a tifsserve URL
//     (DialRemoteStore), attached to batches (SimulateAll), engines
//     (NewSimEngine), experiment runs (ExperimentOptions.Backend), and
//     sharded sweeps (ShardedSweep);
//   - the sweep service and its job client (NewSweepService,
//     DialJobService).
//
// See examples/quickstart for a three-call tour, and the README's "Model
// substitutions" section for what replaces the paper's full-system
// trace infrastructure.
package tifs

import (
	"context"
	"fmt"
	"net/http"
	"os"

	"tifs/internal/analysis"
	"tifs/internal/core"
	"tifs/internal/engine"
	"tifs/internal/experiments"
	"tifs/internal/isa"
	"tifs/internal/netfault"
	"tifs/internal/remotestore"
	"tifs/internal/shard"
	"tifs/internal/sim"
	"tifs/internal/store"
	"tifs/internal/sweepd"
	"tifs/internal/trace"
	"tifs/internal/workload"
)

// Re-exported workload types.
type (
	// WorkloadSpec describes one Table-I workload model.
	WorkloadSpec = workload.Spec
	// Workload is an instantiated workload (program + per-core sources).
	Workload = workload.Generated
	// Scale selects workload size (small, medium, full).
	Scale = workload.Scale
)

// Scales.
const (
	ScaleSmall  = workload.ScaleSmall
	ScaleMedium = workload.ScaleMedium
	ScaleFull   = workload.ScaleFull
)

// Workloads returns the six Table-I workload specifications.
func Workloads() []WorkloadSpec { return workload.Suite() }

// WorkloadByName finds a workload ("OLTP-DB2", "OLTP-Oracle", "DSS-Qry2",
// "DSS-Qry17", "Web-Apache", "Web-Zeus").
func WorkloadByName(name string) (WorkloadSpec, error) {
	s, ok := workload.ByName(name)
	if !ok {
		return WorkloadSpec{}, fmt.Errorf("tifs: unknown workload %q (have %v)", name, workload.Names())
	}
	return s, nil
}

// CheckWorkloads rejects a workload restriction
// (ExperimentOptions.Workloads) that names an unknown workload or one
// workload twice. RunExperiments, ExperimentGrid and the sweep service
// apply the same check; a CLI calls it to fail before doing any work.
func CheckWorkloads(names []string) error {
	if err := experiments.CheckWorkloads(names); err != nil {
		return fmt.Errorf("tifs: %w", err)
	}
	return nil
}

// ParseScale converts "small", "medium", or "full".
func ParseScale(s string) (Scale, error) { return workload.ParseScale(s) }

// BuildWorkload instantiates a workload for the given core count.
func BuildWorkload(spec WorkloadSpec, scale Scale, cores int) *Workload {
	return workload.Build(spec, scale, cores)
}

// MissRecord is one filtered L1-I miss (the paper's Section 4.1
// definition: not satisfied by the 64 KB 2-way L1-I nor the
// two-block-ahead next-line prefetcher).
type MissRecord = trace.MissRecord

// Block is a 64-byte cache block number.
type Block = isa.Block

// ExtractMisses runs the miss filter over up to maxEvents events of one
// core's fetch stream.
func ExtractMisses(w *Workload, coreID int, maxEvents uint64) []MissRecord {
	return trace.ExtractMisses(w.Execs[coreID], maxEvents)
}

// MissBlocks projects miss records to their block numbers.
func MissBlocks(recs []MissRecord) []Block { return trace.Blocks(recs) }

// Categorization is the SEQUITUR opportunity accounting of Fig. 3/4.
type Categorization = analysis.Categorization

// Categorize classifies every miss in the block sequence as Opportunity,
// Head, New, or Non-repetitive.
func Categorize(blocks []Block) *Categorization { return analysis.Categorize(blocks) }

// HeuristicResult reports one Fig. 6 lookup policy's coverage.
type HeuristicResult = analysis.HeuristicResult

// Heuristics evaluates the First/Digram/Recent/Longest stream-lookup
// policies on a miss-block sequence.
func Heuristics(blocks []Block) []HeuristicResult {
	return analysis.EvaluateHeuristics(blocks)
}

// Simulation types.
type (
	// SimConfig configures one simulation run.
	SimConfig = sim.Config
	// SimResult is a run's outcome (cycles, coverage, traffic, ...).
	SimResult = sim.Result
	// Mechanism selects the instruction prefetcher under test.
	Mechanism = sim.Mechanism
	// TIFSConfig parameterizes the TIFS hardware (IML size,
	// virtualization, SVB, lookahead, end-of-stream, failure injection).
	TIFSConfig = core.Config
)

// Mechanism constructors.
var (
	// NextLineOnly is the paper's baseline system.
	NextLineOnly = sim.Baseline
	// FDIP is fetch-directed instruction prefetching (Reinman et al.).
	FDIP = sim.FDIP
	// Perfect is the instant-streaming upper bound.
	Perfect = sim.Perfect
	// Probabilistic is the Fig. 1 coverage-sweep mechanism.
	Probabilistic = sim.Probabilistic
	// Discontinuity is the discontinuity predictor (Spracklen et al.).
	Discontinuity = sim.Discontinuity
	// TIFS wraps a TIFSConfig as a mechanism.
	TIFS = sim.TIFS
)

// TIFS configurations from the paper's Fig. 13.
var (
	// TIFSUnbounded has an unbounded IML.
	TIFSUnbounded = core.UnboundedConfig
	// TIFSDedicated uses 8K dedicated IML entries per core (156 KB total
	// on 4 cores).
	TIFSDedicated = core.DedicatedConfig
	// TIFSVirtualized stores the IML in the L2 data array.
	TIFSVirtualized = core.VirtualizedConfig
)

// Simulate runs one configuration of the 4-core CMP over the workload.
func Simulate(spec WorkloadSpec, scale Scale, cfg SimConfig) SimResult {
	return sim.Run(spec, scale, cfg)
}

// SimRunner is a reusable simulation machine: it recycles the caches,
// predictors, TIFS structures, and workload executors between runs, so
// steady-state repeated runs perform zero heap allocations. A run is
// one serial chain of core steps on the caller's goroutine; the runner
// starts no goroutines and needs no release. The returned Result's
// PerCore and TIFS fields are valid until the next Run call. A
// SimRunner is not safe for concurrent use.
type SimRunner = sim.Runner

// NewSimRunner creates an empty simulation machine pool of one.
func NewSimRunner() *SimRunner { return sim.NewRunner() }

// SimJob pairs a workload and scale with a simulation configuration for
// batched execution.
type SimJob = engine.Job

// SimulateAll runs a batch of simulations concurrently across at most
// parallelism goroutines (0 = GOMAXPROCS) and returns the results in job
// order. Duplicate jobs are simulated once and share their result;
// output is identical to running each job serially. st, when non-nil,
// is the persistent tier — local or remote — that already-simulated jobs
// load from and new results are written to; results are byte-identical
// whichever backend is attached, and whether it hits, misses, or
// degrades. Cancelling ctx stops scheduling new simulations, unblocks
// waiters, and leaves unfinished slots as zero Results (treat the batch
// as invalid once ctx is cancelled); everything simulated before the
// cancellation is already written to the store.
func SimulateAll(ctx context.Context, jobs []SimJob, parallelism int, st StoreBackend) []SimResult {
	return NewSimEngine(parallelism, st).RunAll(ctx, jobs)
}

// ResultStore is a persistent, content-addressed cache of simulation
// results and miss traces, shared across processes. See OpenResultStore.
type ResultStore = store.Store

// ResultStoreStats summarizes store activity (hits, misses, appends).
type ResultStoreStats = store.Stats

// OpenResultStore opens (creating if needed) a result store rooted at
// dir. Attach it to ExperimentOptions.Backend or SimulateAll to skip
// already-simulated grid points across CLI invocations. Stores written
// by an incompatible format version are discarded on open; corrupt or
// truncated entries fall back to simulation, never to wrong results.
func OpenResultStore(dir string) (*ResultStore, error) { return store.Open(dir) }

// StoreCompaction reports what a result-store GC pass reclaimed.
type StoreCompaction = store.CompactStats

// CompactResultStore garbage-collects a result store directory: it
// folds the per-writer segment files a sharded sweep leaves behind into
// the primary log, drops shadowed duplicates and stale-format files, and
// reclaims their space. It refuses to run while a writer holds the
// primary, and skips segments whose writers are still alive; a crash at
// any point leaves a store that opens cleanly. Run it after large sweeps
// on a long-lived cache directory.
func CompactResultStore(dir string) (StoreCompaction, error) { return store.Compact(dir) }

// TraceJob names one per-core miss-trace extraction in a sweep grid.
type TraceJob = engine.TraceJob

// SweepGrid is the complete work list of an experiment sweep: every
// simulation and miss-trace extraction the selected experiments perform.
type SweepGrid = shard.Grid

// ExperimentGrid enumerates the deduplicated sweep grid of the named
// experiments (all of them when ids is empty) under the given options,
// without running anything. The enumeration is deterministic, so every
// worker of a sharded sweep derives the identical grid.
func ExperimentGrid(ids []string, o ExperimentOptions) (SweepGrid, error) {
	jobs, traces, err := experiments.Grid(ids, o)
	if err != nil {
		return SweepGrid{}, fmt.Errorf("tifs: %w", err)
	}
	return SweepGrid{Jobs: jobs, Traces: traces}, nil
}

// ShardReport summarizes one shard worker's pass over its slice of a
// sweep.
type ShardReport = shard.Report

// AutoShard is the ShardedSweep index that claims shards through the
// lease manifest until none remain.
const AutoShard = -1

// ShardedSweep runs shard index of count over the grid, as one worker of
// a multi-process or multi-machine sweep sharing the store st. With
// index == AutoShard the worker instead claims unclaimed (or expired)
// shards one after another until none remain, so N such workers run a
// whole sweep with no manual shard numbering. The grid partitions by
// the SHA-256 of each grid point's canonical key, so all workers agree
// on ownership without talking to each other; a lease manifest beside
// the store records each claim so peers can detect and take over a dead
// worker's shard. Grid points already present in the store are skipped.
// After every shard completes, a merge pass — any normal experiment run
// with the store attached, e.g. tifsbench -merge — assembles output
// byte-identical to a single-process run from store hits alone.
//
// The manifest follows the store: a *ResultStore keeps it in its
// directory (share the directory, e.g. on a shared filesystem); a
// *RemoteStore keeps it on the tifsserve behind the same URL and
// http.Client, updated by compare-and-swap, so workers on different
// machines need share nothing but the URL. Store operations degrade
// under server outages (compute locally, queue write-backs, reconcile on
// recovery); lease coordination deliberately does not — an outage longer
// than the lease TTL surfaces as a lost lease, exactly as it must. Any
// other backend is an error. The caller owns st and closes it; closing a
// remote store flushes its queued write-backs.
//
// It returns a report per shard run. Cancelling ctx aborts the current
// shard at the next batch boundary: the lease is released (so a fresh
// worker can claim the shard immediately rather than waiting out the
// TTL), everything simulated so far stays in the store, and the
// shard's partial report returns alongside the error.
func ShardedSweep(ctx context.Context, st StoreBackend, index, count int, g SweepGrid, o ExperimentOptions) ([]ShardReport, error) {
	c, err := sweepCoordinator(st, g, count)
	if err != nil {
		return nil, err
	}
	owner := sweepOwner()
	var reports []ShardReport
	for {
		i := index
		if index == AutoShard {
			if err := ctx.Err(); err != nil {
				return reports, err
			}
			var ok bool
			if i, ok, err = c.ClaimAny(owner); err != nil {
				return reports, fmt.Errorf("tifs: %w", err)
			} else if !ok {
				return reports, nil
			}
		} else if err := c.Claim(index, owner); err != nil {
			return reports, fmt.Errorf("tifs: %w", err)
		}
		rep, err := shard.Run(ctx, st, g, i, count, o.Parallelism, func() error {
			return c.Renew(i, owner)
		}, c.RenewInterval(), c.TTL)
		reports = append(reports, rep)
		if err != nil {
			// Hand the shard back — unless the run died because the lease
			// was (or is presumed) lost, in which case a successor may
			// already own it and a release would clobber the takeover; the
			// no-op lets the old claim expire on its TTL instead.
			// Best-effort either way.
			c.ReleaseAfter(err, i, owner)
			return reports, fmt.Errorf("tifs: %w", err)
		}
		if err := c.Complete(i); err != nil {
			return reports, fmt.Errorf("tifs: %w", err)
		}
		if index != AutoShard {
			return reports, nil
		}
	}
}

// sweepCoordinator places a sweep's lease manifest beside its store: a
// file manifest in a local store's directory, or the manifest endpoint
// of a remote store's server. The remote store is matched by its method,
// not its type, so programs that only sweep local stores do not link
// its HTTP client.
func sweepCoordinator(st StoreBackend, g SweepGrid, count int) (*shard.Coordinator, error) {
	switch st := st.(type) {
	case *ResultStore:
		return shard.NewCoordinator(st.Dir(), g, count), nil
	case interface{ Manifest() shard.ManifestBackend }:
		return shard.NewCoordinatorBackend(st.Manifest(), g, count), nil
	}
	return nil, fmt.Errorf("tifs: a sharded sweep needs a local or remote result store, not %T", st)
}

// ShardedSweepAuto opens the store in dir and runs ShardedSweep over it
// with AutoShard.
//
// Deprecated: open the store with OpenResultStore and call ShardedSweep
// with AutoShard.
func ShardedSweepAuto(ctx context.Context, dir string, count int, g SweepGrid, o ExperimentOptions) ([]ShardReport, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("tifs: %w", err)
	}
	defer st.Close()
	return ShardedSweep(ctx, st, AutoShard, count, g, o)
}

// MissingFromStore reports the grid points absent from a store backend
// (local or remote) — the preflight for a merge pass. Empty results mean
// the merge will assemble entirely from store hits.
func MissingFromStore(st StoreBackend, g SweepGrid) (jobs []SimJob, traces []TraceJob) {
	return shard.Missing(st, g)
}

// sweepOwner identifies this process in lease files and to the sweep
// service's per-client fairness accounting.
func sweepOwner() string {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown-host"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

// StoreBackend is the narrow interface the engine and sweep machinery
// require of a result store: typed get/put/has by canonical key, under
// the store's one-way defensiveness contract (a get may miss for any
// reason — the caller recomputes — but never returns different bytes).
// *ResultStore is the local implementation; RemoteStore the HTTP one.
type StoreBackend = store.Backend

// RemoteStore is a result-store backend served by a tifsserve process
// over HTTP, wrapped in the full robustness stack: per-operation
// deadlines, capped-backoff retries on transient network faults, hedged
// reads, and a circuit breaker that degrades to local computation —
// queueing write-backs and reconciling them when the server recovers —
// so a remote outage costs time, never correctness and never progress.
type RemoteStore = remotestore.Client

// RemoteStoreStats counts a remote store client's network activity:
// hits, retries, hedges, breaker opens, and queued/flushed/dropped
// write-backs.
type RemoteStoreStats = remotestore.Stats

// DialRemoteStore connects to a tifsserve base URL (e.g.
// "http://host:8419"). httpClient nil uses http.DefaultClient; pass a
// custom client to set transport options or inject faults
// (NetFaultTransport). Every store operation (including retry backoff
// sleeps and queued write-back flushes) aborts promptly when ctx is
// cancelled, so an interrupted worker stops waiting on a dead server
// instead of riding out its backoff schedule. Dialing performs no I/O —
// a dead server surfaces as degraded operation, not a constructor
// error; use Ping to probe. Close the client to flush queued
// write-backs.
func DialRemoteStore(ctx context.Context, base string, httpClient *http.Client) *RemoteStore {
	return remotestore.NewClient(ctx, base, httpClient)
}

// NewSimEngineBackend is NewSimEngine.
//
// Deprecated: use NewSimEngine, which takes any store backend.
func NewSimEngineBackend(parallelism int, st StoreBackend) *SimEngine {
	return NewSimEngine(parallelism, st)
}

// NetFaultTransport builds a deterministic fault-injecting HTTP
// transport from a comma-separated rule spec, for exercising the remote
// store's failure paths reproducibly (tifsbench -netfault, CI). Each
// rule reads mode:method:path-substring:nth[:times] with modes drop
// (reset the connection), torn (cut the response body mid-read),
// latency<duration> (delay, honoring cancellation), or a bare status
// code (synthesize that response); nth is the 1-based matching request
// the fault first fires on, times repeats it (-1 = forever). Example:
//
//	drop:GET:/v1/blob:1,503:PUT:/v1/blob:2:3,latency500ms:GET:/v1/manifest:1
func NetFaultTransport(spec string, inner http.RoundTripper) (http.RoundTripper, error) {
	rules, err := netfault.ParseRules(spec)
	if err != nil {
		return nil, fmt.Errorf("tifs: %w", err)
	}
	return netfault.New(inner, rules...), nil
}

// SimEngine is the concurrency-bounded, memoizing simulation scheduler
// experiments run on. Its concurrency is across simulations: each runs
// serially on one pooled SimRunner. Supplying one engine to several
// experiment runs (ExperimentOptions.Engine) shares memoized
// simulations between them; its counters say how much work a run
// actually performed. An engine needs no release.
type SimEngine = engine.Engine

// NewSimEngine creates an engine running at most parallelism
// simulations at once (0 = GOMAXPROCS), optionally backed by a
// persistent store backend, local or remote (nil, including a nil
// *ResultStore, = in-process memo only).
func NewSimEngine(parallelism int, st StoreBackend) *SimEngine {
	e := engine.New(parallelism)
	e.SetBackend(st)
	return e
}

// ExperimentOptions scope an experiment run. Parallelism bounds how many
// simulations run concurrently (0 = GOMAXPROCS, 1 = serial); rendered
// tables are byte-identical at every setting.
type ExperimentOptions = experiments.Options

// Experiment names one reproducible paper table or figure: its ID and
// Description. Run it with RunExperiments and enumerate its work with
// ExperimentGrid, which both validate the options first.
type Experiment = experiments.Runner

// Experiments lists every reproducible table/figure and ablation.
func Experiments() []Experiment { return experiments.Registry() }

// RunExperiments executes the named experiments (all of them, in paper
// order, when ids is empty) sharing one engine, so simulations common to
// several figures run once. IDs are "fig1", "fig3", "fig5", "fig6",
// "fig10", "fig11", "fig12", "fig13", "table1", "table2",
// "ablation-svb", "ablation-eos", and "ablation-drops"; an unknown one
// fails before anything runs. One id renders that experiment's bare
// table; several render a "== id: description" sectioned concatenation.
func RunExperiments(ids []string, o ExperimentOptions) (string, error) {
	out, err := experiments.RunSelected(ids, o, nil)
	if err != nil {
		return "", fmt.Errorf("tifs: %w", err)
	}
	return out, nil
}

// MechanismByName resolves the CLI mechanism names ("next-line",
// "fdip", "discontinuity", "tifs-unbounded", "tifs-dedicated",
// "tifs-virtualized", "perfect") to their constructors — the same
// registry tifssim and the sweep service use.
func MechanismByName(name string) (Mechanism, error) {
	m, err := sim.MechanismByName(name)
	if err != nil {
		return Mechanism{}, fmt.Errorf("tifs: %w", err)
	}
	return m, nil
}

// SimReport renders the detailed single-simulation report tifssim
// prints: cycles, IPC, fetch-stall share, coverage, the L2 traffic
// ledger, and the speedup line when a next-line baseline accompanies
// the run. The header names the core count the run used. The sweep
// service returns exactly these bytes for a simulation-form job.
func SimReport(r SimResult, baseline *SimResult, scale Scale) string {
	return sim.Report(r, baseline, scale)
}

// --- Sweep service -----------------------------------------------------

// SweepService is the long-running job daemon behind tifsserve -jobs:
// it owns one shared memoizing engine (optionally backed by the served
// result store), accepts simulation and sweep submissions over HTTP,
// single-flights identical jobs onto one execution, bounds concurrent
// work with per-client fairness queues, and streams per-simulation
// progress events. See internal/sweepd for the protocol.
type SweepService = sweepd.Service

// SweepServiceConfig sizes a service: engine parallelism, the persistent
// store backend, and the admission-control bounds (MaxActive concurrent
// jobs, MaxQueued / MaxQueuedPerClient queue depths — exceeding either
// yields 429 with Retry-After).
type SweepServiceConfig = sweepd.Config

// Job types shared by the service and its client.
type (
	// JobRequest is a submission: either a sweep (Experiments/Workloads)
	// or a single simulation (Workload/Mechanism/Baseline), plus the
	// shared Scale/Events/Cores knobs.
	JobRequest = sweepd.JobRequest
	// JobStatus is a job's state, output, and engine-work counters.
	JobStatus = sweepd.JobStatus
	// JobEvent is one progress notification on a job's event stream.
	JobEvent = sweepd.Event
	// JobClient submits jobs and watches their event streams, retrying
	// transient failures (submissions are idempotent under single-flight)
	// and resuming dropped streams from the last delivered sequence
	// number.
	JobClient = sweepd.Client
)

// Job lifecycle states: queued -> running -> done | failed.
const (
	JobQueued  = sweepd.StateQueued
	JobRunning = sweepd.StateRunning
	JobDone    = sweepd.StateDone
	JobFailed  = sweepd.StateFailed
)

// NewSweepService starts a sweep service; mount it on an http.ServeMux
// with its Register method and stop it with Close.
func NewSweepService(cfg SweepServiceConfig) *SweepService { return sweepd.New(cfg) }

// DialJobService makes a job client for a tifsserve base URL, named
// after this host and process for the service's per-client fairness
// accounting. nil httpClient uses http.DefaultClient; pass a custom
// client to inject faults (NetFaultTransport) or set transport options.
// Submit posts a job; Watch streams its progress events until it
// completes and returns its final status — including the full rendered
// output, byte-identical to the equivalent local run.
func DialJobService(base string, httpClient *http.Client) *JobClient {
	c := sweepd.NewClient(base, httpClient)
	c.Name = sweepOwner()
	return c
}
