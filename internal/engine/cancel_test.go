package engine

import (
	"context"
	"reflect"
	"testing"
	"time"

	"tifs/internal/sequitur"
	"tifs/internal/sim"
	"tifs/internal/trace"
	"tifs/internal/workload"
)

// TestCancelledRunReturnsZeroAndDoesNotPoison: a run under an already-
// cancelled context returns zero results and memoizes nothing — the same
// jobs on a live context afterwards compute full, correct results.
func TestCancelledRunReturnsZeroAndDoesNotPoison(t *testing.T) {
	oltp := spec(t, "OLTP-DB2")
	jobs := []Job{job(oltp, sim.Baseline()), job(oltp, sim.FDIP())}

	e := New(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, r := range e.RunAll(ctx, jobs) {
		if !reflect.DeepEqual(r, sim.Result{}) {
			t.Fatalf("cancelled job %d returned a non-zero result: %+v", i, r)
		}
	}
	if got := e.SimulationsRun(); got != 0 {
		t.Fatalf("cancelled run still simulated %d jobs", got)
	}

	// The aborted keys were removed, not left pointing at zero results:
	// a live context recomputes them for real.
	want := New(1).RunAll(context.Background(), jobs)
	got := e.RunAll(context.Background(), jobs)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-cancel recompute diverges:\n%+v\nvs\n%+v", got, want)
	}
}

// TestCancelledMissTracesAbortsAndRecomputes: trace extraction under a
// cancelled context returns nil without memoizing a partial per-core
// set; a later call with a live context yields the full traces.
func TestCancelledMissTracesAbortsAndRecomputes(t *testing.T) {
	oltp := spec(t, "OLTP-DB2")
	tj := TraceJob{Spec: oltp, Scale: workload.ScaleSmall, Cores: 2, Events: 5_000}

	e := New(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got := e.ExtractTraces(ctx, tj); got != nil {
		t.Fatalf("cancelled extraction returned %d traces, want nil", len(got))
	}

	want := New(1).ExtractTraces(context.Background(), tj)
	if len(want) != tj.Cores {
		t.Fatalf("reference extraction returned %d traces, want %d", len(want), tj.Cores)
	}
	got := e.ExtractTraces(context.Background(), tj)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("post-cancel trace recompute diverges from a clean run")
	}
}

// joined reports whether key is in the memo and how many callers have
// joined its flight.
func (m *memo[T]) joined(key string) (present bool, joins int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.m[key]
	if !ok {
		return false, 0
	}
	return true, f.joins
}

// waitUntil polls cond until it holds, failing the test after a generous
// deadline.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// cancelOwnerUnderLiveWaiter drives one memo tier through the cross-
// context schedule: with the engine's only worker slot held, an owner
// starts the work under context A and a second request joins it under a
// live context; A is then cancelled and the slot freed. It returns what
// the live waiter received.
func cancelOwnerUnderLiveWaiter[T any](t *testing.T, e *Engine, m *memo[T], key string, get func(context.Context) T) T {
	t.Helper()
	e.sem <- struct{}{} // hold the only worker slot
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	go get(ctxA)
	waitUntil(t, "the owner's key is in the memo", func() bool {
		present, _ := m.joined(key)
		return present
	})
	live := make(chan T, 1)
	go func() { live <- get(context.Background()) }()
	waitUntil(t, "the live request has joined", func() bool {
		_, joins := m.joined(key)
		return joins == 1
	})
	cancelA()
	<-e.sem // free the slot
	return <-live
}

// TestCancelOwnerSimulationLiveWaiterGetsResult: cancelling the context
// that started a simulation must not hand a zero Result to a request
// that joined it under a live context; the live request takes over.
func TestCancelOwnerSimulationLiveWaiterGetsResult(t *testing.T) {
	j := job(spec(t, "OLTP-DB2"), sim.Baseline())
	j.Config.EventsPerCore = 2_000
	e := New(1)
	got := cancelOwnerUnderLiveWaiter(t, e, e.sims, j.Key(), func(ctx context.Context) sim.Result {
		return e.RunAll(ctx, []Job{j})[0]
	})
	want := New(1).RunAll(context.Background(), []Job{j})[0]
	if want.Cycles == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("live waiter got %+v, want %+v", got, want)
	}
}

// TestCancelOwnerTracesLiveWaiterGetsTraces: the same schedule on the
// miss-trace tier.
func TestCancelOwnerTracesLiveWaiterGetsTraces(t *testing.T) {
	tj := TraceJob{Spec: spec(t, "OLTP-DB2"), Scale: workload.ScaleSmall, Cores: 2, Events: 2_000}
	e := New(1)
	got := cancelOwnerUnderLiveWaiter(t, e, e.traces, tj.Key(), func(ctx context.Context) [][]trace.MissRecord {
		return e.ExtractTraces(ctx, tj)
	})
	want := New(1).ExtractTraces(context.Background(), tj)
	if len(got) != tj.Cores || !reflect.DeepEqual(got, want) {
		t.Fatalf("live waiter got %d of %d traces, or different ones", len(got), tj.Cores)
	}
}

// TestCancelOwnerGrammarsLiveWaiterGetsGrammars: the same schedule on
// the grammar tier, whose owner is cancelled while its nested trace
// extraction waits for the slot.
func TestCancelOwnerGrammarsLiveWaiterGetsGrammars(t *testing.T) {
	tj := TraceJob{Spec: spec(t, "OLTP-DB2"), Scale: workload.ScaleSmall, Cores: 2, Events: 2_000}
	e := New(1)
	got := cancelOwnerUnderLiveWaiter(t, e, e.grammars, grammarKey(tj, false), func(ctx context.Context) []*sequitur.Snapshot {
		return e.Grammars(ctx, tj, false)
	})
	want := New(1).Grammars(context.Background(), tj, false)
	if len(got) != tj.Cores || !reflect.DeepEqual(got, want) {
		t.Fatalf("live waiter got %d of %d grammars, or different ones", len(got), tj.Cores)
	}
}
