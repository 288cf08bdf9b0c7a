package main

import (
	"sync"
	"sync/atomic"
	"time"

	"tifs"
)

// engineStats is what the engine's Observer reports during traced
// passes: busy time per kind of work and the longest simulation. This
// file is the only one that knows the Observer's shape and event kinds.
type engineStats struct {
	mu        sync.Mutex
	open      map[string]openWork
	sims      int
	traces    int
	storeHits int
	simBusy   time.Duration
	traceBusy time.Duration
	simMax    time.Duration
}

type openWork struct {
	span  int
	start time.Time
}

// observe attaches a recording observer to e. Work spans are parented
// to whatever span parent names when the work starts.
func (st *engineStats) observe(e *tifs.SimEngine, tr *tracer, parent *atomic.Int64) {
	st.mu.Lock()
	if st.open == nil {
		st.open = map[string]openWork{}
	}
	st.mu.Unlock()
	e.SetObserver(func(kind, key string) {
		now := time.Now()
		switch kind {
		case "sim-start", "trace-start":
			name := "engine.sim"
			if kind == "trace-start" {
				name = "engine.trace"
			}
			id := tr.begin(name, int(parent.Load()))
			st.mu.Lock()
			st.open[kind[:len(kind)-len("-start")]+"|"+key] = openWork{span: id, start: now}
			st.mu.Unlock()
		case "sim-done", "trace-done":
			what := kind[:len(kind)-len("-done")]
			st.mu.Lock()
			w, ok := st.open[what+"|"+key]
			delete(st.open, what+"|"+key)
			if ok {
				d := now.Sub(w.start)
				if what == "sim" {
					st.sims++
					st.simBusy += d
					st.simMax = max(st.simMax, d)
				} else {
					st.traces++
					st.traceBusy += d
				}
			}
			st.mu.Unlock()
			if ok {
				tr.end(w.span)
			}
		case "store-hit":
			st.mu.Lock()
			st.storeHits++
			st.mu.Unlock()
		}
	})
}
