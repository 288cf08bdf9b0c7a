package main

import (
	"sync"
	"sync/atomic"
	"time"

	"tifs"
	// Only for the grammar snapshot type in the StoreBackend method set,
	// which the public package does not re-export.
	"tifs/internal/sequitur"
)

// timedStore wraps a result store opened with tifs.OpenResultStore and
// times every typed get and put the engine makes through it.
type timedStore struct {
	tifs.StoreBackend
	tr     *tracer
	parent *atomic.Int64

	mu    sync.Mutex
	tally storeTally
}

// storeTally counts store operations and their host times.
type storeTally struct {
	gets, hits, puts   int
	getTimes, putTimes []time.Duration
}

func (s *timedStore) timeGet(start time.Time, span int, hit bool) {
	s.tr.end(span)
	d := time.Since(start)
	s.mu.Lock()
	s.tally.gets++
	if hit {
		s.tally.hits++
	}
	s.tally.getTimes = append(s.tally.getTimes, d)
	s.mu.Unlock()
}

func (s *timedStore) timePut(start time.Time, span int) {
	s.tr.end(span)
	d := time.Since(start)
	s.mu.Lock()
	s.tally.puts++
	s.tally.putTimes = append(s.tally.putTimes, d)
	s.mu.Unlock()
}

func (s *timedStore) begin(name string) (time.Time, int) {
	return time.Now(), s.tr.begin(name, int(s.parent.Load()))
}

func (s *timedStore) GetResult(key string) (tifs.SimResult, bool) {
	t, id := s.begin("store.get")
	r, ok := s.StoreBackend.GetResult(key)
	s.timeGet(t, id, ok)
	return r, ok
}

func (s *timedStore) PutResult(key string, r tifs.SimResult) {
	t, id := s.begin("store.put")
	s.StoreBackend.PutResult(key, r)
	s.timePut(t, id)
}

func (s *timedStore) GetMissTraces(key string) ([][]tifs.MissRecord, bool) {
	t, id := s.begin("store.get")
	r, ok := s.StoreBackend.GetMissTraces(key)
	s.timeGet(t, id, ok)
	return r, ok
}

func (s *timedStore) PutMissTraces(key string, recs [][]tifs.MissRecord) {
	t, id := s.begin("store.put")
	s.StoreBackend.PutMissTraces(key, recs)
	s.timePut(t, id)
}

func (s *timedStore) GetGrammars(key string) ([]*sequitur.Snapshot, bool) {
	t, id := s.begin("store.get")
	r, ok := s.StoreBackend.GetGrammars(key)
	s.timeGet(t, id, ok)
	return r, ok
}

func (s *timedStore) PutGrammars(key string, snaps []*sequitur.Snapshot) {
	t, id := s.begin("store.put")
	s.StoreBackend.PutGrammars(key, snaps)
	s.timePut(t, id)
}
