package engine

import (
	"context"
	"sort"
	"sync"
)

// memo is a single-flight table: one computation per key at a time,
// its value shared by every caller that asks for the key. do is the only
// code that creates, joins or forgets an entry.
type memo[T any] struct {
	mu sync.Mutex
	m  map[string]*flight[T]
}

// flight is one computation. val and ok are written before done closes
// and read only after it.
type flight[T any] struct {
	done chan struct{}
	val  T
	ok   bool
	// joins counts the callers that joined this flight, guarded by
	// memo.mu. Tests read it to order a join before a cancellation.
	joins int
}

func newMemo[T any]() *memo[T] { return &memo[T]{m: map[string]*flight[T]{}} }

// do returns key's value, starting compute(ctx) if no computation of the
// key is in flight or done, and joining the existing one otherwise.
// compute reports false when ctx ended before it could produce the whole
// value; the key is then forgotten rather than poisoned, and each waiter
// whose own context is still live takes the computation over with its
// own compute. The computation runs on its own goroutine, so every
// caller, its starter included, stops waiting as soon as its ctx ends —
// returning the zero value — while a computation already under way still
// lands in the memo.
func (m *memo[T]) do(ctx context.Context, key string, compute func(context.Context) (T, bool)) T {
	for {
		m.mu.Lock()
		f, ok := m.m[key]
		switch {
		case ok:
			f.joins++
		case ctx.Err() == nil:
			f = &flight[T]{done: make(chan struct{})}
			m.m[key] = f
			go m.run(ctx, key, f, compute)
		}
		m.mu.Unlock()
		if f == nil {
			var zero T
			return zero
		}
		select {
		case <-f.done:
			if f.ok {
				return f.val
			}
		case <-ctx.Done():
			var zero T
			return zero
		}
	}
}

// run executes one flight and forgets its key when the flight fails, so
// the next live caller recomputes it.
func (m *memo[T]) run(ctx context.Context, key string, f *flight[T], compute func(context.Context) (T, bool)) {
	f.val, f.ok = compute(ctx)
	if !f.ok {
		m.mu.Lock()
		delete(m.m, key)
		m.mu.Unlock()
	}
	close(f.done)
}

// keys returns every key in flight or done, sorted; nil when none.
func (m *memo[T]) keys() []string {
	var out []string
	m.mu.Lock()
	for k := range m.m {
		out = append(out, k)
	}
	m.mu.Unlock()
	sort.Strings(out)
	return out
}
