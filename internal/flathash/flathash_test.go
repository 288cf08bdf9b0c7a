package flathash

import (
	"testing"

	"tifs/internal/xrand"
)

func TestMapMatchesGoMap(t *testing.T) {
	var m Map
	ref := map[uint64]uint64{}
	rng := xrand.NewFromString("flathash-test")
	for i := 0; i < 50_000; i++ {
		k := uint64(rng.Intn(8000)) // force overwrites and probing chains
		v := rng.Uint64()
		m.Put(k, v)
		ref[k] = v
		if i%17 == 0 {
			probe := uint64(rng.Intn(10000))
			got, ok := m.Get(probe)
			want, wok := ref[probe]
			if ok != wok || got != want {
				t.Fatalf("Get(%d) = %d,%v; want %d,%v", probe, got, ok, want, wok)
			}
		}
	}
	if m.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(ref))
	}
	for k, want := range ref {
		got, ok := m.Get(k)
		if !ok || got != want {
			t.Fatalf("Get(%d) = %d,%v; want %d,true", k, got, ok, want)
		}
	}
}

func TestMapResetKeepsCapacity(t *testing.T) {
	var m Map
	for i := uint64(0); i < 1000; i++ {
		m.Put(i, i*3)
	}
	capBefore := m.Cap()
	m.Reset()
	if m.Len() != 0 {
		t.Fatalf("Len after Reset = %d", m.Len())
	}
	if m.Cap() != capBefore {
		t.Fatalf("Cap after Reset = %d, want %d", m.Cap(), capBefore)
	}
	if _, ok := m.Get(5); ok {
		t.Fatal("entry survived Reset")
	}
	allocs := testing.AllocsPerRun(5, func() {
		for i := uint64(0); i < 1000; i++ {
			m.Put(i, i)
		}
		m.Reset()
	})
	if allocs != 0 {
		t.Fatalf("refill after Reset allocated %.1f times", allocs)
	}
}

func TestMapGrowPreSizes(t *testing.T) {
	var m Map
	m.Grow(1000)
	allocs := testing.AllocsPerRun(2, func() {
		for i := uint64(0); i < 1000; i++ {
			m.Put(i, i)
		}
		m.Reset()
	})
	if allocs != 0 {
		t.Fatalf("pre-sized fill allocated %.1f times", allocs)
	}
}

// checkAgainst asserts m holds exactly ref.
func checkAgainst(t *testing.T, m *Map, ref map[uint64]uint64) {
	t.Helper()
	if m.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(ref))
	}
	for k, want := range ref {
		if got, ok := m.Get(k); !ok || got != want {
			t.Fatalf("Get(%d) = %d,%v; want %d,true", k, got, ok, want)
		}
	}
}

func TestMapDeleteMatchesGoMap(t *testing.T) {
	var m Map
	ref := map[uint64]uint64{}
	rng := xrand.NewFromString("flathash-delete")
	for i := 0; i < 100_000; i++ {
		// A small key space keeps the table dense, so deletes land in
		// long probe runs and shift their tails back.
		k := uint64(rng.Intn(600))
		switch op := rng.Intn(10); {
		case op < 5:
			v := rng.Uint64()
			m.Put(k, v)
			ref[k] = v
		case op < 9:
			_, want := ref[k]
			if got := m.Delete(k); got != want {
				t.Fatalf("step %d: Delete(%d) = %v, want %v", i, k, got, want)
			}
			delete(ref, k)
		default:
			got, ok := m.Get(k)
			want, wok := ref[k]
			if ok != wok || got != want {
				t.Fatalf("step %d: Get(%d) = %d,%v; want %d,%v", i, k, got, ok, want, wok)
			}
		}
		if i%1000 == 0 {
			checkAgainst(t, &m, ref)
		}
	}
	checkAgainst(t, &m, ref)
	for k := range ref {
		if !m.Delete(k) {
			t.Fatalf("Delete(%d) missed a stored key", k)
		}
	}
	if m.Len() != 0 || m.Delete(1) {
		t.Fatalf("table not empty after deleting every key: Len = %d", m.Len())
	}
}

// TestMapDeleteWrappingRun fills the last two home slots of a 16-slot
// table so its probe run wraps past the end, then deletes each key of
// the run in turn: the shift must carry entries back across the wrap.
func TestMapDeleteWrappingRun(t *testing.T) {
	var keys []uint64
	for k := uint64(0); len(keys) < 7; k++ {
		if home := hash(k) & 15; home >= 14 {
			keys = append(keys, k)
		}
	}
	for del := range keys {
		var m Map
		m.Grow(8)
		if m.Cap() != 16 {
			t.Fatalf("Cap = %d, want 16", m.Cap())
		}
		ref := map[uint64]uint64{}
		for i, k := range keys {
			m.Put(k, uint64(i))
			ref[k] = uint64(i)
		}
		if !m.used[0] || !m.used[4] {
			t.Fatal("probe run does not wrap the end of the table")
		}
		m.Delete(keys[del])
		delete(ref, keys[del])
		checkAgainst(t, &m, ref)
		for i := 0; i < 16; i++ {
			if m.used[i] && i >= 5 && i < 14 {
				t.Fatalf("slot %d used outside the wrapped run", i)
			}
		}
		if m.used[4] {
			t.Fatalf("deleting %d left the run's last slot occupied", keys[del])
		}
	}
}

func TestMapDeleteZeroAllocAfterReset(t *testing.T) {
	var m Map
	m.Grow(64)
	allocs := testing.AllocsPerRun(5, func() {
		for i := uint64(0); i < 64; i++ {
			m.Put(i*7, i)
		}
		for i := uint64(0); i < 64; i += 2 {
			m.Delete(i * 7)
		}
		m.Reset()
	})
	if allocs != 0 {
		t.Fatalf("put/delete/reset cycle allocated %.1f times", allocs)
	}
}
