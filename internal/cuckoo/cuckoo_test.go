package cuckoo

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// box returns a fresh pointer to k: values in these tests carry the key
// (or a payload) they were stored under, so a read can check it.
func box(k uint64) *uint64 { return &k }

func str(s string) *string { return &s }

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestBasicPutGetDelete(t *testing.T) {
	m := New[*string](16)
	if _, ok := m.Get(1); ok {
		t.Fatal("empty map must not contain key")
	}
	m.Put(1, str("one"))
	v, ok := m.Get(1)
	if !ok || *v != "one" {
		t.Fatalf("Get(1) = %v, %v", v, ok)
	}
	m.Put(1, str("uno"))
	if v, _ := m.Get(1); *v != "uno" {
		t.Fatal("Put must replace")
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
	if !m.Delete(1) {
		t.Fatal("Delete of present key must return true")
	}
	if m.Delete(1) {
		t.Fatal("second Delete must return false")
	}
	if _, ok := m.Get(1); ok {
		t.Fatal("deleted key must be gone")
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d, want 0", m.Len())
	}
}

func TestZeroKeyAndZeroValue(t *testing.T) {
	m := New[*uint64](4)
	m.Put(0, new(uint64))
	v, ok := m.Get(0)
	if !ok || *v != 0 {
		t.Fatal("zero key with a pointer to a zero value must round-trip")
	}
	if !m.Delete(0) {
		t.Fatal("zero key must delete")
	}
	if _, ok := m.Get(0); ok {
		t.Fatal("deleted zero key must miss: an empty slot's key reads as 0")
	}
}

func TestPointerValues(t *testing.T) {
	m := New[*int](4)
	x := 41
	m.Put(7, &x)
	p, ok := m.Get(7)
	if !ok || p != &x {
		t.Fatal("pointer values must round-trip identically")
	}
	if _, ok := m.Get(8); ok {
		t.Fatal("absent key must miss")
	}
}

func TestNonPointerValuePanics(t *testing.T) {
	mustPanic(t, "New[[]byte]", func() { New[[]byte](4) })
	mustPanic(t, "New[uint64]", func() { New[uint64](4) })
	mustPanic(t, "New[any]", func() { New[any](4) })
}

func TestPutNilPanics(t *testing.T) {
	m := New[*uint64](4)
	mustPanic(t, "Put(k, nil)", func() { m.Put(1, nil) })
	if m.Len() != 0 {
		t.Fatalf("Len = %d after a refused Put, want 0", m.Len())
	}
}

func TestGrowthKeepsAllKeys(t *testing.T) {
	m := New[*uint64](4) // force many doublings
	const n = 50000
	for i := uint64(0); i < n; i++ {
		m.Put(i, box(i))
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		v, ok := m.Get(i)
		if !ok {
			t.Fatalf("key %d lost", i)
		}
		if *v != i {
			t.Fatalf("key %d has wrong value", i)
		}
	}
	if m.Capacity() < n {
		t.Fatal("capacity must have grown past item count")
	}
}

func TestRange(t *testing.T) {
	m := New[*string](64)
	want := map[uint64]string{}
	for i := uint64(0); i < 100; i++ {
		s := fmt.Sprintf("v%d", i)
		want[i] = s
		m.Put(i, str(s))
	}
	got := map[uint64]string{}
	m.Range(func(k uint64, v *string) bool {
		got[k] = *v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("ranged %d items, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d: got %q want %q", k, got[k], v)
		}
	}
	// Early stop.
	n := 0
	m.Range(func(uint64, *string) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop iterated %d times", n)
	}
}

func TestMatchesReferenceMap(t *testing.T) {
	type op struct {
		Kind byte
		Key  uint16
		Val  byte
	}
	f := func(ops []op) bool {
		m := New[*byte](8)
		ref := map[uint64]*byte{}
		for _, o := range ops {
			k := uint64(o.Key % 512)
			switch o.Kind % 3 {
			case 0:
				v := o.Val
				m.Put(k, &v)
				ref[k] = &v
			case 1:
				got, ok := m.Get(k)
				want, wok := ref[k]
				if ok != wok {
					return false
				}
				if ok && got != want {
					return false
				}
			case 2:
				_, wok := ref[k]
				if m.Delete(k) != wok {
					return false
				}
				delete(ref, k)
			}
		}
		if m.Len() != len(ref) {
			return false
		}
		for k, want := range ref {
			got, ok := m.Get(k)
			if !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentMixedOps(t *testing.T) {
	m := New[*uint64](1024)
	const (
		goroutines = 8
		opsPer     = 20000
		keyspace   = 4096
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seed := uint64(g)*2654435761 + 1
			for i := 0; i < opsPer; i++ {
				seed = seed*6364136223846793005 + 1442695040888963407
				k := seed % keyspace
				switch seed >> 62 {
				case 0, 1:
					m.Put(k, box(k))
				case 2:
					if val, ok := m.Get(k); ok && *val != k {
						panic("read value does not match key invariant")
					}
				case 3:
					m.Delete(k)
				}
			}
		}(g)
	}
	wg.Wait()
	// Post-condition: every remaining entry still satisfies value==key.
	m.Range(func(k uint64, v *uint64) bool {
		if *v != k {
			t.Errorf("entry %d corrupted", k)
			return false
		}
		return true
	})
}

func TestConcurrentGrowthUnderWriters(t *testing.T) {
	m := New[*uint64](4)
	var wg sync.WaitGroup
	const writers = 4
	const perWriter = 8000
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := uint64(w*perWriter + i)
				m.Put(k, box(k))
			}
		}(w)
	}
	wg.Wait()
	if m.Len() != writers*perWriter {
		t.Fatalf("Len = %d, want %d", m.Len(), writers*perWriter)
	}
	for k := uint64(0); k < writers*perWriter; k++ {
		if v, ok := m.Get(k); !ok || *v != k {
			t.Fatalf("key %d missing or wrong after concurrent growth", k)
		}
	}
}

func TestTinyCapacityHint(t *testing.T) {
	m := New[*string](0)
	m.Put(42, str("x"))
	if v, ok := m.Get(42); !ok || *v != "x" {
		t.Fatal("map with zero hint must still work")
	}
}

// TestSlotReuseStress is the guard on Get's version recheck. Two buckets
// hold three of six keys at a time, and one writer rotates them: delete
// k, insert k+3. Every insert lands in the slot a delete just emptied, so
// a reader that matched the old key and then loaded the pointer can get
// the new key's value — unless the stripe versions send it back.
func TestSlotReuseStress(t *testing.T) {
	const keys = 6
	cycles := 1_000_000
	if raceEnabled || testing.Short() {
		cycles = 200_000
	}
	m := New[*uint64](4)
	if got := m.Capacity(); got != 2*slotsPerBucket {
		t.Fatalf("New(4) has %d slots, want two buckets", got)
	}
	var vals [keys]*uint64
	for k := range vals {
		vals[k] = box(uint64(k))
	}
	for k := uint64(0); k < keys/2; k++ {
		m.Put(k, vals[k])
	}
	var done atomic.Bool
	var wrong, hits atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < runtime.GOMAXPROCS(0); r++ {
		wg.Add(1)
		go func(r uint64) {
			defer wg.Done()
			var h, w int64
			for k := r; !done.Load(); k = (k + 1) % keys {
				if v, ok := m.Get(k); ok {
					h++
					if *v != k {
						w++
					}
				}
			}
			hits.Add(h)
			wrong.Add(w)
		}(uint64(r))
	}
	for i := 0; i < cycles; i++ {
		k := uint64(i % keys)
		m.Delete(k)
		m.Put((k+keys/2)%keys, vals[(k+keys/2)%keys])
	}
	done.Store(true)
	wg.Wait()
	if m.Capacity() != 2*slotsPerBucket {
		t.Fatalf("table grew to %d slots: the stress must reuse slots, not spread out", m.Capacity())
	}
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d of %d hits returned another key's value", n, hits.Load())
	}
	t.Logf("%d cycles, %d checked hits", cycles, hits.Load())
}

// TestInsertAllocFree fills a pre-sized table to 85% of its slots, deep
// into displacement territory, and requires new-key puts to allocate
// nothing while the table keeps its size.
func TestInsertAllocFree(t *testing.T) {
	const runs = 20
	m := New[*uint64](1 << 16)
	capacity := m.Capacity()
	batch := uint64(capacity*85/100) / (runs + 1)
	v := box(1)
	next := uint64(0)
	fill := func() {
		for end := next + batch; next < end; next++ {
			m.Put(next, v)
		}
	}
	// One warm-up batch, then runs measured batches up to 85% load. The
	// average is per batch, so a real per-kick allocation (thousands of
	// kicks) shows and a stray runtime allocation does not.
	avg := testing.AllocsPerRun(runs, fill)
	if m.Capacity() != capacity {
		t.Fatalf("table grew from %d to %d slots at %d keys", capacity, m.Capacity(), m.Len())
	}
	if m.Len() != int(next) {
		t.Fatalf("Len = %d, want %d", m.Len(), next)
	}
	if avg != 0 && !raceEnabled {
		t.Fatalf("%v allocations per batch of %d new-key puts, want 0", avg, batch)
	}
}

func BenchmarkGet(b *testing.B) {
	m := New[*uint64](1 << 20)
	v := box(0)
	for i := uint64(0); i < 1<<20; i++ {
		m.Put(i, v)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := uint64(0)
		for pb.Next() {
			i = i*6364136223846793005 + 1
			m.Get(i % (1 << 20))
		}
	})
}

func BenchmarkPut(b *testing.B) {
	m := New[*uint64](1 << 20)
	v := box(0)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := uint64(0)
		for pb.Next() {
			i = i*6364136223846793005 + 1
			m.Put(i%(1<<20), v)
		}
	})
}
