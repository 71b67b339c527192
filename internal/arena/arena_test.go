package arena

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestClassFor checks the class table's properties over every pooled
// size: each size maps to the smallest class that holds it, each class
// round-trips through its own slot size (Put re-derives the class from
// cap), slots are whole 16-byte units, and above 64 B the slot wastes less
// than a quarter of the value.
func TestClassFor(t *testing.T) {
	if got := classBytes(NumClasses - 1); got != MaxClassBytes {
		t.Fatalf("largest class holds %d bytes, want %d", got, MaxClassBytes)
	}
	for c := 0; c < NumClasses; c++ {
		b := classBytes(c)
		if got := classFor(b); got != c {
			t.Errorf("classFor(classBytes(%d) = %d) = %d", c, b, got)
		}
		if b%16 != 0 {
			t.Errorf("class %d: %d-byte slot is not a multiple of 16", c, b)
		}
		if c > 0 && b <= classBytes(c-1) {
			t.Errorf("class %d: %d bytes, not above class %d's %d", c, b, c-1, classBytes(c-1))
		}
	}
	if got := classFor(0); got != 0 { // an empty value still takes one slot
		t.Errorf("classFor(0) = %d, want 0", got)
	}
	for n := 1; n <= MaxClassBytes; n++ {
		c := classFor(n)
		if c < 0 || c >= NumClasses {
			t.Fatalf("classFor(%d) = %d, out of [0, %d)", n, c, NumClasses)
		}
		slot := classBytes(c)
		if slot < n || (c > 0 && classBytes(c-1) >= n) {
			t.Fatalf("classFor(%d) = %d (%d B), not the smallest class holding %d bytes", n, c, slot, n)
		}
		if n > smallMaxBytes && 4*(slot-n) >= n {
			t.Fatalf("classFor(%d): %d-byte slot wastes %d B, not under 25%%", n, slot, slot-n)
		}
	}
}

func TestGetPutRoundTrip(t *testing.T) {
	a := New(0)
	c := a.NewCache()
	for _, n := range []int{1, 8, 16, 24, 100, 4096} {
		s, pooled := c.Get(n)
		if !pooled {
			t.Fatalf("Get(%d) not pooled", n)
		}
		want := (n + 7) / 8
		if len(s) != want {
			t.Errorf("Get(%d): len = %d, want %d", n, len(s), want)
		}
		if cap(s)*8 != classBytes(classFor(n)) {
			t.Errorf("Get(%d): cap = %d words, want class size %d bytes",
				n, cap(s), classBytes(classFor(n)))
		}
		c.Put(s)
	}
	// Fallback path: larger than the largest class.
	s, pooled := c.Get(MaxClassBytes + 1)
	if pooled {
		t.Fatal("oversized Get reported pooled")
	}
	if len(s) != (MaxClassBytes+1+7)/8 {
		t.Errorf("fallback len = %d", len(s))
	}
	if got := a.Snapshot().Fallbacks; got != 1 {
		t.Errorf("fallbacks = %d, want 1", got)
	}
}

// TestRecycling checks that a Put slot is handed back by a later Get of
// the same class (LIFO within the local cache) rather than freshly carved.
func TestRecycling(t *testing.T) {
	a := New(0)
	c := a.NewCache()
	s1, _ := c.Get(24)
	c.Put(s1)
	s2, _ := c.Get(28)
	if &s1[0] != &s2[0] {
		t.Error("Put slot was not recycled by next same-class Get")
	}
}

// TestFlushRefill frees enough slots through one cache to force central
// flushes, then drains them back through a second cache, checking the
// accounting balances and no slot is handed out twice.
func TestFlushRefill(t *testing.T) {
	a := New(0)
	c1 := a.NewCache()
	const n = 4 * localCap
	held := make([][]atomic.Uint64, 0, n)
	for i := 0; i < n; i++ {
		s, _ := c1.Get(24)
		held = append(held, s)
	}
	for _, s := range held {
		c1.Put(s)
	}
	st := a.Snapshot()
	if st.Flushes == 0 {
		t.Error("no central flushes after freeing 4x localCap slots")
	}
	if st.LiveSlots[1] != 0 {
		t.Errorf("live slots = %d after freeing everything", st.LiveSlots[1])
	}
	if st.Central[1] == 0 {
		t.Error("central free list empty after flushes")
	}

	c2 := a.NewCache()
	seen := make(map[*atomic.Uint64]bool, n)
	for i := 0; i < n; i++ {
		s, _ := c2.Get(24)
		if seen[&s[0]] {
			t.Fatal("slot handed out twice")
		}
		seen[&s[0]] = true
	}
	st = a.Snapshot()
	if st.LiveSlots[1] != n {
		t.Errorf("live slots = %d, want %d", st.LiveSlots[1], n)
	}
	if st.LiveBytes != n*32 {
		t.Errorf("live bytes = %d, want %d", st.LiveBytes, n*32)
	}
}

// TestDistinctSlots checks freshly carved slots never alias: writes
// through one slot are invisible through any other.
func TestDistinctSlots(t *testing.T) {
	a := New(8 << 10) // small chunks to cross chunk boundaries
	c := a.NewCache()
	held := make([][]atomic.Uint64, 0, 600)
	for i := 0; i < 600; i++ {
		s, _ := c.Get(64)
		for w := range s {
			s[w].Store(uint64(i))
		}
		held = append(held, s)
	}
	for i, s := range held {
		for w := range s {
			if got := s[w].Load(); got != uint64(i) {
				t.Fatalf("slot %d word %d = %d (slots overlap)", i, w, got)
			}
		}
	}
	if chunks := a.Snapshot().Chunks; chunks < 2 {
		t.Errorf("chunks = %d, expected multiple with 8 KiB chunks", chunks)
	}
}

// TestConcurrentCaches hammers one arena from several caches at once
// (each cache single-owner, as the store uses them) and checks the books
// balance afterwards. Run under -race in CI.
func TestConcurrentCaches(t *testing.T) {
	a := New(64 << 10)
	const workers = 4
	const rounds = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		c := a.NewCache()
		wg.Add(1)
		go func(c *Cache, w int) {
			defer wg.Done()
			sizes := []int{8, 24, 100, 300, 1500}
			held := make([][]atomic.Uint64, 0, 8)
			for i := 0; i < rounds; i++ {
				s, _ := c.Get(sizes[(i+w)%len(sizes)])
				s[0].Store(uint64(w))
				held = append(held, s)
				if len(held) == cap(held) {
					for _, h := range held {
						if got := h[0].Load(); got != uint64(w) {
							panic("cross-cache slot aliasing")
						}
						c.Put(h)
					}
					held = held[:0]
				}
			}
			for _, h := range held {
				c.Put(h)
			}
		}(c, w)
	}
	wg.Wait()
	st := a.Snapshot()
	for cl, live := range st.LiveSlots {
		if live != 0 {
			t.Errorf("class %d: %d slots leaked", cl, live)
		}
	}
	if st.Refills == 0 {
		t.Error("expected central refill traffic")
	}
}

func BenchmarkGetPut(b *testing.B) {
	a := New(0)
	c := a.NewCache()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, _ := c.Get(24)
		c.Put(s)
	}
}
