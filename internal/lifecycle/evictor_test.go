package lifecycle

import (
	"sync"
	"testing"
	"time"
)

func TestVictimHeapKeepsColdest(t *testing.T) {
	h := victimHeap{cap: 3}
	for i := 0; i < 100; i++ {
		h.offer(victim{key: uint64(i), bytes: 64, rank: int64(i)})
	}
	got := h.ranked()
	if len(got) != 3 {
		t.Fatalf("kept %d, want 3", len(got))
	}
	for i, v := range got {
		if v.rank != int64(i) {
			t.Fatalf("ranked[%d].rank = %d, want %d", i, v.rank, i)
		}
	}
}

func TestVictimHeapExpiredFirst(t *testing.T) {
	h := victimHeap{cap: 4}
	h.offer(victim{key: 1, bytes: 64, rank: rankOf(5, false)})
	h.offer(victim{key: 2, bytes: 64, rank: rankOf(1000, true)}) // expired: hotness irrelevant
	h.offer(victim{key: 3, bytes: 64, rank: rankOf(0, false)})
	h.offer(victim{key: 4, bytes: 256, rank: rankOf(0, false)}) // ties break to bigger items
	got := h.ranked()
	if got[0].key != 2 {
		t.Fatalf("ranked[0].key = %d, want expired key 2", got[0].key)
	}
	if got[1].key != 4 || got[2].key != 3 {
		t.Fatalf("rank-0 tie order = %d,%d, want 4,3", got[1].key, got[2].key)
	}
}

// fakeStore enforces the budget against a simple in-memory population.
type fakeStore struct {
	mu       sync.Mutex
	items    map[uint64]victim // rank reused as hotness
	expired  map[uint64]bool
	live     uint64
	maintain int
}

func (f *fakeStore) BudgetedBytes() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.live
}

func (f *fakeStore) WalkItems(fn func(uint64, int, uint32, bool) bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for k, v := range f.items {
		if !fn(k, v.bytes, uint32(v.rank), f.expired[k]) {
			return
		}
	}
}

func (f *fakeStore) EvictKey(key uint64) (uint64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.items[key]
	if !ok {
		return 0, false
	}
	delete(f.items, key)
	f.live -= uint64(v.bytes)
	return uint64(v.bytes), true
}

func (f *fakeStore) EvictorMaintain() {
	f.mu.Lock()
	f.maintain++
	f.mu.Unlock()
}

func newFake(n int, bytes int) *fakeStore {
	f := &fakeStore{items: map[uint64]victim{}, expired: map[uint64]bool{}}
	for i := 0; i < n; i++ {
		f.items[uint64(i)] = victim{key: uint64(i), bytes: bytes, rank: int64(i)}
		f.live += uint64(bytes)
	}
	return f
}

func TestPassEnforcesBudget(t *testing.T) {
	f := newFake(100, 64) // 6400 live bytes
	e := New(Config{Budget: 3200}, f, nil)
	n, freed := e.Pass()
	if n == 0 || freed == 0 {
		t.Fatal("pass evicted nothing")
	}
	if got := f.BudgetedBytes(); got > 3200 {
		t.Fatalf("live %d still above budget", got)
	}
	// Down to the low-water mark, not just under budget.
	if got, low := f.BudgetedBytes(), uint64(3200*lowWater); got > low {
		t.Fatalf("live %d above low water %d", got, low)
	}
	// Coldest (lowest rank) keys went first: key 99 (hottest) must survive.
	f.mu.Lock()
	_, hotSurvives := f.items[99]
	_, coldSurvives := f.items[0]
	f.mu.Unlock()
	if !hotSurvives {
		t.Fatal("hottest key evicted")
	}
	if coldSurvives {
		t.Fatal("coldest key survived a full pass")
	}
}

func TestPassUnderBudgetIsIdle(t *testing.T) {
	f := newFake(10, 64)
	e := New(Config{Budget: 1 << 20}, f, nil)
	if n, _ := e.Pass(); n != 0 {
		t.Fatalf("evicted %d items under budget", n)
	}
}

func TestExpiredEvictedBeforeCold(t *testing.T) {
	f := newFake(10, 64) // 640 bytes, ranks 0..9
	f.expired[9] = true  // hottest item, but expired
	e := New(Config{Budget: 600}, f, nil)
	n, _ := e.Pass() // needs to free 100 bytes → two evictions
	if n != 2 {
		t.Fatalf("evicted %d, want 2", n)
	}
	f.mu.Lock()
	_, expiredStill := f.items[9]
	_, coldestStill := f.items[0]
	f.mu.Unlock()
	if expiredStill {
		t.Fatal("expired item not chosen first")
	}
	if coldestStill {
		t.Fatal("coldest live item not chosen second")
	}
}

func TestLoopReactsToNotify(t *testing.T) {
	f := newFake(100, 64)
	e := New(Config{Budget: 3200, Interval: time.Hour}, f, nil) // ticker won't fire
	e.Start()
	defer e.Close()
	e.Notify()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if f.BudgetedBytes() <= 3200 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("notify did not trigger a pass")
}
