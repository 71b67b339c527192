package hotset

import (
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"mutps/internal/seqitem"
)

func TestCMSCountsAndReset(t *testing.T) {
	c := NewCMS(1024)
	for i := 0; i < 100; i++ {
		c.Add(7)
	}
	c.Add(9)
	if got := c.Estimate(7); got < 100 {
		t.Fatalf("estimate(7) = %d, want >= 100", got)
	}
	if got := c.Estimate(9); got < 1 {
		t.Fatalf("estimate(9) = %d, want >= 1", got)
	}
	// CMS never underestimates.
	if got := c.Estimate(12345); got > 101 {
		t.Fatalf("estimate of absent key too large: %d", got)
	}
	c.Reset()
	if c.Estimate(7) != 0 {
		t.Fatal("Reset must clear counters")
	}
}

func TestCMSNeverUnderestimatesProperty(t *testing.T) {
	f := func(keys []uint16) bool {
		c := NewCMS(256)
		truth := map[uint64]uint32{}
		for _, k := range keys {
			c.Add(uint64(k))
			truth[uint64(k)]++
		}
		for k, n := range truth {
			if c.Estimate(k) < n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCMSMinimumWidth(t *testing.T) {
	c := NewCMS(0)
	c.Add(1)
	if c.Estimate(1) < 1 {
		t.Fatal("tiny sketch must still count")
	}
}

func TestTopKKeepsHottest(t *testing.T) {
	top := NewTopK(3)
	counts := map[uint64]uint32{1: 10, 2: 50, 3: 30, 4: 5, 5: 40}
	for k, c := range counts {
		top.Offer(k, c)
	}
	hot := top.Hottest(nil)
	if len(hot) != 3 {
		t.Fatalf("len = %d", len(hot))
	}
	want := []uint64{2, 5, 3}
	for i, h := range hot {
		if h.Key != want[i] {
			t.Fatalf("hottest = %v, want keys %v", hot, want)
		}
	}
	if top.Min() != 30 {
		t.Fatalf("Min = %d", top.Min())
	}
}

func TestTopKUpdateExistingKey(t *testing.T) {
	top := NewTopK(2)
	top.Offer(1, 10)
	top.Offer(2, 20)
	top.Offer(1, 99) // update, not duplicate
	hot := top.Hottest(nil)
	if len(hot) != 2 || hot[0].Key != 1 || hot[0].Count != 99 {
		t.Fatalf("hottest = %v", hot)
	}
	// Lower count for existing key is ignored.
	top.Offer(1, 5)
	if top.Hottest(nil)[0].Count != 99 {
		t.Fatal("lower re-offer must not decrease count")
	}
}

func TestTopKRejectsBelowMin(t *testing.T) {
	top := NewTopK(2)
	top.Offer(1, 10)
	top.Offer(2, 20)
	top.Offer(3, 5)
	hot := top.Hottest(nil)
	for _, h := range hot {
		if h.Key == 3 {
			t.Fatal("key below min must not enter a full heap")
		}
	}
}

// TestTopKReset checks a reused tracker forgets every earlier key and takes
// its new capacity, as the tracker's per-snapshot reuse relies on.
func TestTopKReset(t *testing.T) {
	top := NewTopK(3)
	for k := uint64(1); k <= 3; k++ {
		top.Offer(k, uint32(100*k))
	}
	top.Reset(2)
	for k := uint64(10); k <= 12; k++ {
		top.Offer(k, uint32(k))
	}
	top.Offer(1, 1) // a key from before the reset is new again
	hot := top.Hottest(nil)
	if len(hot) != 2 || hot[0].Key != 12 || hot[1].Key != 11 {
		t.Fatalf("hottest after reset = %v, want keys 12, 11", hot)
	}
}

func TestTopKPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTopK(0)
}

func TestTopKHeapInvariantProperty(t *testing.T) {
	f := func(offers []uint16) bool {
		top := NewTopK(8)
		truth := map[uint64]uint32{}
		for _, o := range offers {
			k := uint64(o % 64)
			truth[k]++
			top.Offer(k, truth[k])
		}
		// The returned set must be the true top-8 by final count.
		type kc struct {
			k uint64
			c uint32
		}
		var all []kc
		for k, c := range truth {
			all = append(all, kc{k, c})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].c != all[j].c {
				return all[i].c > all[j].c
			}
			return all[i].k < all[j].k
		})
		hot := top.Hottest(nil)
		n := len(hot)
		if n > 8 {
			return false
		}
		// Counts must be correct for every returned key.
		for _, h := range hot {
			if truth[h.Key] != h.Count {
				return false
			}
		}
		// The minimum returned count must be >= the (n+1)-th true count.
		if len(all) > n && n > 0 {
			if hot[n-1].Count < all[n].c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTrackerSamplingAndSnapshot(t *testing.T) {
	tr := NewTracker(2, 1, 1024)
	// Worker 0 hammers key 42, worker 1 spreads accesses.
	for i := 0; i < 500; i++ {
		tr.Record(0, 42)
	}
	for i := 0; i < 100; i++ {
		tr.Record(1, uint64(i))
	}
	cms := NewCMS(4096)
	hot := tr.Snapshot(cms, 5)
	if len(hot) == 0 || hot[0].Key != 42 {
		t.Fatalf("hottest = %+v, want key 42 first", hot)
	}
	// Second snapshot resets the sketch window but rings persist.
	hot2 := tr.Snapshot(cms, 5)
	if hot2[0].Key != 42 {
		t.Fatal("ring contents must persist across snapshots")
	}
}

func TestTrackerSampleEvery(t *testing.T) {
	tr := NewTracker(1, 10, 16)
	for i := 0; i < 9; i++ {
		tr.Record(0, 7)
	}
	cms := NewCMS(64)
	if got := tr.Snapshot(cms, 4); len(got) != 0 {
		t.Fatalf("nothing should be sampled yet, got %v", got)
	}
	tr.Record(0, 7) // 10th access → sampled
	if got := tr.Snapshot(cms, 4); len(got) != 1 || got[0].Key != 7 {
		t.Fatalf("snapshot = %v", got)
	}
}

func TestTrackerConcurrentRecord(t *testing.T) {
	tr := NewTracker(4, 2, 256)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				tr.Record(w, uint64(w))
			}
		}(w)
	}
	cms := NewCMS(1024)
	for i := 0; i < 100; i++ {
		tr.Snapshot(cms, 4) // concurrent with recording; must not race
	}
	wg.Wait()
	hot := tr.Snapshot(cms, 4)
	if len(hot) != 4 {
		t.Fatalf("want all 4 worker keys, got %v", hot)
	}
}

func TestTrackerPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewTracker(0, 1, 1) },
		func() { NewTracker(1, 0, 1) },
		func() { NewTracker(1, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func makeEntries(keys ...uint64) []Entry {
	out := make([]Entry, len(keys))
	for i, k := range keys {
		out[i] = Entry{Key: k, Item: seqitem.New([]byte{byte(k)})}
	}
	return out
}

func TestSortedViewLookup(t *testing.T) {
	v := NewSortedView(makeEntries(30, 10, 20))
	if v.Len() != 3 {
		t.Fatalf("Len = %d", v.Len())
	}
	for _, k := range []uint64{10, 20, 30} {
		it, ok := v.Lookup(k)
		if !ok || it.Read(nil)[0] != byte(k) {
			t.Fatalf("lookup %d failed", k)
		}
	}
	if _, ok := v.Lookup(15); ok {
		t.Fatal("absent key must miss")
	}
	if _, ok := v.Lookup(40); ok {
		t.Fatal("key past end must miss")
	}
}

func TestSortedViewDuplicateKeysKeepLast(t *testing.T) {
	a := seqitem.New([]byte{1})
	b := seqitem.New([]byte{2})
	v := NewSortedView([]Entry{{5, a}, {5, b}})
	if v.Len() != 1 {
		t.Fatalf("Len = %d", v.Len())
	}
	it, _ := v.Lookup(5)
	if it != b {
		t.Fatal("duplicate key must keep the last entry")
	}
}

func TestHashViewLookup(t *testing.T) {
	keys := make([]uint64, 100)
	for i := range keys {
		keys[i] = uint64(i * 7)
	}
	v := NewHashView(makeEntries(keys...))
	if v.Len() != 100 {
		t.Fatalf("Len = %d", v.Len())
	}
	for _, k := range keys {
		if it, ok := v.Lookup(k); !ok || it.Read(nil)[0] != byte(k) {
			t.Fatalf("lookup %d failed", k)
		}
	}
	if _, ok := v.Lookup(1); ok {
		t.Fatal("absent key must miss")
	}
}

func TestHashViewDuplicateInsertReplaces(t *testing.T) {
	a := seqitem.New([]byte{1})
	b := seqitem.New([]byte{2})
	v := NewHashView([]Entry{{9, a}, {9, b}})
	if v.Len() != 1 {
		t.Fatalf("Len = %d", v.Len())
	}
	it, _ := v.Lookup(9)
	if it != b {
		t.Fatal("re-insert must replace")
	}
}

func TestCacheInstallAndLookup(t *testing.T) {
	c := NewCache()
	if _, ok := c.Lookup(1); ok {
		t.Fatal("empty cache must miss")
	}
	if c.Len() != 0 {
		t.Fatal("empty cache Len != 0")
	}
	c.Install(NewSortedView(makeEntries(1, 2)))
	if _, ok := c.Lookup(1); !ok {
		t.Fatal("installed view must serve lookups")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	// Swap to a different view: key 1 disappears atomically.
	c.Install(NewHashView(makeEntries(3)))
	if _, ok := c.Lookup(1); ok {
		t.Fatal("old view must be invisible after Install")
	}
	if _, ok := c.Lookup(3); !ok {
		t.Fatal("new view must be visible after Install")
	}
}

func TestCacheConcurrentSwapAndLookup(t *testing.T) {
	c := NewCache()
	even := NewSortedView(makeEntries(0, 2, 4, 6))
	odd := NewSortedView(makeEntries(1, 3, 5, 7))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				c.Install(even)
			} else {
				c.Install(odd)
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50000; i++ {
				// Consistency: if 0 hits, the snapshot is "even", so 2
				// must hit in the SAME view (not via the cache again).
				v := c.View()
				_, ok0 := v.Lookup(0)
				_, ok2 := v.Lookup(2)
				if ok0 != ok2 {
					panic("view must be internally consistent")
				}
			}
		}()
	}
	// Readers bounded by iterations; writer by stop.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	close(stop)
	<-done
}
