package mutps

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"mutps/internal/obs"
)

func openStore(t *testing.T, o Options) *Store {
	t.Helper()
	if o.RefreshInterval == 0 {
		o.RefreshInterval = -1 // manual refresh in tests
	}
	s, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestDefaults(t *testing.T) {
	s := openStore(t, Options{})
	nCR, nMR := s.Split()
	if nCR != 1 || nMR != 3 {
		t.Fatalf("default split %d/%d, want 1/3", nCR, nMR)
	}
	s.Put(1, []byte("v"))
	if v, ok, _ := s.Get(1); !ok || string(v) != "v" {
		t.Fatal("basic put/get through the facade failed")
	}
}

// TestOpenDefaults pins Open's contract for what an embedder leaves zero:
// the zero Options serves with the hot-set cache on (HotItems 0 → 4096) and
// its refresher running, so a skewed burst ends up served at the CR layer
// with no RefreshHotSet call; a negative RefreshInterval leaves the view to
// manual refreshes; a negative HotItems opens without the cache.
func TestOpenDefaults(t *testing.T) {
	hammer := func(s *Store) {
		for i := 0; i < 256; i++ {
			if _, ok, err := s.Get(7); err != nil || !ok {
				t.Fatalf("get: found=%v err=%v", ok, err)
			}
		}
	}
	t.Run("zero", func(t *testing.T) {
		if obs.Disabled {
			t.Skip("CRHits comes from the obs instruments")
		}
		s, err := Open(Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if s.HotItems() != 4096 {
			t.Fatalf("default hot-set target = %d, want 4096", s.HotItems())
		}
		s.Put(7, []byte("hothotho"))
		for deadline := time.Now().Add(2 * time.Second); s.Stats().CRHits == 0; {
			if time.Now().After(deadline) {
				t.Fatal("zero Options never served a get at the CR layer: no refresher running")
			}
			hammer(s)
		}
	})
	t.Run("manual", func(t *testing.T) {
		s := openStore(t, Options{RefreshInterval: -1})
		s.Put(7, []byte("hothotho"))
		hammer(s)
		time.Sleep(250 * time.Millisecond) // two default refresh periods
		if st := s.Stats(); st.HotSize != 0 || st.CRHits != 0 {
			t.Fatalf("hot view changed without RefreshHotSet: %+v", st)
		}
		if s.RefreshHotSet() == 0 || s.Stats().HotSize == 0 {
			t.Fatal("manual refresh cached nothing")
		}
	})
	t.Run("off", func(t *testing.T) {
		s := openStore(t, Options{HotItems: -1})
		if s.HotItems() != 0 {
			t.Fatalf("negative HotItems opened with target %d, want 0 (cache off)", s.HotItems())
		}
	})
}

// TestCloseStopsRefresher: the refresher is Open's goroutine, so Close
// takes it down with the workers — the goroutine count returns to where it
// was before Open.
func TestCloseStopsRefresher(t *testing.T) {
	before := runtime.NumGoroutine()
	s, err := Open(Options{RefreshInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s.Put(1, []byte("v"))
	if runtime.NumGoroutine() <= before {
		t.Fatal("an open store runs no goroutines?")
	}
	s.Close()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before Open", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTreeEngineScan(t *testing.T) {
	s := openStore(t, Options{Engine: Tree})
	for i := uint64(0); i < 10; i++ {
		s.Put(i, []byte{byte(i)})
	}
	kvs, err := s.Scan(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 4 || kvs[0].Key != 3 || kvs[3].Key != 6 {
		t.Fatalf("scan = %+v", kvs)
	}
}

func TestHashEngineRejectsScan(t *testing.T) {
	s := openStore(t, Options{Engine: Hash})
	if _, err := s.Scan(0, 1); err == nil {
		t.Fatal("hash engine must reject Scan")
	}
}

func TestPreloadCopiesValue(t *testing.T) {
	s := openStore(t, Options{})
	buf := []byte("mutable")
	s.Preload(9, buf)
	buf[0] = 'X'
	if v, _, _ := s.Get(9); string(v) != "mutable" {
		t.Fatal("Preload must copy the value")
	}
}

func TestSplitAndHotControls(t *testing.T) {
	s := openStore(t, Options{Workers: 5, CRWorkers: 2, HotItems: 64})
	if err := s.SetSplit(3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		s.Get(uint64(i % 4))
	}
	nCR, _ := s.Split()
	if nCR != 3 {
		t.Fatalf("split = %d", nCR)
	}
	if err := s.SetSplit(0); err == nil {
		t.Fatal("invalid split must error")
	}
	s.SetHotItems(16)
	s.Put(7, []byte("hothotho"))
	for i := 0; i < 64; i++ {
		s.Get(7)
	}
	if n := s.RefreshHotSet(); n == 0 {
		t.Fatal("refresh should cache the hammered key")
	}
	st := s.Stats()
	if st.HotSize == 0 || st.Items == 0 || st.Ops == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestBackgroundRefresher(t *testing.T) {
	s, err := Open(Options{HotItems: 32, RefreshInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Put(3, []byte("vvvvvvvv"))
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		for i := 0; i < 32; i++ {
			s.Get(3)
		}
		if s.Stats().HotSize > 0 {
			return
		}
	}
	t.Fatal("background refresher never installed a hot view")
}

func TestInvalidOptions(t *testing.T) {
	if _, err := Open(Options{Workers: 1}); err == nil {
		t.Fatal("1 worker must be rejected (need one per layer)")
	}
	if _, err := Open(Options{Workers: 4, CRWorkers: 4}); err == nil {
		t.Fatal("CRWorkers == Workers must be rejected")
	}
}

func ExampleOpen() {
	store, err := Open(Options{Engine: Tree, Workers: 4, RefreshInterval: -1})
	if err != nil {
		panic(err)
	}
	defer store.Close()
	store.Put(42, []byte("answer"))
	v, _, _ := store.Get(42)
	fmt.Println(string(v))
	// Output: answer
}

func TestGetBatchFacade(t *testing.T) {
	s := openStore(t, Options{Engine: Tree})
	for i := uint64(0); i < 100; i += 2 {
		s.Put(i, []byte{byte(i)})
	}
	keys := []uint64{0, 1, 2, 98, 99, 50}
	vals, found := s.GetBatch(keys)
	wantFound := []bool{true, false, true, true, false, true}
	for i := range keys {
		if found[i] != wantFound[i] {
			t.Fatalf("key %d: found=%v want %v", keys[i], found[i], wantFound[i])
		}
		if found[i] && vals[i][0] != byte(keys[i]) {
			t.Fatalf("key %d: wrong value", keys[i])
		}
	}
	if vals, found := s.GetBatch(nil); len(vals) != 0 || len(found) != 0 {
		t.Fatal("empty batch must return empty slices")
	}
}

func TestAutotuneAppliesBestConfig(t *testing.T) {
	s := openStore(t, Options{Workers: 4, CRWorkers: 1, HotItems: 128})
	for i := uint64(0); i < 512; i++ {
		s.Preload(i, []byte{byte(i)})
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				s.Get(uint64(i % 512))
			}
		}
	}()
	res := s.Autotune(5*time.Millisecond, 256)
	close(stop)
	<-done
	if res.CRWorkers+res.MRWorkers != 4 {
		t.Fatalf("split does not cover all workers: %+v", res)
	}
	if res.Probes == 0 || res.OpsPerSec <= 0 {
		t.Fatalf("tuner did not measure: %+v", res)
	}
	nCR, _ := s.Split()
	if nCR != res.CRWorkers {
		t.Fatal("Autotune must leave the chosen split applied")
	}
}
