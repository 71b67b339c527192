package kvcore

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"mutps/internal/rpc"
	"mutps/internal/workload"
)

// openAllocStore builds a small hash store with the background refresher
// off so nothing but the request path itself runs during measurement.
func openAllocStore(t *testing.T, hotItems int) *Store {
	t.Helper()
	s, err := Open(Config{
		Engine:    Hash,
		Workers:   3,
		CRWorkers: 1,
		HotItems:  hotItems,

		RefreshInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func preloadKeys(s *Store, n uint64) {
	for i := uint64(0); i < n; i++ {
		var v [8]byte
		binary.LittleEndian.PutUint64(v[:], i)
		s.Preload(i, v[:])
	}
}

// TestCRHitPathAllocFree locks in the tentpole: a get served entirely at
// the cache-resident layer performs zero heap allocations — pooled call,
// caller-owned value buffer, no per-request channel.
func TestCRHitPathAllocFree(t *testing.T) {
	s := openAllocStore(t, 64)
	preloadKeys(s, 16)

	// Warm the tracker so key 3 lands in the hot set, then install it.
	for i := 0; i < 512; i++ {
		s.Get(3)
	}
	if n := s.RefreshHotSet(); n == 0 {
		t.Fatal("hot set empty after warm-up")
	}
	before := s.Stats()
	if v, ok, _ := s.Get(3); !ok || binary.LittleEndian.Uint64(v) != 3 {
		t.Fatalf("get(3) = %v, %v", v, ok)
	}
	if after := s.Stats(); after.CRHits == before.CRHits {
		t.Fatal("get(3) did not take the CR hit path; cannot gate it")
	}

	buf := make([]byte, 0, 8)
	avg := testing.AllocsPerRun(200, func() {
		v, ok, _ := s.GetInto(3, buf)
		if !ok || len(v) != 8 {
			t.Fatalf("GetInto(3) = %v, %v", v, ok)
		}
		buf = v[:0]
	})
	if avg != 0 {
		t.Fatalf("CR hit path allocates %.2f times per op, want 0", avg)
	}
}

// TestMRGetPathAllocs gates the forwarded path: with the hot-set cache
// disabled every get crosses the CR-MR ring, is served against the full
// index, and still costs at most one allocation per op (steady state it
// is zero: pooled calls, recycled batch slot-lists, reused ring slots).
func TestMRGetPathAllocs(t *testing.T) {
	s := openAllocStore(t, 0)
	preloadKeys(s, 16)

	before := s.Stats()
	if v, ok, _ := s.Get(5); !ok || binary.LittleEndian.Uint64(v) != 5 {
		t.Fatalf("get(5) = %v, %v", v, ok)
	}
	after := s.Stats()
	if after.Forwarded == before.Forwarded {
		t.Fatal("get(5) was not forwarded to the MR layer; cannot gate it")
	}

	buf := make([]byte, 0, 8)
	avg := testing.AllocsPerRun(200, func() {
		v, ok, _ := s.GetInto(5, buf)
		if !ok || len(v) != 8 {
			t.Fatalf("GetInto(5) = %v, %v", v, ok)
		}
		buf = v[:0]
	})
	if avg > 1 {
		t.Fatalf("MR get path allocates %.2f times per op, want <= 1", avg)
	}
}

// TestPutInPlaceAllocFree checks the same discipline for same-size puts:
// the value is copied into the item before Put returns and nothing else
// is allocated on the way.
func TestPutInPlaceAllocFree(t *testing.T) {
	s := openAllocStore(t, 0)
	preloadKeys(s, 16)

	val := make([]byte, 8)
	avg := testing.AllocsPerRun(200, func() {
		binary.LittleEndian.PutUint64(val, 42)
		s.Put(7, val)
	})
	if avg > 1 {
		t.Fatalf("in-place put allocates %.2f times per op, want <= 1", avg)
	}
	if v, ok, _ := s.Get(7); !ok || binary.LittleEndian.Uint64(v) != 42 {
		t.Fatalf("get(7) after puts = %v, %v", v, ok)
	}
}

// TestRefreshHotSetAllocs gates the refresher, the server's one periodic
// allocator once the request path allocates nothing: a steady-state
// refresh reuses the tracker's top-k, its result slice and the entry list,
// so it allocates only the published view — the HashView, its slot array
// and the box Install publishes it in. Before the reuse a 1024-entry
// refresh allocated 39 times, about 260 KiB.
func TestRefreshHotSetAllocs(t *testing.T) {
	s := openAllocStore(t, 4096)
	const keys = 8192
	preloadKeys(s, keys)
	for i := 0; i < 100_000; i++ {
		s.Get(uint64(i % keys))
	}
	if n := s.RefreshHotSet(); n == 0 { // warm-up: sizes the scratch
		t.Fatal("hot set empty after warm-up")
	}
	avg := testing.AllocsPerRun(20, func() {
		if s.RefreshHotSet() == 0 {
			t.Fatal("refresh installed an empty view")
		}
	})
	if avg > 3 {
		t.Fatalf("RefreshHotSet allocates %.0f times, want <= 3 (the view, its slots, its box)", avg)
	}
}

// TestCallPoolingAcrossSetSplit hammers the pooled-call request path from
// many clients while the worker split is reconfigured continuously. Under
// -race this is the gate that a recycled Call is never completed twice and
// never observed by a stale waiter: any double-complete corrupts the
// pool's state machine and any stale read trips the race detector.
func TestCallPoolingAcrossSetSplit(t *testing.T) {
	s, err := Open(Config{
		Engine:    Hash,
		Workers:   4,
		CRWorkers: 1,
		HotItems:  64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	preloadKeys(s, 256)
	for i := 0; i < 512; i++ {
		s.Get(uint64(i % 8))
	}
	s.RefreshHotSet() // mixed traffic: some hits, some forwards

	const clients = 6
	const opsPerClient = 3000
	var wg sync.WaitGroup
	errCh := make(chan error, clients+1)
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			buf := make([]byte, 0, 8)
			var val [8]byte
			for i := 0; i < opsPerClient; i++ {
				k := uint64((c*opsPerClient + i) % 256)
				switch i % 4 {
				case 0, 1, 2:
					v, ok, _ := s.GetInto(k, buf)
					if !ok || binary.LittleEndian.Uint64(v) != k {
						errCh <- fmt.Errorf("client %d: get(%d) = %x, %v", c, k, v, ok)
						return
					}
					buf = v[:0]
				default:
					binary.LittleEndian.PutUint64(val[:], k)
					s.Put(k, val[:])
				}
			}
		}(c)
	}

	clientsDone := make(chan struct{})
	go func() { wg.Wait(); close(clientsDone) }()
	splitterDone := make(chan struct{})
	go func() {
		defer close(splitterDone)
		splits := []int{1, 2, 3, 2}
		for i := 0; ; i++ {
			select {
			case <-clientsDone:
				return
			default:
			}
			if err := s.SetSplit(splits[i%len(splits)]); err != nil {
				errCh <- err
				return
			}
			// Give workers time to cross the switch index so schedules stay
			// short and every transition is actually exercised.
			time.Sleep(200 * time.Microsecond)
		}
	}()
	<-clientsDone
	<-splitterDone
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// The raw async path must keep working through the churn too.
	calls := make([]*rpc.Call, 0, 64)
	for i := uint64(0); i < 64; i++ {
		c, err := s.SendAsync(rpc.Message{Op: workload.OpGet, Key: i})
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, c)
	}
	for i, c := range calls {
		c.Wait()
		if !c.Found || binary.LittleEndian.Uint64(c.Value) != uint64(i) {
			t.Fatalf("async get(%d) = %v, %v", i, c.Value, c.Found)
		}
		c.Release()
	}
}
