package kvcore

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"mutps/internal/cuckoo"
	"mutps/internal/seqitem"
)

// TestBytesPerItem is the memory-resident layer's density gate: 100k items
// of uniform 64–512 B values (uniform_mix's shape) may hold at most 1.12×
// their value bytes in arena slots, an item header fits one 64-byte cache
// line, and the items and their index entries add at most 0.1 heap objects
// per item — headers and slots come in chunks, and the index keeps keys
// and item pointers inline in its buckets. With -v it prints the per-item
// ledger.
func TestBytesPerItem(t *testing.T) {
	const keys = 100_000
	s := openAllocStore(t, 0)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rng := rand.New(rand.NewSource(34))
	val := make([]byte, 512)
	var valueBytes uint64
	for k := uint64(0); k < keys; k++ {
		n := 64 + rng.Intn(512-64+1)
		binary.LittleEndian.PutUint64(val, k)
		s.Preload(k, val[:n])
		valueBytes += uint64(n)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	objects := float64(after.HeapObjects) - float64(before.HeapObjects)
	slotBytes := uint64(s.Metrics().SnapshotMap()["mutps_arena_live_bytes"])
	header := unsafe.Sizeof(seqitem.Item{})
	// An index slot is an inline 8 B key and 8 B item pointer.
	indexBytes := s.idx.(*cuckoo.Map[*seqitem.Item]).Capacity() * 16
	t.Logf("per item: %.1f B value, %.1f B slot (%.3fx), %d B header, %.1f B index, %.3f heap objects",
		float64(valueBytes)/keys, float64(slotBytes)/keys, float64(slotBytes)/float64(valueBytes), header,
		float64(indexBytes)/keys, objects/keys)
	if limit := valueBytes * 112 / 100; slotBytes > limit {
		t.Errorf("arena holds %d B for %d B of values (%.3fx), want at most 1.12x",
			slotBytes, valueBytes, float64(slotBytes)/float64(valueBytes))
	}
	if header > 64 {
		t.Errorf("item header is %d B, want at most one 64 B cache line", header)
	}
	if objects > 0.1*keys {
		t.Errorf("%d items added %.0f heap objects (%.3f per item), want at most 0.1 per item",
			keys, objects, objects/keys)
	}
}

// TestPutSameClassAllocFree locks in this PR's tentpole: a size-changing
// put whose old and new values share an arena size class is an item
// *replacement* — new item, index pointer swap, old item retired through
// the epoch protocol — and after warm-up the whole cycle performs zero
// heap allocations: header and slot come back from the worker pool as
// retired predecessors clear their grace periods.
func TestPutSameClassAllocFree(t *testing.T) {
	s := openAllocStore(t, 0)
	preloadKeys(s, 16)

	v24 := make([]byte, 24)
	v28 := make([]byte, 28)
	binary.LittleEndian.PutUint64(v24, 7)
	binary.LittleEndian.PutUint64(v28, 7)
	flip := false
	put := func() {
		v := v24
		if flip {
			v = v28
		}
		flip = !flip
		if err := s.Put(7, v); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up: grow the retire queues and pools to steady state and let
	// the first reclaim passes recycle the backlog.
	for i := 0; i < 4*reclaimEvery; i++ {
		put()
	}
	avg := testing.AllocsPerRun(300, put)
	if avg != 0 && !raceEnabled {
		t.Fatalf("same-class replacement put allocates %.2f times per op, want 0", avg)
	}
	if v, ok, _ := s.Get(7); !ok || binary.LittleEndian.Uint64(v) != 7 {
		t.Fatalf("get(7) after churn = %x, %v", v, ok)
	}
}

// TestScanAllocFree gates the scan satellite: on the async path the wire
// server uses (ScanAsync) a warmed-up scan allocates nothing — keys,
// values, and value bytes all land in the call's pooled result buffers
// (ScanKeys/ScanVals/ScanBuf).
func TestScanAllocFree(t *testing.T) {
	s, err := Open(Config{
		Engine:    Tree,
		Workers:   3,
		CRWorkers: 1,
		HotItems:  0,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	preloadKeys(s, 128)

	scan := func() {
		call, err := s.ScanAsync(10, 50, nil)
		if err != nil {
			t.Fatal(err)
		}
		call.Wait()
		if call.Err != nil || len(call.ScanKeys) != 50 {
			t.Fatalf("scan: %v, %d keys", call.Err, len(call.ScanKeys))
		}
		if k0 := call.ScanKeys[0]; k0 != 10 {
			t.Fatalf("scan starts at %d", k0)
		}
		if v0 := binary.LittleEndian.Uint64(call.ScanVals[0]); v0 != 10 {
			t.Fatalf("scan value[0] = %d", v0)
		}
		call.Release()
	}
	for i := 0; i < 32; i++ { // warm call pool, result buffers, MR scratch
		scan()
	}
	avg := testing.AllocsPerRun(200, scan)
	if avg != 0 && !raceEnabled {
		t.Fatalf("warmed-up scan allocates %.2f times per op, want 0", avg)
	}
}

// TestEpochReclamationStress churns size-changing puts and deletes under
// concurrent readers and a continuously refreshing hot set. Every written
// value encodes its key in the first 8 bytes, and every read verifies it:
// a slot recycled before its grace periods elapse shows up as a value
// that decodes to the wrong key — corruption -race cannot see, because
// item words are atomics. The plain header fields rewritten by pool reuse
// (size, words) give -race real teeth on top. CI runs this with -race.
func TestEpochReclamationStress(t *testing.T) {
	s, err := Open(Config{
		Engine:    Hash,
		Workers:   3,
		CRWorkers: 1,
		HotItems:  48,
	})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 64
	sizes := []int{16, 24, 32, 40} // classes 16/32/32/48: mixes reuse and class hops
	mkval := func(k uint64, sz int) []byte {
		v := make([]byte, sz)
		binary.LittleEndian.PutUint64(v, k)
		return v
	}
	for k := uint64(0); k < keys; k++ {
		s.Preload(k, mkval(k, sizes[k%uint64(len(sizes))]))
	}

	const writers, readers = 2, 2
	writerOps, readerOps := 4000, 6000
	if testing.Short() {
		writerOps, readerOps = 800, 1200
	}
	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers)
	stopRefresh := make(chan struct{})

	// The workload runs until its op counts are done and the hot set has
	// been superseded a few times under it: the requests alone finish in
	// milliseconds, before a refresh or two would have happened.
	const minRefreshes = 8
	var refreshes atomic.Int64
	go func() {
		for {
			select {
			case <-stopRefresh:
				return
			default:
				s.RefreshHotSet()
				refreshes.Add(1)
				// Throttle: a hot refresh loop (CMS snapshot each pass)
				// would monopolize a single-CPU runner.
				time.Sleep(500 * time.Microsecond)
			}
		}
	}()

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w)*0x9E3779B97F4A7C15 + 1
			for i := 0; i < writerOps || refreshes.Load() < minRefreshes; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				k := rng % keys
				switch {
				case i%97 == 96:
					if _, err := s.Delete(k); err != nil {
						errCh <- err
						return
					}
					if err := s.Put(k, mkval(k, sizes[i%len(sizes)])); err != nil {
						errCh <- err
						return
					}
				default:
					if err := s.Put(k, mkval(k, sizes[(i+w)%len(sizes)])); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := make([]byte, 0, 64)
			rng := uint64(r)*0xDEADBEEF + 7
			for i := 0; i < readerOps || refreshes.Load() < minRefreshes; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				k := rng % keys
				v, ok, err := s.GetInto(k, buf)
				if err != nil {
					errCh <- err
					return
				}
				if ok {
					if len(v) < 8 {
						errCh <- fmt.Errorf("get(%d): %d-byte value", k, len(v))
						return
					}
					if got := binary.LittleEndian.Uint64(v); got != k {
						errCh <- fmt.Errorf("get(%d) decoded key %d: recycled slot read", k, got)
						return
					}
				}
				buf = v[:0]
			}
		}(r)
	}
	wg.Wait()
	close(stopRefresh)
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if refreshes.Load() == 0 {
		t.Error("refresher never ran: view-gated reclamation not exercised")
	}
	retired := s.met.retired.Value()
	if retired == 0 {
		t.Error("no items were retired: stress did not exercise reclamation")
	}
	s.Close()
	if pend := s.RetiredPending(); pend != 0 {
		t.Errorf("%d retirements still pending after Close", pend)
	}
	if rec := s.met.recycled.Value(); rec != retired {
		t.Errorf("retired %d != recycled %d after Close", retired, rec)
	}
}
