package kvcore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"mutps/internal/obs"
	"mutps/internal/rpc"
	"mutps/internal/workload"
)

func openTest(t *testing.T, engine Engine, mutate func(*Config)) *Store {
	t.Helper()
	cfg := Config{
		Engine:    engine,
		Workers:   4,
		CRWorkers: 2,

		RefreshInterval: -1, // deterministic hot set: tests call RefreshHotSet
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Engine: Hash, Workers: 1, CRWorkers: 1},
		{Engine: Hash, Workers: 4, CRWorkers: 0},
		{Engine: Hash, Workers: 4, CRWorkers: 4},
	} {
		if _, err := Open(cfg); err == nil {
			t.Fatalf("config %+v must be rejected", cfg)
		}
	}
}

func TestEngineString(t *testing.T) {
	if Hash.String() != "hash" || Tree.String() != "tree" {
		t.Fatal("engine names")
	}
}

func TestBasicOpsBothEngines(t *testing.T) {
	for _, engine := range []Engine{Hash, Tree} {
		t.Run(engine.String(), func(t *testing.T) {
			s := openTest(t, engine, nil)
			if _, ok, _ := s.Get(1); ok {
				t.Fatal("empty store must miss")
			}
			s.Put(1, []byte("hello"))
			v, ok, _ := s.Get(1)
			if !ok || string(v) != "hello" {
				t.Fatalf("Get = %q, %v", v, ok)
			}
			// Same-size overwrite (in-place path).
			s.Put(1, []byte("world"))
			if v, _, _ := s.Get(1); string(v) != "world" {
				t.Fatal("same-size put must replace")
			}
			// Size-changing overwrite (replacement path).
			s.Put(1, []byte("a much longer value than before"))
			if v, _, _ := s.Get(1); string(v) != "a much longer value than before" {
				t.Fatal("size-changing put must replace")
			}
			if found, _ := s.Delete(1); !found {
				t.Fatal("delete of a live key must report true")
			}
			if found, _ := s.Delete(1); found {
				t.Fatal("second delete must report false")
			}
			if _, ok, _ := s.Get(1); ok {
				t.Fatal("deleted key visible")
			}
			// Put after delete resurrects the key.
			s.Put(1, []byte("back"))
			if v, ok, _ := s.Get(1); !ok || string(v) != "back" {
				t.Fatal("put after delete must resurrect")
			}
		})
	}
}

func TestEightByteFastPath(t *testing.T) {
	s := openTest(t, Hash, nil)
	val := make([]byte, 8)
	binary.LittleEndian.PutUint64(val, 0xDEADBEEF)
	s.Put(42, val)
	got, ok, _ := s.Get(42)
	if !ok || binary.LittleEndian.Uint64(got) != 0xDEADBEEF {
		t.Fatal("8-byte value round-trip failed")
	}
}

func TestScanTreeEngine(t *testing.T) {
	s := openTest(t, Tree, nil)
	for i := uint64(0); i < 100; i += 2 {
		s.Put(i, []byte{byte(i)})
	}
	out, err := s.Scan(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Fatalf("scan returned %d", len(out))
	}
	for i, kv := range out {
		want := uint64(10 + 2*i)
		if kv.Key != want || kv.Value[0] != byte(want) {
			t.Fatalf("scan[%d] = %+v, want key %d", i, kv, want)
		}
	}
}

func TestScanHashEngineRejected(t *testing.T) {
	s := openTest(t, Hash, nil)
	if _, err := s.Scan(0, 10); err == nil {
		t.Fatal("hash engine must reject scans")
	}
}

// TestScanAsync: the async scan returns what Scan returns, in the call's
// pooled result slices, and rejects what Scan rejects before submitting.
func TestScanAsync(t *testing.T) {
	s := openTest(t, Tree, nil)
	for i := uint64(0); i < 100; i += 2 {
		s.Put(i, []byte{byte(i), byte(i >> 8)})
	}
	want, err := s.Scan(11, 7)
	if err != nil {
		t.Fatal(err)
	}
	call, err := s.ScanAsync(11, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	call.Wait()
	if call.Err != nil || len(call.ScanKeys) != len(want) || len(call.ScanVals) != len(want) {
		t.Fatalf("ScanAsync: %d keys, %d values, err %v; want %d entries",
			len(call.ScanKeys), len(call.ScanVals), call.Err, len(want))
	}
	for i, kv := range want {
		if call.ScanKeys[i] != kv.Key || !bytes.Equal(call.ScanVals[i], kv.Value) {
			t.Fatalf("entry %d = %d %x, want %d %x", i, call.ScanKeys[i], call.ScanVals[i], kv.Key, kv.Value)
		}
	}
	call.Release()

	for _, count := range []int{-1, MaxScanCount + 1} {
		if c, err := s.ScanAsync(0, count, nil); err == nil || c != nil {
			t.Errorf("ScanAsync(0, %d) = %v, %v; want a nil call and an error", count, c, err)
		}
	}
	h := openTest(t, Hash, nil)
	if c, err := h.ScanAsync(0, 1, nil); err == nil || c != nil {
		t.Errorf("hash ScanAsync = %v, %v; want a nil call and an error", c, err)
	}
}

func TestPreload(t *testing.T) {
	s := openTest(t, Tree, nil)
	for i := uint64(0); i < 1000; i++ {
		s.Preload(i, []byte{byte(i)})
	}
	if st := s.Stats(); st.Items != 1000 {
		t.Fatalf("Items = %d", st.Items)
	}
	if v, ok, _ := s.Get(999); !ok || v[0] != byte(999%256) {
		t.Fatal("preloaded item must be readable via RPC path")
	}
}

func TestHotSetServesAtCRLayer(t *testing.T) {
	s := openTest(t, Tree, func(c *Config) {
		c.HotItems = 16
	})
	for i := uint64(0); i < 100; i++ {
		s.Preload(i, []byte("valuesz8"))
	}
	// Drive traffic concentrated on key 7 so the tracker sees it.
	for i := 0; i < 120; i++ {
		s.Get(7)
	}
	if n := s.RefreshHotSet(); n == 0 {
		t.Fatal("refresh found no hot items despite traffic")
	}
	if _, ok := s.cache.Lookup(7); !ok {
		t.Fatal("key 7 must be in the hot view")
	}
	before := s.Stats()
	for i := 0; i < 100; i++ {
		if v, ok, _ := s.Get(7); !ok || string(v) != "valuesz8" {
			t.Fatal("hot get wrong")
		}
	}
	after := s.Stats()
	if after.CRHits-before.CRHits < 90 {
		t.Fatalf("hot gets not served at CR layer: %d hits", after.CRHits-before.CRHits)
	}
	// Hot put, same size: served at CR, visible everywhere.
	s.Put(7, []byte("newvals8"))
	if v, _, _ := s.Get(7); string(v) != "newvals8" {
		t.Fatal("hot put lost")
	}
	// Size-changing put on a hot key: falls through to MR, old holders
	// must converge on the new record.
	s.Put(7, []byte("a longer value now"))
	if v, _, _ := s.Get(7); string(v) != "a longer value now" {
		t.Fatal("size-changing hot put lost")
	}
	// Delete a hot key: subsequent hot lookups must miss.
	s.Delete(7)
	if _, ok, _ := s.Get(7); ok {
		t.Fatal("deleted hot key still visible")
	}
}

func TestRefreshHotSetDisabled(t *testing.T) {
	s := openTest(t, Hash, nil) // HotItems = 0
	s.Preload(1, []byte("x"))
	s.Get(1)
	if n := s.RefreshHotSet(); n != 0 {
		t.Fatalf("disabled hot set cached %d items", n)
	}
	if s.HotItems() != 0 {
		t.Fatal("HotItems should be 0")
	}
	s.SetHotItems(-5)
	if s.HotItems() != 0 {
		t.Fatal("negative target must clamp to 0")
	}
}

func TestConcurrentClients(t *testing.T) {
	s := openTest(t, Hash, func(c *Config) { c.HotItems = 32 })
	const clients, perClient, keys = 3, 700, 256
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			seed := uint64(c)*2654435761 + 99
			for i := 0; i < perClient; i++ {
				seed = seed*6364136223846793005 + 1
				k := seed % keys
				switch seed >> 62 {
				case 0, 1:
					v := make([]byte, 8)
					binary.LittleEndian.PutUint64(v, k)
					s.Put(k, v)
				case 2:
					if v, ok, _ := s.Get(k); ok {
						if binary.LittleEndian.Uint64(v) != k {
							panic(fmt.Sprintf("key %d corrupt", k))
						}
					}
				default:
					s.Delete(k)
				}
				if c == 0 && i%500 == 0 {
					s.RefreshHotSet() // exercise refresh under load
				}
			}
		}(c)
	}
	wg.Wait()
	st := s.Stats()
	if st.Ops == 0 || st.Forwarded == 0 {
		t.Fatalf("stats look dead: %+v", st)
	}
}

func TestSetSplitUnderLoad(t *testing.T) {
	s := openTest(t, Tree, func(c *Config) { c.Workers = 5; c.CRWorkers = 2 })
	for i := uint64(0); i < 256; i++ {
		s.Preload(i, []byte{byte(i)})
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 4)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			seed := uint64(c + 1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				seed = seed*48271 + 11
				k := seed % 256
				if v, ok, _ := s.Get(k); ok && v[0] != byte(k) {
					errs <- fmt.Errorf("key %d corrupt during reassignment", k)
					return
				}
			}
		}(c)
	}
	// Reassign repeatedly in both directions under load.
	for _, n := range []int{1, 3, 2} {
		if err := s.SetSplit(n); err != nil {
			t.Fatal(err)
		}
		// Generate enough traffic for the switch index to be crossed.
		for i := 0; i < 200; i++ {
			s.Get(uint64(i % 256))
		}
		nCR, nMR := s.Split()
		if nCR != n || nMR != 5-n {
			t.Fatalf("split = %d/%d, want %d/%d", nCR, nMR, n, 5-n)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

func TestSetSplitValidation(t *testing.T) {
	s := openTest(t, Hash, nil)
	if err := s.SetSplit(0); err == nil {
		t.Fatal("nCR=0 must be rejected")
	}
	if err := s.SetSplit(4); err == nil {
		t.Fatal("nCR=Workers must be rejected")
	}
	if err := s.SetSplit(2); err != nil {
		t.Fatal("no-op split must succeed")
	}
}

func TestAsyncPipeline(t *testing.T) {
	s := openTest(t, Hash, nil)
	const n = 300
	calls := make([]*rpc.Call, 0, n)
	for i := 0; i < n; i++ {
		v := make([]byte, 8)
		binary.LittleEndian.PutUint64(v, uint64(i))
		c, err := s.SendAsync(rpc.Message{
			Op: workload.OpPut, Key: uint64(i), Value: v,
		})
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, c)
	}
	for _, c := range calls {
		c.Wait()
	}
	for i := 0; i < n; i++ {
		v, ok, _ := s.Get(uint64(i))
		if !ok || binary.LittleEndian.Uint64(v) != uint64(i) {
			t.Fatalf("async put %d lost", i)
		}
	}
}

func TestLargeValuesAcrossPaths(t *testing.T) {
	s := openTest(t, Tree, nil)
	big := bytes.Repeat([]byte{0xAB}, 4096)
	s.Put(5, big)
	v, ok, _ := s.Get(5)
	if !ok || !bytes.Equal(v, big) {
		t.Fatal("4 KB value round-trip failed")
	}
	// In-place same-size update of the large value.
	big2 := bytes.Repeat([]byte{0xCD}, 4096)
	s.Put(5, big2)
	if v, _, _ := s.Get(5); !bytes.Equal(v, big2) {
		t.Fatal("large in-place update failed")
	}
}

func TestStatsAndOps(t *testing.T) {
	s := openTest(t, Hash, nil)
	before := s.Ops()
	s.Put(1, []byte("x"))
	s.Get(1)
	s.Get(2)
	if got := s.Ops() - before; got != 3 {
		t.Fatalf("ops delta = %d, want 3", got)
	}
	st := s.Stats()
	if st.Items != 1 {
		t.Fatalf("Items = %d", st.Items)
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	s, err := Open(Config{Engine: Hash, Workers: 2, CRWorkers: 1, HotItems: 16, RefreshInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s.Put(1, []byte("x"))
	s.Close()
	s.Close() // must not panic or deadlock
	if call, err := s.SendAsync(rpc.Message{Op: workload.OpGet, Key: 1}); err != rpc.ErrClosed || call != nil {
		t.Fatalf("send after Close = (%v, %v), want (nil, ErrClosed)", call, err)
	}
	if err := s.Put(2, []byte("y")); err != rpc.ErrClosed {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}
	if _, _, err := s.Get(1); err != rpc.ErrClosed {
		t.Fatalf("Get after Close = %v, want ErrClosed", err)
	}
	if err := s.SetSplit(1); err != rpc.ErrClosed {
		t.Fatalf("SetSplit after Close = %v, want ErrClosed", err)
	}
}

func TestBatchedGetsMatchSerial(t *testing.T) {
	// Tree engine batches of 8 exercise the MR layer's shared-descent
	// GetBatch path; results must match per-key gets exactly.
	s := openTest(t, Tree, nil)
	for i := uint64(0); i < 512; i += 2 {
		s.Preload(i, []byte{byte(i), byte(i >> 8)})
	}
	// Fire a pipeline of async gets so MR sees multi-request batches.
	calls := make([]*rpc.Call, 0, 256)
	keys := make([]uint64, 0, 256)
	for i := uint64(0); i < 256; i++ {
		k := (i * 7) % 512
		keys = append(keys, k)
		c, err := s.SendAsync(rpc.Message{Op: workload.OpGet, Key: k})
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, c)
	}
	for i, c := range calls {
		c.Wait()
		k := keys[i]
		wantFound := k%2 == 0
		if c.Found != wantFound {
			t.Fatalf("key %d: found=%v want %v", k, c.Found, wantFound)
		}
		if c.Found && (c.Value[0] != byte(k) || c.Value[1] != byte(k>>8)) {
			t.Fatalf("key %d: wrong value %v", k, c.Value)
		}
	}
}

func TestDeleteVisibleToBatchedGets(t *testing.T) {
	s := openTest(t, Tree, nil)
	for i := uint64(0); i < 64; i++ {
		s.Preload(i, []byte{1})
	}
	s.Delete(9)
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
		if uint64(i) == 9 && c.Found {
			t.Fatal("deleted key visible via batched get")
		}
		if uint64(i) != 9 && !c.Found {
			t.Fatalf("live key %d missing via batched get", i)
		}
	}
}

// TestScanNegativeCount: a negative count is rejected at the facade, and a
// raw SendAsync that carries one scans nothing — it used to pass the
// "> MaxScanCount" check and wrap through uint16 into a 65 535-entry scan.
func TestScanNegativeCount(t *testing.T) {
	s := openTest(t, Tree, nil)
	for i := uint64(0); i < 32; i++ {
		s.Preload(i, []byte("v"))
	}
	if kvs, err := s.Scan(0, -1); err == nil {
		t.Fatalf("Scan(0, -1) returned %d entries, want an error", len(kvs))
	}
	call, err := s.SendAsync(rpc.Message{Op: workload.OpScan, Key: 0, ScanCount: -1})
	if err != nil {
		t.Fatal(err)
	}
	call.Wait()
	defer call.Release()
	if call.Err != nil || len(call.ScanKeys) != 0 {
		t.Fatalf("raw scan with count -1: %d entries, err %v; want none", len(call.ScanKeys), call.Err)
	}
}

// TestSyncOpsRecordLatency: every synchronous op runs the one round-trip
// body, so each feeds mutps_op_latency under its op type exactly once.
// (GetTTL used to feed nothing.)
func TestSyncOpsRecordLatency(t *testing.T) {
	if obs.Disabled {
		t.Skip("latency histograms are compiled out")
	}
	s := openTest(t, Tree, nil)
	s.Preload(1, []byte("v"))
	buf := make([]byte, 0, 8)
	for _, tc := range []struct {
		name string
		op   workload.OpType
		do   func() error
	}{
		{"Get", workload.OpGet, func() error { _, _, err := s.Get(1); return err }},
		{"GetInto", workload.OpGet, func() error { _, _, err := s.GetInto(1, buf); return err }},
		{"GetTTL", workload.OpGet, func() error { _, _, _, err := s.GetTTL(1); return err }},
		{"Put", workload.OpPut, func() error { return s.Put(2, []byte("w")) }},
		{"PutTTL", workload.OpPut, func() error { return s.PutTTL(3, []byte("w"), time.Minute) }},
		{"Delete", workload.OpDelete, func() error { _, err := s.Delete(2); return err }},
		{"Scan", workload.OpScan, func() error { _, err := s.Scan(0, 4); return err }},
	} {
		before := s.met.lat[tc.op].Snapshot().Count
		if err := tc.do(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := s.met.lat[tc.op].Snapshot().Count - before; got != 1 {
			t.Errorf("%s recorded %d latency samples under op %d, want 1", tc.name, got, tc.op)
		}
	}
}
