package kvcore

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mutps/internal/obs"
	"mutps/internal/rpc"
)

// slabVal is key k's value in the slab-exhaustion tests.
func slabVal(k uint64) []byte { return []byte(fmt.Sprintf("slab-%d", k)) }

// stallOnFullSlab leaves a store's CR worker waiting for a slab slot. The
// store has one CR and one MR worker and the cache off, and geom is shrunk
// to a slab of slab request contexts and batches of batch requests; keys
// 1..keys are preloaded. With key 0's stripe lock held it sends a put of
// key 0 and then gets of keys 1..keys, none awaited: the MR worker blocks
// in that put, so no batch commits and no slot recycles until release
// runs. It returns once the CR worker has forwarded a full slab and
// forwards no more. calls[0] is the put, calls[k] the get of key k.
func stallOnFullSlab(t *testing.T, slab, batch, keys int) (s *Store, calls []*rpc.Call, release func()) {
	t.Helper()
	if obs.Disabled {
		t.Skip("waits on the forwarded counter, which obs_off compiles out")
	}
	served := geom
	geom.slabSlots, geom.batch = slab, batch
	t.Cleanup(func() { geom = served })
	s = openTest(t, Hash, func(c *Config) { c.Workers, c.CRWorkers = 2, 1 })
	for k := 1; k <= keys; k++ {
		s.Preload(uint64(k), slabVal(uint64(k)))
	}
	mu := &s.keyLocks[0] // key 0's stripe
	mu.Lock()
	var once sync.Once
	release = func() { once.Do(mu.Unlock) }
	t.Cleanup(release) // before openTest's Close, which a blocked worker would hang
	c, err := s.PutAsync(0, slabVal(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	calls = append(calls, c)
	for k := 1; k <= keys; k++ {
		if c, err = s.GetAsync(uint64(k), nil, nil); err != nil {
			t.Fatal(err)
		}
		calls = append(calls, c)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.met.forwarded.Value() < uint64(slab) {
		if time.Now().After(deadline) {
			t.Fatalf("forwarded %d requests, want a full slab of %d", s.met.forwarded.Value(), slab)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if n := s.met.forwarded.Value(); n != uint64(slab) {
		t.Fatalf("forwarded %d requests through a %d-slot slab while no batch could commit", n, slab)
	}
	return s, calls, release
}

// TestSlabExhaustionRecycles drives runCR's wait-for-a-slot loop through
// its recycle path: once the MR worker commits again, the CR worker
// recycles slots and forwards the request it held and every one behind
// it, and each call completes with its value.
func TestSlabExhaustionRecycles(t *testing.T) {
	const keys = 200
	s, calls, release := stallOnFullSlab(t, 16, 4, keys)
	release()
	for k, c := range calls {
		if !c.WaitTimeout(10 * time.Second) {
			t.Fatalf("call %d still pending after the stall lifted", k)
		}
		if c.Err != nil {
			t.Fatalf("call %d: %v", k, c.Err)
		}
		if k > 0 && (!c.Found || !bytes.Equal(c.Value, slabVal(uint64(k)))) {
			t.Fatalf("get %d = %q, %v; want %q", k, c.Value, c.Found, slabVal(uint64(k)))
		}
		c.Release()
	}
	if v, ok, err := s.Get(0); err != nil || !ok || !bytes.Equal(v, slabVal(0)) {
		t.Fatalf("get 0 after the stalled put = %q, %v, %v", v, ok, err)
	}
}

// TestSlabExhaustionHardStop sets stop while the CR worker waits for a
// slot. A one-slot slab and one-request batches keep the state exact: the
// stalled put is the only batch pushed, the CR worker holds the first get,
// and no partial batch exists, so no pushed batch is left for an MR worker
// that has stopped. The held get fails with ErrClosed and failPartial
// runs; the put completes once its lock frees; Close fails every request
// nobody polled. No call stays pending and no retired item is left.
func TestSlabExhaustionHardStop(t *testing.T) {
	const keys = 16
	s, calls, release := stallOnFullSlab(t, 1, 1, keys)
	closed := func(k int) {
		t.Helper()
		if c := calls[k]; !c.WaitTimeout(10*time.Second) || !errors.Is(c.Err, rpc.ErrClosed) {
			t.Fatalf("call %d: done %v, err %v; want ErrClosed", k, c.Done(), c.Err)
		}
	}
	s.stop.Store(true)
	closed(1)
	release()
	if c := calls[0]; !c.WaitTimeout(10*time.Second) || c.Err != nil {
		t.Fatalf("stalled put: done %v, err %v; want it to complete", c.Done(), c.Err)
	}
	s.Close()
	for k := 2; k <= keys; k++ {
		closed(k)
	}
	if n := s.RetiredPending(); n != 0 {
		t.Fatalf("closed store holds %d retired items", n)
	}
}
