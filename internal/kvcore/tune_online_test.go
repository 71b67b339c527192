package kvcore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mutps/internal/tuner"
)

// TestOnlineRetuneUnderLoad is the no-downtime guarantee test: full
// tuner searches (SetSplit reassignments + hot-set resizes + view
// reinstalls) run while client goroutines hammer the store, and every
// read must remain byte-for-byte correct throughout. Values encode
// their key in every byte and alternate between two lengths, so a
// torn/stale/crossed read is detected at the byte level, and both the
// in-place write path and the item-replacement path stay exercised
// across reconfigurations. Run with -race in CI.
func TestOnlineRetuneUnderLoad(t *testing.T) {
	s := openTest(t, Hash, func(c *Config) {
		c.Workers = 4
		c.CRWorkers = 2
		c.HotItems = 64
	})
	const nKeys = 256
	sizes := [2]int{16, 48} // same key flips between sizes: replacement path
	pattern := func(key uint64, size int) []byte {
		b := make([]byte, size)
		for i := range b {
			b[i] = byte(key)
		}
		return b
	}
	for k := uint64(0); k < nKeys; k++ {
		s.Preload(k, pattern(k, sizes[k%2]))
	}

	var stop atomic.Bool
	var oracleErr atomic.Value
	fail := func(format string, args ...any) {
		oracleErr.CompareAndSwap(nil, fmt.Sprintf(format, args...))
		stop.Store(true)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 0, 64)
			for i := 0; !stop.Load(); i++ {
				key := uint64((g*131 + i) % nKeys)
				if i%4 == 3 {
					if err := s.Put(key, pattern(key, sizes[(i/4)%2])); err != nil {
						fail("put %d: %v", key, err)
						return
					}
					continue
				}
				v, found, err := s.GetInto(key, buf[:0])
				if err != nil {
					fail("get %d: %v", key, err)
					return
				}
				if !found {
					fail("get %d: vanished mid-retune", key)
					return
				}
				if len(v) != sizes[0] && len(v) != sizes[1] {
					fail("get %d: impossible length %d", key, len(v))
					return
				}
				for j, b := range v {
					if b != byte(key) {
						fail("get %d: byte %d = %#x, want %#x (torn or crossed read)",
							key, j, b, byte(key))
						return
					}
				}
			}
		}(g)
	}

	// Online retuning mid-traffic: the real controller plumbing (Tunable →
	// Optimize → SetSplit/SetHotItems/RefreshHotSet), forced several times
	// so every probe reconfigures a store under full load.
	tn := &Tunable{S: s, Window: 2 * time.Millisecond, MaxCache: 128, CacheStep: 64}
	ctl := tuner.NewController(tn, tuner.ControllerConfig{Rate: s.Ops})
	deadline := time.Now().Add(2 * time.Second)
	retunes := 0
	for time.Now().Before(deadline) && retunes < 3 && !stop.Load() {
		ctl.Retune()
		retunes++
		// Also force the extremes the search may not linger on.
		tn.Apply(tuner.Config{CacheItems: 0, MRThreads: 3})
		time.Sleep(5 * time.Millisecond)
		tn.Apply(tuner.Config{CacheItems: 128, MRThreads: 1})
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if msg, ok := oracleErr.Load().(string); ok {
		t.Fatal(msg)
	}
	if retunes == 0 {
		t.Fatal("no retune completed")
	}
	// The store still serves after the dust settles.
	for k := uint64(0); k < nKeys; k++ {
		v, found, err := s.Get(k)
		if err != nil || !found {
			t.Fatalf("post-retune get %d: found=%v err=%v", k, found, err)
		}
		for j, b := range v {
			if b != byte(k) {
				t.Fatalf("post-retune get %d: byte %d = %#x", k, j, b)
			}
		}
	}
}

// TestRetuneIdleThenTraffic retunes a store that is carrying no traffic at
// all — the controller's probe burst fires many SetSplit reconfigurations
// while the RPC ring's ticket stands still, so every probe phase lands on
// the same switch index — and then checks that traffic resuming afterwards
// completes. This wedged before the RPC ring re-derived slot ownership on
// every poll: a worker activated under a superseded probe phase kept a
// stale claim on a future slot, stole it from its rightful owner when
// traffic resumed, and the owner (plus the client whose request landed on
// the owner's next slot) hung forever. See also the rpc package's
// TestReconfigureBurstNoTraffic for the protocol-level version.
func TestRetuneIdleThenTraffic(t *testing.T) {
	s := openTest(t, Hash, func(c *Config) {
		c.Workers = 4
		c.CRWorkers = 2
		c.HotItems = 64
	})
	const nKeys = 2048
	val := make([]byte, 64)
	for k := uint64(0); k < nKeys; k++ {
		s.Preload(k, val)
	}
	for i := 0; i < 1000; i++ { // park cursors mid-ring
		if _, _, err := s.Get(uint64(i) % nKeys); err != nil {
			t.Fatal(err)
		}
	}
	tn := &Tunable{S: s, Window: time.Millisecond, MaxCache: 128, CacheStep: 64}
	// Retune is operator-forced, so it searches although the store is idle:
	// the reconfiguration burst is Optimize's own probes.
	ctl := tuner.NewController(tn, tuner.ControllerConfig{Rate: s.Ops})
	for round := 0; round < 3; round++ {
		ctl.Retune() // zero traffic: every probe shares one switch index
		done := make(chan error, 1)
		go func() {
			for k := uint64(0); k < nKeys; k++ {
				if _, _, err := s.Get(k); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: gets wedged after idle retune (cfg %+v)", round, tn.Current())
		}
	}
}
