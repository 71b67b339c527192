package kvcore

import (
	"testing"
	"time"

	"mutps/internal/obs"
	"mutps/internal/tuner"
)

func TestTunableBounds(t *testing.T) {
	s := openTest(t, Hash, func(c *Config) { c.Workers = 4; c.CRWorkers = 1 })
	tn := &Tunable{S: s}
	threads, ways, maxC, step := tn.Bounds()
	if threads != 4 || ways != 0 {
		t.Fatalf("bounds = %d/%d", threads, ways)
	}
	if maxC != 8192 || step != 1024 {
		t.Fatalf("cache bounds = %d/%d", maxC, step)
	}
}

func TestTunableMeasureAppliesConfig(t *testing.T) {
	s := openTest(t, Hash, func(c *Config) { c.Workers = 4; c.CRWorkers = 1; c.HotItems = 64 })
	for i := uint64(0); i < 128; i++ {
		s.Preload(i, []byte{1})
	}
	// Background traffic so Measure observes non-zero throughput.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				s.Get(uint64(i % 128))
			}
		}
	}()
	tn := &Tunable{S: s, Window: 20 * time.Millisecond, MaxCache: 128, CacheStep: 64}
	rate := tn.Measure(tuner.Config{CacheItems: 32, MRThreads: 2})
	close(stop)
	<-done
	if rate <= 0 {
		t.Fatalf("measured rate %v under live traffic", rate)
	}
	if nCR, _ := s.Split(); nCR != 2 {
		t.Fatalf("Measure must apply the split: nCR=%d", nCR)
	}
	if s.HotItems() != 32 {
		t.Fatalf("Measure must apply the hot-set target: %d", s.HotItems())
	}
}

// TestTunerEnablesCacheRefreshes: a store opened with the CR cache off
// still runs its refresher, so when the tuner turns the cache on the view
// keeps following the traffic. Apply's own refresh lands before any
// traffic and installs an empty view; only a later periodic refresh can
// make the burst below hit at the CR layer.
func TestTunerEnablesCacheRefreshes(t *testing.T) {
	if obs.Disabled {
		t.Skip("CRHits comes from the obs instruments")
	}
	s := openTest(t, Hash, func(c *Config) { c.HotItems = 0; c.RefreshInterval = 0 })
	for k := uint64(0); k < 16; k++ {
		s.Preload(k, []byte("hothotho"))
	}
	(&Tunable{S: s}).Apply(tuner.Config{CacheItems: 64, MRThreads: 1})
	for deadline := time.Now().Add(time.Second); s.Stats().CRHits == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("no CR hit 1s after the tuner enabled the cache: %+v", s.Stats())
		}
		for i := 0; i < 256; i++ {
			if _, _, err := s.Get(uint64(i % 4)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestTunableMeasureClampsSplit(t *testing.T) {
	s := openTest(t, Hash, func(c *Config) { c.Workers = 3; c.CRWorkers = 1 })
	tn := &Tunable{S: s, Window: time.Millisecond}
	// MRThreads beyond Workers-1 must clamp, not error.
	tn.Measure(tuner.Config{MRThreads: 99})
	if nCR, _ := s.Split(); nCR != 1 {
		t.Fatalf("clamped split nCR=%d, want 1", nCR)
	}
	tn.Measure(tuner.Config{MRThreads: 0})
	if nCR, _ := s.Split(); nCR != 2 {
		t.Fatalf("clamped split nCR=%d, want 2", nCR)
	}
}
