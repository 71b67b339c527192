package tuner

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTrisectMaxFindsUnimodalPeak(t *testing.T) {
	for peak := 0; peak <= 30; peak++ {
		peak := peak
		f := func(x int) float64 { return -math.Abs(float64(x - peak)) }
		got, _ := TrisectMax(0, 30, f)
		if got != peak {
			t.Fatalf("peak %d: TrisectMax found %d", peak, got)
		}
	}
}

func TestTrisectMaxFlatAndTinyRanges(t *testing.T) {
	got, probes := TrisectMax(5, 5, func(int) float64 { return 1 })
	if got != 5 || probes != 1 {
		t.Fatalf("singleton range: got %d probes %d", got, probes)
	}
	got, _ = TrisectMax(3, 4, func(x int) float64 { return float64(x) })
	if got != 4 {
		t.Fatalf("two-point range: got %d", got)
	}
	// Flat function: any answer in range is fine.
	got, _ = TrisectMax(0, 10, func(int) float64 { return 7 })
	if got < 0 || got > 10 {
		t.Fatalf("flat function answer %d out of range", got)
	}
}

func TestTrisectMaxPanicsOnEmptyRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TrisectMax(2, 1, func(int) float64 { return 0 })
}

func TestTrisectFewerProbesThanExhaustive(t *testing.T) {
	const hi = 1000
	f := func(x int) float64 { return -float64(x-700) * float64(x-700) }
	_, probes := TrisectMax(0, hi, f)
	if probes >= hi/2 {
		t.Fatalf("trisection used %d probes over a %d-point space", probes, hi+1)
	}
}

func TestTrisectMaxPropertyUnimodal(t *testing.T) {
	f := func(peakRaw uint16, spanRaw uint8) bool {
		span := int(spanRaw%100) + 1
		peak := int(peakRaw) % (span + 1)
		fn := func(x int) float64 {
			d := float64(x - peak)
			return 1000 - d*d
		}
		got, _ := TrisectMax(0, span, fn)
		return got == peak
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// fakeSystem models the paper's landscape: throughput unimodal in the
// thread split and in MR ways, with a cache-size interaction that shifts
// the ideal split.
type fakeSystem struct {
	measures int
}

func (f *fakeSystem) Bounds() (int, int, int, int) { return 28, 12, 10000, 1000 }

func (f *fakeSystem) Measure(c Config) float64 {
	f.measures++
	idealMR := 20.0 - 8.0*float64(c.CacheItems)/10000.0 // more cache → fewer MR threads
	split := -0.5 * math.Pow(float64(c.MRThreads)-idealMR, 2)
	cache := -math.Abs(float64(c.CacheItems)-6000.0) / 1000.0
	ways := -0.3 * math.Pow(float64(c.MRWays)-9, 2)
	return 100 + split + cache + ways
}

func TestOptimizeFindsGoodConfig(t *testing.T) {
	sys := &fakeSystem{}
	res := Optimize(sys)
	if res.Best.CacheItems != 6000 {
		t.Fatalf("cache items = %d, want 6000", res.Best.CacheItems)
	}
	wantMR := 20 - 8*6000/10000 // 15.2 → 15 or 16
	if res.Best.MRThreads < wantMR-1 || res.Best.MRThreads > wantMR+1 {
		t.Fatalf("MR threads = %d, want ≈%d", res.Best.MRThreads, wantMR)
	}
	if res.Best.MRWays != 9 {
		t.Fatalf("MR ways = %d, want 9", res.Best.MRWays)
	}
	if res.Probes != sys.measures {
		t.Fatalf("probe accounting: %d vs %d", res.Probes, sys.measures)
	}
}

type tinySystem struct{}

func (tinySystem) Bounds() (int, int, int, int) { return 1, 2, 0, 0 }
func (tinySystem) Measure(Config) float64       { return 42 }

func TestOptimizeDegenerateSystem(t *testing.T) {
	res := Optimize(tinySystem{})
	if res.Score != 42 || res.Probes != 1 {
		t.Fatalf("degenerate optimize: %+v", res)
	}
}
