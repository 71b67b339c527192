package main

import (
	"math"
	"sort"
)

// tailPercentiles are the candidates the percentile rule chooses from, each
// with the share of a sample that lies beyond it, in ten-thousandths.
var tailPercentiles = []struct {
	p      float64
	beyond int
}{{0.5, 5000}, {0.9, 1000}, {0.99, 100}, {0.999, 10}, {0.9999, 1}}

// highestPercentile returns the highest candidate percentile that still has
// at least ten samples beyond it in a sample of n, and false when even the
// median has fewer: a percentile with fewer samples above it is set by a
// handful of outliers and is not worth reporting.
func highestPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, c := range tailPercentiles {
		if n*c.beyond >= 10*10_000 {
			best, ok = c.p, true
		}
	}
	return best, ok
}

// percentile is the nearest-rank percentile p (0 < p <= 1) of sorted.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// quartiles returns q1, median and q3 the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is what
// the acceptance rule for this benchmark is written in. It needs two values.
func quartiles(values []float64) (q1, med, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n == 1 {
		return v[0], v[0], v[0]
	}
	at := func(i int) float64 { // i-th of the 3 cut points
		j := min(max(i*(n+1)/4, 1), n-1)
		d := float64(i*(n+1) - j*4)
		return (v[j-1]*(4-d) + v[j]*d) / 4
	}
	return at(1), at(2), at(3)
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

// spread is the interquartile range as a share of the median.
func spread(values []float64) float64 {
	q1, m, q3 := quartiles(values)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// latencySummary is what a set of per-op latencies reduces to.
type latencySummary struct {
	N      int     `json:"samples"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`
	// Top is the highest percentile the sample supports (highestPercentile)
	// and TopUs its value; P999Us is 0 when the sample is too small for it.
	Top    float64 `json:"top_percentile"`
	TopUs  float64 `json:"top_us"`
	P999Us float64 `json:"p999_us"`
	MaxUs  float64 `json:"max_us"`
	// Set by summarizeSlices only.
	Slices      int     `json:"slices,omitempty"`
	WindowP50Us float64 `json:"window_p50_us,omitempty"`
	WindowP99Us float64 `json:"window_p99_us,omitempty"`
}

// summarizeSlices reduces a window kept as time slices. P50Us and P99Us are
// the medians over the slices of each slice's own percentile, so that one
// bad slice (a collection, a preempted thread) moves them little; every
// other field is taken over all samples together, and WindowP50Us and
// WindowP99Us say what the plain percentiles would have been.
func summarizeSlices(slices [][]int64) latencySummary {
	var all []int64
	var p50s, p99s []float64
	for _, sl := range slices {
		if len(sl) == 0 {
			continue
		}
		one := summarize(sl)
		p50s = append(p50s, one.P50Us)
		p99s = append(p99s, one.P99Us)
		all = append(all, sl...)
	}
	s := summarize(all)
	s.WindowP50Us, s.WindowP99Us = s.P50Us, s.P99Us
	if len(p50s) > 0 {
		s.Slices, s.P50Us, s.P99Us = len(p50s), median(p50s), median(p99s)
	}
	return s
}

// summarize sorts ns in place.
func summarize(ns []int64) latencySummary {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	s := latencySummary{N: len(ns)}
	if s.N == 0 {
		return s
	}
	var sum float64
	for _, v := range ns {
		sum += float64(v)
	}
	us := func(v int64) float64 { return float64(v) / 1e3 }
	s.MeanUs = sum / float64(s.N) / 1e3
	s.P50Us = us(percentile(ns, 0.5))
	s.P99Us = us(percentile(ns, 0.99))
	s.MaxUs = us(ns[s.N-1])
	if top, ok := highestPercentile(s.N); ok {
		s.Top, s.TopUs = top, us(percentile(ns, top))
		if top >= 0.999 {
			s.P999Us = us(percentile(ns, 0.999))
		}
	}
	return s
}
