package bench

import (
	"fmt"
	"io"

	"mutps/internal/simkv"
	"mutps/internal/tuner"
	"mutps/internal/workload"
)

// TunerAblation compares the paper's trisecting search against exhaustive
// search: both must land on configurations of equivalent quality, with the
// trisection using far fewer probes (the design-choice ablation DESIGN.md
// calls out).
type TunerAblation struct {
	TrisectScore  float64
	TrisectProbes int
	ExhaustScore  float64
	ExhaustProbes int
}

// RunTunerAblation runs both searches on identical fresh systems.
func RunTunerAblation(s Scale, w io.Writer) TunerAblation {
	mk := func() *simkv.Tunable {
		cfg := workload.Config{Keys: s.Keys, Theta: 0.99,
			Mix: workload.MixYCSBA, ValueSize: workload.FixedSize(64), Seed: s.Seed}
		p := s.params(true, 64)
		sys := simkv.NewSystem(p, simkv.ArchMuTPS, workload.NewGenerator(cfg))
		return &simkv.Tunable{S: sys, MaxCache: s.HotItems, CacheStep: s.HotItems / 2, Window: s.Ops / 4}
	}
	tri := tuner.Optimize(mk())
	exh := optimizeExhaustive(mk())
	out := TunerAblation{
		TrisectScore:  tri.Score,
		TrisectProbes: tri.Probes,
		ExhaustScore:  exh.Score,
		ExhaustProbes: exh.Probes,
	}
	fmt.Fprintf(w, "Tuner ablation: trisect %.1f Mops in %d probes vs exhaustive %.1f Mops in %d probes\n",
		out.TrisectScore, out.TrisectProbes, out.ExhaustScore, out.ExhaustProbes)
	return out
}

// optimizeExhaustive searches the same space as tuner.Optimize without
// trisection — the ablation baseline demonstrating the probe-count savings
// of the paper's search (it must find a configuration at least as good, at
// higher cost).
func optimizeExhaustive(sys tuner.Reconfigurable) tuner.Result {
	threads, ways, maxCache, step := sys.Bounds()
	if step <= 0 {
		step = 1000
	}
	var res tuner.Result
	bestScore := -1.0
	for k := 0; k <= maxCache; k += step {
		for mr := 1; mr <= threads-1 || (threads < 2 && mr == 1); mr++ {
			score := sys.Measure(tuner.Config{CacheItems: k, MRThreads: mr, MRWays: ways})
			res.Probes++
			if score > bestScore {
				bestScore = score
				res.Best = tuner.Config{CacheItems: k, MRThreads: mr, MRWays: ways}
			}
			if threads < 2 {
				break
			}
		}
	}
	for w := 0; w <= ways; w++ {
		c := res.Best
		c.MRWays = w
		score := sys.Measure(c)
		res.Probes++
		if score > bestScore {
			bestScore = score
			res.Best = c
		}
	}
	res.Score = sys.Measure(res.Best)
	res.Probes++
	return res
}

// Experiments maps experiment IDs (as used by cmd/mutps-bench -fig) to
// runners, in paper order.
func Experiments() []struct {
	ID  string
	Run func(Scale, io.Writer)
} {
	return []struct {
		ID  string
		Run func(Scale, io.Writer)
	}{
		{"2a", func(s Scale, w io.Writer) { RunFig2a(s, w) }},
		{"2b", func(s Scale, w io.Writer) { RunFig2b(s, w) }},
		{"2c", func(s Scale, w io.Writer) { RunFig2c(s, w) }},
		{"tab1", func(s Scale, w io.Writer) { RunTab1(s, w) }},
		{"7", func(s Scale, w io.Writer) { RunFig7(s, w, nil) }},
		{"8a", func(s Scale, w io.Writer) { RunFig8a(s, w) }},
		{"8bc", func(s Scale, w io.Writer) { RunFig8bc(s, w) }},
		{"9", func(s Scale, w io.Writer) { RunFig9(s, w) }},
		{"10", func(s Scale, w io.Writer) { RunFig10(s, w) }},
		{"11", func(s Scale, w io.Writer) { RunFig11(s, w) }},
		{"12", func(s Scale, w io.Writer) { RunFig12(s, w) }},
		{"13a", func(s Scale, w io.Writer) { RunFig13a(s, w) }},
		{"13b", func(s Scale, w io.Writer) { RunFig13b(s, w) }},
		{"13c", func(s Scale, w io.Writer) { RunFig13c(s, w) }},
		{"14", func(s Scale, w io.Writer) { RunFig14(s, w) }},
		{"tuner-ablation", func(s Scale, w io.Writer) { RunTunerAblation(s, w) }},
	}
}
