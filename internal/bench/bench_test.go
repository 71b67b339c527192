package bench

import (
	"io"
	"math"
	"os"
	"testing"

	"mutps/internal/tuner"
)

// The shape assertions here are the per-experiment acceptance criteria
// recorded in EXPERIMENTS.md: relative orderings and rough factors, never
// absolute numbers.

func quiet() io.Writer {
	if testing.Verbose() {
		return os.Stdout
	}
	return io.Discard
}

func TestFig2aShapes(t *testing.T) {
	s := QuickScale()
	rows := RunFig2a(s, quiet())
	if len(rows) != 4 {
		t.Fatalf("want 4 item sizes, got %d", len(rows))
	}
	for _, r := range rows {
		if r.TPSMops <= r.TPQMops {
			t.Errorf("%dB: TPS (%.1f) must beat TPQ (%.1f)", r.ItemSize, r.TPSMops, r.TPQMops)
		}
		// CAT-only partitioning must not explain away the TPS gain. At
		// 1 KB the experiment is stage-2 bound and the two converge (the
		// paper also shows CAT closing part of the gap at large items), so
		// allow a small tolerance there.
		tol := 1.0
		if r.ItemSize >= 1024 {
			tol = 1.06
		}
		if r.TPQCATMops >= r.TPSMops*tol {
			t.Errorf("%dB: CAT partitioning (%.1f) must not reach TPS (%.1f)",
				r.ItemSize, r.TPQCATMops, r.TPSMops)
		}
		// PCM observation: stage-1 miss rate far below the RTC pool's.
		if r.Stage1Miss >= r.TPQMiss/2 {
			t.Errorf("%dB: stage-1 miss %.0f%% should be well under TPQ's %.0f%%",
				r.ItemSize, 100*r.Stage1Miss, 100*r.TPQMiss)
		}
	}
}

func TestFig2bHotspotSeparationHelps(t *testing.T) {
	s := QuickScale()
	rows := RunFig2b(s, quiet())
	for _, r := range rows {
		if r.SeparateMops <= r.BaselineMops {
			t.Errorf("zipf %.2f: separation (%.1f) must beat unified (%.1f)",
				r.Theta, r.SeparateMops, r.BaselineMops)
		}
	}
}

func TestFig2cSEvsSNTradeoff(t *testing.T) {
	s := QuickScale()
	pts := RunFig2c(s, quiet())
	if len(pts) < 3 {
		t.Fatalf("need several thread counts, got %d", len(pts))
	}
	first, last := pts[0], pts[len(pts)-1]
	// SE per-worker efficiency must fall with scale (the collapse trend).
	if last.SEMops/float64(last.Workers) >= first.SEMops/float64(first.Workers) {
		t.Error("SE per-worker efficiency should degrade with more workers")
	}
	// At full width the TPS arrangement must beat SE.
	if last.TPSMops <= last.SEMops {
		t.Errorf("TPS (%.1f) must beat SE (%.1f) at %d workers",
			last.TPSMops, last.SEMops, last.Workers)
	}
}

func TestTab1MatchesPaper(t *testing.T) {
	s := QuickScale()
	rows := RunTab1(s, quiet())
	if len(rows) != 3 {
		t.Fatalf("want 3 clusters")
	}
	for _, r := range rows {
		if math.Abs(r.GotPut-r.WantPut) > 0.02 {
			t.Errorf("%s: put ratio %.2f vs wanted %.2f", r.Name, r.GotPut, r.WantPut)
		}
		if r.GotPut > 0 && math.Abs(r.GotAvgVal-float64(r.WantAvgVal)) > 1 {
			t.Errorf("%s: avg value %.0f vs wanted %d", r.Name, r.GotAvgVal, r.WantAvgVal)
		}
	}
}

func TestFig7KeyShapes(t *testing.T) {
	s := QuickScale()
	// Restrict to two item sizes to keep the grid fast; the cmd tool runs
	// the full four.
	cells := RunFig7(s, quiet(), []int{8, 256})
	get := func(tree bool, mix string, size int) Fig7Cell {
		for _, c := range cells {
			if c.Tree == tree && c.Mix == mix && c.ItemSize == size {
				return c
			}
		}
		t.Fatalf("cell %v/%s/%d missing", tree, mix, size)
		return Fig7Cell{}
	}
	// Read-intensive skewed tree: μTPS wins clearly.
	for _, mix := range []string{"YCSB-B", "YCSB-C"} {
		c := get(true, mix, 256)
		if c.MuTPS <= c.BaseKV {
			t.Errorf("tree/%s/256B: μTPS %.1f must beat BaseKV %.1f", mix, c.MuTPS, c.BaseKV)
		}
		if c.ERPCKV >= c.MuTPS {
			t.Errorf("tree/%s/256B: eRPC %.1f must trail μTPS %.1f under skew", mix, c.ERPCKV, c.MuTPS)
		}
		if c.Passive >= c.MuTPS {
			t.Errorf("tree/%s/256B: passive %.1f must trail μTPS %.1f", mix, c.Passive, c.MuTPS)
		}
	}
	// Uniform small-item hash: gains are modest; eRPC is competitive.
	c := get(false, "GET-U", 8)
	if c.MuTPS < c.BaseKV*0.9 {
		t.Errorf("hash/GET-U/8B: μTPS %.1f should at least match BaseKV %.1f", c.MuTPS, c.BaseKV)
	}
	if c.ERPCKV < c.BaseKV {
		t.Errorf("hash/GET-U/8B: eRPC %.1f should beat BaseKV %.1f", c.ERPCKV, c.BaseKV)
	}
	// Write-intensive skewed hash: BaseKV contention makes μTPS's lead big.
	c = get(false, "PUT-S", 256)
	if c.MuTPS <= c.BaseKV {
		t.Errorf("hash/PUT-S/256B: μTPS %.1f must beat BaseKV %.1f", c.MuTPS, c.BaseKV)
	}
	// μTPS's overall speedup band over BaseKV: within the paper's 1.03–5.46×
	// envelope (allowing a little slack below on uniform cells).
	for _, cell := range cells {
		ratio := cell.MuTPS / cell.BaseKV
		if ratio < 0.9 || ratio > 7 {
			t.Errorf("%v/%s/%dB: speedup %.2fx outside plausible envelope",
				cell.Tree, cell.Mix, cell.ItemSize, ratio)
		}
	}
}

func TestFig8aScanShapes(t *testing.T) {
	s := QuickScale()
	rows := RunFig8a(s, quiet())
	for _, r := range rows {
		if r.MuTPST <= r.BaseKV {
			t.Errorf("%s: μTPS-T %.1f must beat BaseKV %.1f", r.Workload, r.MuTPST, r.BaseKV)
		}
		if r.MuTPST <= r.ERPCKV {
			t.Errorf("%s: μTPS-T %.1f must beat eRPCKV %.1f", r.Workload, r.MuTPST, r.ERPCKV)
		}
	}
}

func TestFig8bcETCShapes(t *testing.T) {
	s := QuickScale()
	rows := RunFig8bc(s, quiet())
	for _, r := range rows {
		if r.MuTPST <= r.BaseKV {
			t.Errorf("ETC %.0f%% gets: μTPS-T %.1f must beat BaseKV %.1f",
				100*r.GetRatio, r.MuTPST, r.BaseKV)
		}
		if r.MuTPST <= r.ERPCKV {
			t.Errorf("ETC %.0f%% gets: μTPS-T %.1f must beat eRPCKV %.1f",
				100*r.GetRatio, r.MuTPST, r.ERPCKV)
		}
	}
}

func TestFig9TwitterShapes(t *testing.T) {
	s := QuickScale()
	rows := RunFig9(s, quiet())
	byName := map[string]Fig9Row{}
	for _, r := range rows {
		byName[r.Cluster] = r
	}
	// Skewed clusters: μTPS wins over BaseKV.
	for _, n := range []string{"Cluster-12", "Cluster-19"} {
		r := byName[n]
		if r.MuTPST <= r.BaseKV {
			t.Errorf("%s: μTPS-T %.1f must beat BaseKV %.1f", n, r.MuTPST, r.BaseKV)
		}
	}
	// Uniform write-dominant Cluster-31: roughly a tie (paper: +0.1%).
	r := byName["Cluster-31"]
	if r.MuTPST < r.BaseKV*0.85 {
		t.Errorf("Cluster-31: μTPS-T %.1f should be near BaseKV %.1f", r.MuTPST, r.BaseKV)
	}
	// Read-intensive Cluster-19: μTPS beats eRPC. (On the write-dominant
	// clusters 12/31 our lock-free shared-nothing model is stronger than
	// the paper's eRPCKV measurement — a documented deviation in
	// EXPERIMENTS.md.)
	if r := byName["Cluster-19"]; r.MuTPST <= r.ERPCKV {
		t.Errorf("Cluster-19: μTPS-T %.1f must beat eRPCKV %.1f", r.MuTPST, r.ERPCKV)
	}
}

func TestFig10LatencyShapes(t *testing.T) {
	s := QuickScale()
	s.LatOps = 3000
	pts := RunFig10(s, quiet())
	// Throughput grows with clients for each system; P99 >= P50 always.
	byKey := map[string][]Fig10Point{}
	for _, p := range pts {
		k := p.System
		if p.Tree {
			k += "/tree"
		}
		byKey[k] = append(byKey[k], p)
		if p.P99Usec < p.P50Usec {
			t.Errorf("%s @%d clients: P99 %.2f < P50 %.2f", p.System, p.Clients, p.P99Usec, p.P50Usec)
		}
		if p.P50Usec < 2.0 {
			t.Errorf("%s @%d clients: latency below network RTT", p.System, p.Clients)
		}
	}
	for k, series := range byKey {
		if series[len(series)-1].Mops <= series[0].Mops {
			t.Errorf("%s: throughput should grow from %d to %d clients",
				k, series[0].Clients, series[len(series)-1].Clients)
		}
	}
}

func TestFig11ScalabilityShapes(t *testing.T) {
	s := QuickScale()
	pts := RunFig11(s, quiet())
	// At the largest worker count, μTPS leads BaseKV on both engines for
	// 256B; μTPS must scale (last > first).
	type key struct {
		tree bool
		size int
	}
	series := map[key][]Fig11Point{}
	for _, p := range pts {
		k := key{p.Tree, p.ItemSize}
		series[k] = append(series[k], p)
	}
	for k, ps := range series {
		first, last := ps[0], ps[len(ps)-1]
		if last.MuTPS <= first.MuTPS {
			t.Errorf("%v: μTPS must scale with workers (%.1f → %.1f)", k, first.MuTPS, last.MuTPS)
		}
		if k.size == 256 && last.MuTPS <= last.BaseKV {
			t.Errorf("%v: μTPS %.1f must lead BaseKV %.1f at full width", k, last.MuTPS, last.BaseKV)
		}
	}
}

func TestFig12BatchingShapes(t *testing.T) {
	s := QuickScale()
	pts := RunFig12(s, quiet())
	first, best := pts[0], pts[0]
	for _, p := range pts {
		if p.MuTPST > best.MuTPST {
			best = p
		}
	}
	if best.MuTPST <= first.MuTPST {
		t.Errorf("batching must improve μTPS-T: batch1=%.1f best=%.1f", first.MuTPST, best.MuTPST)
	}
	var bestH Fig12Point = pts[0]
	for _, p := range pts {
		if p.MuTPSH > bestH.MuTPSH {
			bestH = p
		}
	}
	if bestH.MuTPSH <= pts[0].MuTPSH {
		t.Errorf("batching must improve μTPS-H: batch1=%.1f best=%.1f", pts[0].MuTPSH, bestH.MuTPSH)
	}
}

func TestFig13TunerDirections(t *testing.T) {
	s := QuickScale()
	s.Ops = 8000 // tuner probes are numerous; keep windows small
	a := RunFig13a(s, quiet())
	// Larger items → more MR workers needed (same keyspace, same skew).
	find := func(keys uint64, size int, skew bool) Fig13aPoint {
		for _, p := range a {
			if p.Keyspace == keys && p.ItemSize == size && p.Skewed == skew {
				return p
			}
		}
		t.Fatal("missing Fig13a point")
		return Fig13aPoint{}
	}
	// A larger keyspace deepens the index and increases per-request MR
	// work, pulling workers to the MR layer (uniform rows, where the hot
	// cache does not confound the split).
	smallKeys := find(s.Keys/10, 8, false)
	bigKeys := find(s.Keys, 8, false)
	if bigKeys.MRShare < smallKeys.MRShare {
		t.Errorf("larger keyspace should push work to MR: %.2f vs %.2f",
			bigKeys.MRShare, smallKeys.MRShare)
	}
	// Skew moves work to the CR layer (the hot set absorbs traffic).
	skewed := find(s.Keys, 8, true)
	uniform := find(s.Keys, 8, false)
	if skewed.MRShare > uniform.MRShare {
		t.Errorf("skew should shrink the MR share: skewed %.2f vs uniform %.2f",
			skewed.MRShare, uniform.MRShare)
	}
}

func TestFig14DynamicReconfiguration(t *testing.T) {
	s := QuickScale()
	s.Ops = 8000
	pts := RunFig14(s, quiet())
	var oldM, tuned float64
	for _, p := range pts {
		switch p.Phase {
		case "old":
			oldM = p.Mops
		case "tuned":
			tuned = p.Mops
		}
	}
	if tuned <= oldM {
		t.Errorf("after the 512B→8B shift and retune, throughput must rise: %.1f → %.1f", oldM, tuned)
	}
}

func TestTunerAblationShapes(t *testing.T) {
	s := QuickScale()
	s.Ops = 8000
	r := RunTunerAblation(s, quiet())
	if r.TrisectProbes >= r.ExhaustProbes {
		t.Errorf("trisection (%d probes) must be cheaper than exhaustive (%d)",
			r.TrisectProbes, r.ExhaustProbes)
	}
	if r.TrisectScore < r.ExhaustScore*0.85 {
		t.Errorf("trisection score %.1f too far below exhaustive %.1f",
			r.TrisectScore, r.ExhaustScore)
	}
}

// landscape models the paper's search space for the reference comparison
// below: throughput unimodal in the thread split and in MR ways, with a
// cache-size interaction that shifts the ideal split.
type landscape struct{}

func (landscape) Bounds() (int, int, int, int) { return 28, 12, 10000, 1000 }

func (landscape) Measure(c tuner.Config) float64 {
	idealMR := 20.0 - 8.0*float64(c.CacheItems)/10000.0 // more cache → fewer MR threads
	split := -0.5 * math.Pow(float64(c.MRThreads)-idealMR, 2)
	cache := -math.Abs(float64(c.CacheItems)-6000.0) / 1000.0
	ways := -0.3 * math.Pow(float64(c.MRWays)-9, 2)
	return 100 + split + cache + ways
}

// TestOptimizeMatchesExhaustiveButCheaper: the exhaustive search is the
// reference the trisecting one is held to — same quality, fewer probes.
func TestOptimizeMatchesExhaustiveButCheaper(t *testing.T) {
	r1 := tuner.Optimize(landscape{})
	r2 := optimizeExhaustive(landscape{})
	if math.Abs(r1.Score-r2.Score) > 0.5 {
		t.Fatalf("trisection score %.2f vs exhaustive %.2f", r1.Score, r2.Score)
	}
	if r1.Probes >= r2.Probes {
		t.Fatalf("trisection probes %d not cheaper than exhaustive %d", r1.Probes, r2.Probes)
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Experiments() {
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		ids[e.ID] = true
		if e.Run == nil {
			t.Fatalf("experiment %q has no runner", e.ID)
		}
	}
	for _, want := range []string{"2a", "2b", "2c", "tab1", "7", "8a", "8bc", "9", "10", "11", "12", "13a", "13b", "13c", "14"} {
		if !ids[want] {
			t.Fatalf("experiment %q missing from registry", want)
		}
	}
}
