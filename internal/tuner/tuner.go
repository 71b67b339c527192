// Package tuner implements the μTPS auto-tuner (§3.5). It is generic over
// a Reconfigurable system so both the real store and the simulated KVS use
// the same search logic:
//
//   - thread reassignment and LLC-way allocation are searched with the
//     paper's trisecting approach, exploiting that throughput is unimodal
//     in each of those parameters;
//   - cache (hot-set) size is searched with a linear probe at a fixed step,
//     because cache resizing re-balances load between the layers and is not
//     strictly unimodal;
//   - the two are composed hierarchically: for each candidate cache size
//     the best thread split is found, then the best (cache size, split) is
//     kept, and finally the LLC-way allocation — which affects performance
//     orthogonally — is tuned independently.
package tuner

// Config is one point in the scheduling space the auto-tuner explores.
type Config struct {
	CacheItems int // hot items kept at the cache-resident layer
	MRThreads  int // worker threads assigned to the memory-resident layer
	MRWays     int // LLC ways the memory-resident layer may allocate into
}

// Reconfigurable is the system under tuning. Measure applies a
// configuration, runs one monitoring window, and returns the observed
// throughput; it must be safe to call repeatedly (the system keeps serving
// during tuning, per the paper's no-downtime requirement).
type Reconfigurable interface {
	Measure(Config) float64
	// Bounds describes the search space: the total worker threads to split
	// (MRThreads may be 1..Threads-1), the total LLC ways (MRWays may be
	// 0..Ways), the largest hot-set size to consider, and the linear-probe
	// step for cache sizing (the paper uses 1K items).
	Bounds() (threads, ways, maxCacheItems, cacheStep int)
}

// Result reports the chosen configuration and the search cost.
type Result struct {
	Best   Config
	Score  float64
	Probes int // Measure calls issued
}

// TrisectMax maximizes eval over the integers [lo, hi], assuming the
// function is unimodal (rises then falls), using the paper's trisecting
// refinement. It returns the argmax and the number of evaluations; repeated
// points are cached and counted once.
func TrisectMax(lo, hi int, eval func(int) float64) (best int, probes int) {
	if lo > hi {
		panic("tuner: empty trisection range")
	}
	cache := map[int]float64{}
	f := func(x int) float64 {
		if v, ok := cache[x]; ok {
			return v
		}
		v := eval(x)
		cache[x] = v
		probes++
		return v
	}
	for hi-lo > 2 {
		third := (hi - lo) / 3
		m1 := lo + third
		m2 := hi - third
		if m2 == m1 {
			m2++
		}
		if f(m1) < f(m2) {
			lo = m1 + 1
		} else {
			hi = m2 - 1
		}
	}
	best = lo
	for x := lo + 1; x <= hi; x++ {
		if f(x) > f(best) {
			best = x
		}
	}
	// Ensure best itself was evaluated (range may have collapsed).
	f(best)
	return best, probes
}

// Optimize runs the full hierarchical search and leaves the system
// configured at the best point found.
func Optimize(sys Reconfigurable) Result {
	threads, ways, maxCache, step := sys.Bounds()
	if threads < 2 {
		// With fewer than two workers there is nothing to split; measure
		// the only possible configuration.
		cfg := Config{CacheItems: 0, MRThreads: threads, MRWays: ways}
		return Result{Best: cfg, Score: sys.Measure(cfg), Probes: 1}
	}
	if step <= 0 {
		step = 1000
	}

	var res Result

	// Hierarchical: linear probe over cache sizes; trisect the thread
	// split inside each.
	bestScore := -1.0
	for k := 0; k <= maxCache; k += step {
		bestMR, probes := TrisectMax(1, threads-1, func(mr int) float64 {
			return sys.Measure(Config{CacheItems: k, MRThreads: mr, MRWays: ways})
		})
		res.Probes += probes
		score := sys.Measure(Config{CacheItems: k, MRThreads: bestMR, MRWays: ways})
		res.Probes++
		if score > bestScore {
			bestScore = score
			res.Best = Config{CacheItems: k, MRThreads: bestMR, MRWays: ways}
		}
	}

	// LLC-way allocation, tuned independently (orthogonal effect).
	bestWays, probes := TrisectMax(0, ways, func(w int) float64 {
		c := res.Best
		c.MRWays = w
		return sys.Measure(c)
	})
	res.Probes += probes
	res.Best.MRWays = bestWays

	res.Score = sys.Measure(res.Best)
	res.Probes++
	return res
}
