package kvcore

import (
	"time"

	"mutps/internal/obs"
	"mutps/internal/tuner"
)

// Tunable adapts the real store to the auto-tuner: each Measure applies a
// configuration live (thread reassignment + hot-set resize, never blocking
// request processing) and observes the op counter over a wall-clock window
// — the paper's 10 ms feedback monitor.
//
// MRWays is ignored: Go cannot program Intel CAT, so Bounds exposes zero
// ways. (The simulated system honours it; see internal/simkv.Tunable.)
type Tunable struct {
	S *Store
	// Window is the monitoring interval (default 10ms, the paper's value).
	Window time.Duration
	// MaxCache bounds the hot-set sizes explored (default 8192).
	MaxCache int
	// CacheStep is the linear-probe step (default MaxCache/8).
	CacheStep int
}

// Bounds implements tuner.Reconfigurable.
func (t *Tunable) Bounds() (threads, ways, maxCacheItems, cacheStep int) {
	maxC := t.MaxCache
	if maxC == 0 {
		maxC = 8192
	}
	step := t.CacheStep
	if step == 0 {
		step = maxC / 8
	}
	// No CAT control from Go: expose a single "ways" point so the tuner's
	// way search degenerates to a no-op probe.
	return t.S.cfg.Workers, 0, maxC, step
}

// Apply implements tuner.System: install a configuration on the running
// store without measuring. The thread split lands via the reconfigurable
// RPC schedule and the hot-set size via the next epoch-switched view
// install — traffic is never paused.
func (t *Tunable) Apply(c tuner.Config) {
	nCR := t.S.cfg.Workers - c.MRThreads
	if nCR < 1 {
		nCR = 1
	}
	if nCR > t.S.cfg.Workers-1 {
		nCR = t.S.cfg.Workers - 1
	}
	t.S.SetSplit(nCR) //nolint:errcheck // closed-store errors only; probing a closing store is moot
	t.S.SetHotItems(c.CacheItems)
	t.S.RefreshHotSet()
}

// Current implements tuner.System.
func (t *Tunable) Current() tuner.Config {
	_, nMR := t.S.Split()
	return tuner.Config{CacheItems: t.S.HotItems(), MRThreads: nMR}
}

// Measure implements tuner.Reconfigurable.
func (t *Tunable) Measure(c tuner.Config) float64 {
	t.Apply(c)

	w := t.Window
	if w == 0 {
		w = 10 * time.Millisecond
	}
	s := obs.NewWindowSampler(t.S.Ops)
	time.Sleep(w)
	return s.Rate()
}

var _ tuner.System = (*Tunable)(nil)
