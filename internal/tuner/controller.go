package tuner

import (
	"sync"
	"sync/atomic"
	"time"

	"mutps/internal/obs"
)

// System is a Reconfigurable that can also report and set its
// configuration without running a measurement window — what the online
// controller needs to read the pre-retune state and to apply (or revert
// to) a configuration after the search finishes.
type System interface {
	Reconfigurable
	// Current returns the configuration the system is serving with now.
	Current() Config
	// Apply installs a configuration without measuring.
	Apply(Config)
}

// ControllerConfig parameterizes the closed loop. Zero values select the
// documented defaults.
type ControllerConfig struct {
	// Interval is the sampling cadence (default 100ms). Each tick closes
	// one throughput window; the paper samples at 10ms, but over TCP with
	// pipelining a longer window keeps per-window noise below the trigger
	// threshold.
	Interval time.Duration
	// Cooldown is the minimum time between retunes (default 3s). Together
	// with MinGain it is the anti-oscillation guard: a trigger during
	// cooldown is suppressed (and traced), so a noisy boundary can fire at
	// most once per cooldown window.
	Cooldown time.Duration
	// MinGain is the minimum relative improvement over the incumbent
	// configuration required to keep the search's winner (default 0.05 =
	// 5%). Below it the controller reverts — a noisy probe window must not
	// move a well-tuned system.
	MinGain float64
	// Threshold overrides the trigger monitors' relative deviation
	// (default Monitor's 0.25).
	Threshold float64
	// Rate reads the monotonic completed-op counter (required).
	Rate func() uint64
	// LatFeed optionally supplies a (sum, count) latency feed — e.g. the
	// netserver's per-op histograms — enabling the mean-latency trigger.
	LatFeed func() (sum, count uint64)
	// Priors seeds and accumulates per-signature best-known configs
	// (optional).
	Priors *Priors
	// Signature classifies the current workload for the prior table
	// (required if Priors is set).
	Signature func() Signature
	// Trace receives trigger/suppress/retune/revert decisions (optional).
	Trace *obs.DecisionTrace
}

// Controller runs the paper's closed tuning loop against a live system:
// sample → trigger → search → apply → verify. Traffic keeps flowing
// throughout — Measure probes reconfigure the running system and read
// the op counter, they never pause it.
type Controller struct {
	sys     System
	cfg     ControllerConfig
	watcher *Watcher

	mu         sync.Mutex // serializes Tick/Retune (the loop is single-threaded; Stop/tests may race)
	lastRetune time.Time

	ticks    atomic.Uint64
	triggers atomic.Uint64
	retunes  atomic.Uint64
	reverts  atomic.Uint64

	stop chan struct{}
	done chan struct{}
}

// NewController builds the loop but does not start it; call Start for
// the background goroutine or Tick directly (tests, single-threaded
// harnesses).
func NewController(sys System, cfg ControllerConfig) *Controller {
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * time.Millisecond
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 3 * time.Second
	}
	if cfg.MinGain <= 0 {
		cfg.MinGain = 0.05
	}
	w := NewWatcher(cfg.Rate, cfg.Trace)
	if cfg.Threshold > 0 {
		w.Monitor.Threshold = cfg.Threshold
	}
	if cfg.LatFeed != nil {
		w.WatchLatency(obs.NewMeanSampler(cfg.LatFeed))
		if cfg.Threshold > 0 {
			w.LatMonitor.Threshold = cfg.Threshold
		}
	}
	return &Controller{sys: sys, cfg: cfg, watcher: w}
}

// Counters reports loop activity: windows sampled, triggers fired
// (including suppressed ones), searches run, and searches whose winner
// was rejected for insufficient gain.
func (c *Controller) Counters() (ticks, triggers, retunes, reverts uint64) {
	return c.ticks.Load(), c.triggers.Load(), c.retunes.Load(), c.reverts.Load()
}

// Start launches the background loop. Stop terminates it.
func (c *Controller) Start() {
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	go func() {
		defer close(c.done)
		t := time.NewTicker(c.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.Tick(time.Now())
			}
		}
	}()
}

// Stop halts the background loop and waits for an in-flight retune to
// finish.
func (c *Controller) Stop() {
	if c.stop == nil {
		return
	}
	close(c.stop)
	<-c.done
	c.stop = nil
}

// Tick runs one loop iteration at the given time: close the sampling
// window, and — on a trigger outside the cooldown — run a retune. It
// returns whether a retune ran, so harnesses can annotate their
// measurement stream.
func (c *Controller) Tick(now time.Time) (retuned bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ticks.Add(1)
	_, triggered := c.watcher.Tick()
	if !triggered {
		return false
	}
	c.triggers.Add(1)
	if !c.lastRetune.IsZero() && now.Sub(c.lastRetune) < c.cfg.Cooldown {
		// Hysteresis: the shift was real, but we retuned recently — let the
		// new baseline settle instead of chasing the transient. The monitor
		// already rebaselined at the shifted level, so a persistent shift
		// will re-fire after the cooldown.
		if c.cfg.Trace != nil {
			c.cfg.Trace.Record(obs.Decision{
				Event:    "suppress",
				OldSplit: -1, NewSplit: -1,
				OldCache: -1, NewCache: -1,
			})
		}
		return false
	}
	c.retune(now)
	return true
}

// Retune forces a search outside the trigger path (operator action,
// startup seeding). It honours MinGain but not the cooldown.
func (c *Controller) Retune() Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retune(time.Now())
}

// retune runs the search and applies the winner — or reverts. Caller
// holds c.mu.
func (c *Controller) retune(now time.Time) Result {
	c.retunes.Add(1)
	old := c.sys.Current()

	// Baseline the incumbent under the *current* load, so the MinGain
	// comparison is apples-to-apples (the pre-shift throughput is stale).
	oldScore := c.sys.Measure(old)
	probes := 1

	best, bestScore := old, oldScore

	// Prior first: a single probe that usually lands near the optimum.
	var sig Signature
	haveSig := false
	if c.cfg.Priors != nil && c.cfg.Signature != nil {
		sig = c.cfg.Signature()
		haveSig = true
		if pr, ok := c.cfg.Priors.Lookup(sig); ok && pr.Config != old {
			if s := c.sys.Measure(pr.Config); s > bestScore {
				best, bestScore = pr.Config, s
			}
			probes++
		}
	}

	// Full hierarchical search (linear probe × trisection).
	res := Optimize(c.sys)
	probes += res.Probes
	if res.Score > bestScore {
		best, bestScore = res.Best, res.Score
	}

	// Minimum-improvement threshold: keep the winner only if it beats the
	// incumbent by MinGain; otherwise revert. This is what keeps a stable
	// workload's configuration pinned even though probe windows are noisy.
	reverted := false
	if best != old && oldScore > 0 && bestScore < oldScore*(1+c.cfg.MinGain) {
		best, bestScore = old, oldScore
		reverted = true
		c.reverts.Add(1)
	}
	c.sys.Apply(best)

	if haveSig {
		c.cfg.Priors.Update(sig, Prior{Config: best, Score: bestScore, Source: "online"})
	}

	out := Result{Best: best, Score: bestScore, Probes: probes}
	if reverted && c.cfg.Trace != nil {
		c.cfg.Trace.Record(obs.Decision{
			Event:    "revert",
			Rate:     bestScore,
			OldSplit: old.MRThreads, NewSplit: best.MRThreads,
			OldCache: old.CacheItems, NewCache: best.CacheItems,
			Score:  bestScore,
			Probes: probes,
		})
		// RecordRetune would log a second entry; still reset the feedback
		// loop so post-search windows start a fresh baseline.
		c.watcher.reset()
	} else {
		c.watcher.RecordRetune(old.MRThreads, old.CacheItems, out)
	}
	c.lastRetune = now
	return out
}
