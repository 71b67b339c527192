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
	// with minGain it is the anti-oscillation guard: a trigger during
	// cooldown is suppressed (and traced), so a noisy boundary can fire at
	// most once per cooldown window.
	Cooldown time.Duration
	// Rate reads the monotonic completed-op counter (required).
	Rate func() uint64
	// Latency optionally enables the second trigger channel over mean
	// latency. The mean is the exact _sum/_count delta of a histogram feed,
	// not an interpolated quantile: the paper's controller consumes a mean,
	// and log₂-bucket interpolation can be off by the bucket width — enough
	// to swallow or fabricate a 25% shift. Latency catches workload changes
	// the throughput channel misses under admission-limited load (diurnal
	// ramps, value-size shifts at a fixed offered rate).
	Latency *obs.MeanSampler
	// Trace receives trigger/lat-trigger/suppress/retune/revert decisions
	// (optional).
	Trace *obs.DecisionTrace
}

// minGain is the minimum relative improvement over the incumbent
// configuration required to keep a search's winner. Below it the
// controller reverts — a noisy probe window must not move a well-tuned
// system.
const minGain = 0.05

// Controller runs the paper's closed tuning loop against a live system:
// sample → trigger → search → apply → verify. Traffic keeps flowing
// throughout — Measure probes reconfigure the running system and read
// the op counter, they never pause it. It owns the whole feedback state:
// both trigger channels, the cooldown/min-gain verdict and every
// decision-trace entry the tuner writes.
type Controller struct {
	sys System
	cfg ControllerConfig

	mu         sync.Mutex // serializes Tick/Retune (the loop is single-threaded; Stop/tests may race)
	rate       *obs.WindowSampler
	rateMon    Monitor
	latMon     Monitor // fed only when cfg.Latency is set
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
	return &Controller{sys: sys, cfg: cfg, rate: obs.NewWindowSampler(cfg.Rate)}
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
// window on both channels and — on a trigger outside the cooldown — run a
// retune. A triggering tick leaves exactly one trace entry: "trigger"
// (throughput shift), "lat-trigger" (mean-latency shift at a steady rate;
// Score carries the observed mean in the histogram's unit) or, inside the
// cooldown, "suppress". A trigger that turns out to be the load stopping
// (the incumbent measures 0 ops/s) adds one "suppress" instead of a
// search. It returns whether a search ran, so harnesses can annotate
// their measurement stream.
func (c *Controller) Tick(now time.Time) (retuned bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ticks.Add(1)
	d := obs.Decision{Rate: c.rate.Rate(), OldSplit: -1, NewSplit: -1, OldCache: -1, NewCache: -1}
	if c.rateMon.Observe(d.Rate) {
		d.Event = "trigger"
	}
	if c.cfg.Latency != nil {
		// An empty window (no requests) has no mean; it is skipped, not fed
		// as zero.
		if mean, ok := c.cfg.Latency.Mean(); ok && c.latMon.Observe(mean) && d.Event == "" {
			d.Event, d.Score = "lat-trigger", mean
		}
	}
	if d.Event == "" {
		return false
	}
	c.triggers.Add(1)
	if !c.lastRetune.IsZero() && now.Sub(c.lastRetune) < c.cfg.Cooldown {
		// Hysteresis: the shift was real, but we retuned recently — let the
		// new baseline settle instead of chasing the transient. The monitor
		// already rebaselined at the shifted level, so a persistent shift
		// will re-fire after the cooldown.
		d.Event = "suppress"
		c.record(d)
		return false
	}
	c.record(d)
	// Baseline the incumbent under the *current* load, so the minGain
	// comparison is apples-to-apples (the pre-shift throughput is stale).
	old := c.sys.Current()
	oldScore := c.sys.Measure(old)
	if oldScore == 0 {
		// The load did not shift, it stopped. Every probe would measure 0,
		// so a search would only fire a burst of reconfigurations at an idle
		// system and learn nothing. No cooldown starts: the monitor rebased
		// at zero and re-warms when traffic returns.
		d.Event, d.Probes = "suppress", 1
		c.record(d)
		return false
	}
	c.retune(now, old, oldScore)
	return true
}

// Retune forces a search outside the trigger path (operator action,
// startup seeding). It honours minGain but not the cooldown, and it
// searches even when the system is idle.
func (c *Controller) Retune() Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.sys.Current()
	return c.retune(time.Now(), old, c.sys.Measure(old))
}

// retune runs the full hierarchical search (linear probe × trisection)
// from the baselined incumbent and applies the winner — or reverts —
// leaving one "retune" or "revert" trace entry. Caller holds c.mu.
func (c *Controller) retune(now time.Time, old Config, oldScore float64) Result {
	threads, _, _, _ := c.sys.Bounds()
	c.retunes.Add(1)
	best, bestScore := old, oldScore
	opt := Optimize(c.sys)
	probes := 1 + opt.Probes // the baseline, then the search
	if opt.Score > bestScore {
		best, bestScore = opt.Best, opt.Score
	}

	// Minimum-improvement threshold: keep the winner only if it beats the
	// incumbent by minGain; otherwise revert. This is what keeps a stable
	// workload's configuration pinned even though probe windows are noisy.
	event := "retune"
	if best != old && oldScore > 0 && bestScore < oldScore*(1+minGain) {
		best, bestScore = old, oldScore
		event = "revert"
		c.reverts.Add(1)
	}
	c.sys.Apply(best)

	c.record(obs.Decision{
		Event:    event,
		Rate:     bestScore,
		OldSplit: threads - old.MRThreads, NewSplit: threads - best.MRThreads,
		OldCache: old.CacheItems, NewCache: best.CacheItems,
		Score:  bestScore,
		Probes: probes,
	})
	c.reset()
	c.lastRetune = now
	return Result{Best: best, Score: bestScore, Probes: probes}
}

func (c *Controller) record(d obs.Decision) {
	if c.cfg.Trace != nil {
		c.cfg.Trace.Record(d)
	}
}

// reset restarts both monitors and samplers, so the windows after a
// search build a fresh baseline instead of inheriting the rates observed
// during probing.
func (c *Controller) reset() {
	c.rateMon.Reset()
	c.rate.Reset()
	if c.cfg.Latency != nil {
		c.latMon.Reset()
		c.cfg.Latency.Reset()
	}
}
