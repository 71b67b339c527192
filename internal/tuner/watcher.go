package tuner

import "mutps/internal/obs"

// Watcher wires the feedback monitor to live telemetry: each Tick closes
// one throughput window from the sampler, feeds it to the Monitor, and —
// when the load shift is significant — records a "trigger" decision in the
// trace so operators can see why the auto-tuner ran. The caller owns the
// Tick cadence (the paper samples every 10 ms) and reacts to a true return
// by scheduling a retune, whose outcome it reports via RecordRetune.
type Watcher struct {
	Monitor *Monitor
	Sampler *obs.WindowSampler
	Trace   *obs.DecisionTrace

	// Optional second trigger channel over mean latency. The mean is the
	// exact _sum/_count delta of a histogram feed (obs.MeanSampler), not an
	// interpolated quantile: the paper's controller consumes a mean, and
	// log₂-bucket interpolation can be off by the bucket width — enough to
	// swallow or fabricate a 25% shift. Latency catches workload changes the
	// throughput channel misses under admission-limited load (diurnal ramps,
	// value-size shifts at a fixed offered rate).
	LatMonitor *Monitor
	LatSampler *obs.MeanSampler
}

// NewWatcher builds a watcher over a monotonic completed-ops reader (e.g.
// Store.Ops). Monitor parameters keep their documented defaults.
func NewWatcher(read func() uint64, trace *obs.DecisionTrace) *Watcher {
	return &Watcher{
		Monitor: &Monitor{},
		Sampler: obs.NewWindowSampler(read),
		Trace:   trace,
	}
}

// WatchLatency attaches the latency channel: each Tick additionally
// observes the exact mean of the values the sampler's histograms recorded
// during the window and triggers on a significant shift. Empty windows
// (no requests) are skipped rather than fed as zero.
func (w *Watcher) WatchLatency(s *obs.MeanSampler) {
	w.LatSampler = s
	w.LatMonitor = &Monitor{}
}

// Tick closes the current window and returns whether either monitor
// flagged a significant load change. The window's throughput is returned
// either way so callers can log or export it. On a trigger, a Decision
// with Event "trigger" (throughput shift) or "lat-trigger" (mean-latency
// shift; Score carries the observed mean in the histogram's unit) lands
// in the trace.
func (w *Watcher) Tick() (rate float64, triggered bool) {
	rate = w.Sampler.Rate()
	triggered = w.Monitor.Observe(rate)
	if triggered && w.Trace != nil {
		w.Trace.Record(obs.Decision{
			Event:    "trigger",
			Rate:     rate,
			OldSplit: -1, NewSplit: -1,
			OldCache: -1, NewCache: -1,
		})
	}
	if w.LatSampler != nil && w.LatMonitor != nil {
		if mean, ok := w.LatSampler.Mean(); ok && w.LatMonitor.Observe(mean) {
			if !triggered && w.Trace != nil {
				w.Trace.Record(obs.Decision{
					Event:    "lat-trigger",
					Rate:     rate,
					Score:    mean,
					OldSplit: -1, NewSplit: -1,
					OldCache: -1, NewCache: -1,
				})
			}
			triggered = true
		}
	}
	return rate, triggered
}

// RecordRetune logs the outcome of a tuning run into the trace and resets
// the feedback loop (see reset).
func (w *Watcher) RecordRetune(oldSplit, oldCache int, res Result) {
	if w.Trace != nil {
		w.Trace.Record(obs.Decision{
			Event:    "retune",
			Rate:     res.Score,
			OldSplit: oldSplit, NewSplit: res.Best.MRThreads,
			OldCache: oldCache, NewCache: res.Best.CacheItems,
			Score:  res.Score,
			Probes: res.Probes,
		})
	}
	w.reset()
}

// reset restarts the monitors and samplers, so the next windows build a
// fresh baseline instead of inheriting the rates observed during probing.
func (w *Watcher) reset() {
	w.Monitor.Reset()
	w.Sampler.Reset()
	if w.LatMonitor != nil {
		w.LatMonitor.Reset()
	}
	if w.LatSampler != nil {
		w.LatSampler.Reset()
	}
}
