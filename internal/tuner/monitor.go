package tuner

// Monitor is the auto-tuner's feedback loop trigger (§3.5): it watches
// windowed samples (throughput, or mean latency) and reports when the
// load has shifted enough that retuning is worthwhile ("the auto-tuner is
// triggered when the system load exhibits significant changes").
//
// The detector keeps an exponential moving average of the samples and
// flags a change on the first sample that deviates from that baseline by
// more than Threshold (relative). After a trigger, the baseline resets to
// the new level so a single shift fires exactly once.
type Monitor struct {
	// Threshold is the relative deviation that counts as a load change
	// (default 0.25 = ±25%).
	Threshold float64
	// Warmup samples establish the baseline before triggering (default 3).
	Warmup int

	baseline float64
	samples  int
}

// emaAlpha is the baseline's smoothing factor.
const emaAlpha = 0.2

// Observe feeds one window's sample and reports whether the load has
// shifted enough to warrant retuning.
func (m *Monitor) Observe(rate float64) (changed bool) {
	threshold, warmup := m.Threshold, m.Warmup
	if threshold <= 0 {
		threshold = 0.25
	}
	if warmup <= 0 {
		warmup = 3
	}
	m.samples++
	if m.baseline == 0 {
		m.baseline = rate
		return false
	}
	dev := rate - m.baseline
	if dev < 0 {
		dev = -dev
	}
	if m.samples > warmup && dev > threshold*m.baseline {
		// Shift detected: rebase so the trigger fires once per shift.
		m.baseline = rate
		m.samples = 0
		return true
	}
	m.baseline = (1-emaAlpha)*m.baseline + emaAlpha*rate
	return false
}

// Baseline returns the current smoothed estimate.
func (m *Monitor) Baseline() float64 { return m.baseline }

// Reset clears the monitor (e.g. right after a retune).
func (m *Monitor) Reset() {
	m.baseline = 0
	m.samples = 0
}
