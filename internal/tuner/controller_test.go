package tuner

import (
	"sync"
	"testing"
	"time"

	"mutps/internal/obs"
)

// ctlSystem is a deterministic System: score is a pure function of the
// configuration.
type ctlSystem struct {
	cur      Config
	threads  int
	maxCache int
	step     int
	score    func(Config) float64
	measured []Config
}

func (f *ctlSystem) Bounds() (int, int, int, int) {
	return f.threads, 0, f.maxCache, f.step
}

func (f *ctlSystem) Measure(c Config) float64 {
	f.cur = c
	f.measured = append(f.measured, c)
	return f.score(c)
}

func (f *ctlSystem) Current() Config { return f.cur }
func (f *ctlSystem) Apply(c Config)  { f.cur = c }

// synthRate is a counter that advances at a programmable rate per second
// of wall time, so WindowSampler observes exactly the programmed rate no
// matter how long the scheduler stretches a window — the tests stay
// deterministic on a loaded single-core CI box.
type synthRate struct {
	mu     sync.Mutex
	base   float64
	lastT  time.Time
	perSec float64
}

func newSynthRate(perSec float64) *synthRate {
	return &synthRate{lastT: time.Now(), perSec: perSec}
}

func (s *synthRate) valueLocked(now time.Time) float64 {
	return s.base + s.perSec*now.Sub(s.lastT).Seconds()
}

func (s *synthRate) set(perSec float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	s.base = s.valueLocked(now)
	s.lastT = now
	s.perSec = perSec
}

func (s *synthRate) read() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return uint64(s.valueLocked(time.Now()))
}

// tick closes one ≥2ms window at the given synthetic controller time.
func tick(c *Controller, now *time.Time) bool {
	time.Sleep(2 * time.Millisecond)
	*now = now.Add(100 * time.Millisecond)
	return c.Tick(*now)
}

// warm establishes the rate baseline without triggering.
func warm(t *testing.T, c *Controller, now *time.Time) {
	t.Helper()
	for i := 0; i < 5; i++ {
		if tick(c, now) {
			t.Fatalf("retuned during warmup (window %d)", i)
		}
	}
}

// TestControllerCooldownBoundsRetunes: with every window triggering (a
// pathologically noisy load), at most one search may run per cooldown
// window — the anti-oscillation guarantee.
func TestControllerCooldownBoundsRetunes(t *testing.T) {
	sys := &ctlSystem{
		cur: Config{MRThreads: 1}, threads: 4, maxCache: 400, step: 200,
		score: func(c Config) float64 { return 1000 },
	}
	rate := newSynthRate(1e6)
	cooldown := 10 * time.Second
	c := NewController(sys, ControllerConfig{Rate: rate.read, Cooldown: cooldown})

	now := time.Unix(2000, 0)
	warm(t, c, &now)

	// 50 windows inside one cooldown (5s of synthetic time), alternating
	// 100x up/down so every window deviates >25% from any baseline.
	levels := []float64{1e8, 1e4}
	for i := 0; i < 50; i++ {
		rate.set(levels[i%2])
		tick(c, &now)
	}
	_, triggers, retunes, _ := c.Counters()
	if retunes > 1 {
		t.Fatalf("%d retunes inside one cooldown window, want ≤1 (triggers=%d)", retunes, triggers)
	}
	if triggers < 2 {
		t.Fatalf("test not exercising suppression: only %d triggers", triggers)
	}

	// After the cooldown elapses, a persistent shift may retune again —
	// the guard is a rate limit, not a latch. (The monitor re-warms after
	// each trigger, so give it a few windows to fire.)
	now = now.Add(cooldown)
	for i := 0; i < 10; i++ {
		rate.set(levels[i%2])
		tick(c, &now)
	}
	_, _, retunes2, _ := c.Counters()
	if retunes2 != retunes+1 {
		t.Fatalf("retunes after cooldown elapsed: %d → %d, want exactly one more", retunes, retunes2)
	}
}

// TestControllerStableWorkloadNoRetune: windows within the threshold of
// the baseline must never trigger — zero searches on a stable workload.
func TestControllerStableWorkloadNoRetune(t *testing.T) {
	sys := &ctlSystem{
		cur: Config{MRThreads: 1}, threads: 4, maxCache: 400, step: 200,
		score: func(c Config) float64 { return 1000 },
	}
	rate := newSynthRate(1000e6)
	c := NewController(sys, ControllerConfig{Rate: rate.read})

	now := time.Unix(3000, 0)
	// ±10% jitter, below the 25% threshold. High absolute rates keep the
	// counter's integer truncation far below the jitter being tested.
	jitter := []float64{1000e6, 1100e6, 950e6, 1050e6, 900e6, 1000e6, 1080e6, 930e6}
	for i := 0; i < 40; i++ {
		rate.set(jitter[i%len(jitter)])
		tick(c, &now)
	}
	_, triggers, retunes, _ := c.Counters()
	if triggers != 0 || retunes != 0 {
		t.Fatalf("stable workload produced triggers=%d retunes=%d, want 0/0", triggers, retunes)
	}
}

// TestControllerPriorOutOfBounds: the configuration a retune starts from
// may lie outside the search's bounds (a server started with -hot past
// the hot-set bound, or a split for more workers than it has). The
// baseline measures it as it is, the search probes only in-bounds
// configurations, and the verdict either keeps the prior configuration or
// installs an in-bounds winner — never a mix of the two.
func TestControllerPriorOutOfBounds(t *testing.T) {
	const threads, maxCache, step = 4, 8192, 4096
	inBounds := func(c Config) bool {
		return c.CacheItems >= 0 && c.CacheItems <= maxCache && c.CacheItems%step == 0 &&
			c.MRThreads >= 1 && c.MRThreads <= threads-1 && c.MRWays == 0
	}
	cases := []struct {
		name     string
		prior    Config
		score    float64 // the prior's score; every in-bounds probe scores 1000
		wantKept bool
	}{
		{"mr-threads out of 4 workers", Config{CacheItems: 4096, MRThreads: 6, MRWays: 8}, 990, true},
		{"cache past the hot-set bound", Config{CacheItems: 10000, MRThreads: 2}, 500, false},
		{"no mr thread", Config{CacheItems: 3000, MRThreads: 0}, 1000, true},
		{"ways past the single point", Config{CacheItems: 4096, MRThreads: 3, MRWays: 8}, 100, false},
	}
	for _, tc := range cases {
		sys := &ctlSystem{
			cur: tc.prior, threads: threads, maxCache: maxCache, step: step,
			score: func(c Config) float64 {
				if c == tc.prior {
					return tc.score
				}
				return 1000
			},
		}
		c := NewController(sys, ControllerConfig{Rate: newSynthRate(1000).read})
		res := c.Retune()
		if res.Probes != len(sys.measured) {
			t.Errorf("%s: %d probes reported, %d Measure calls", tc.name, res.Probes, len(sys.measured))
		}
		if len(sys.measured) < 2 || sys.measured[0] != tc.prior {
			t.Fatalf("%s: probes %+v, want the prior's baseline then a search", tc.name, sys.measured)
		}
		for _, m := range sys.measured[1:] {
			if !inBounds(m) {
				t.Errorf("%s: search probed %+v, outside threads=%d maxCache=%d step=%d", tc.name, m, threads, maxCache, step)
			}
		}
		if tc.wantKept {
			if sys.Current() != tc.prior || res.Best != tc.prior || res.Score != tc.score {
				t.Errorf("%s: verdict %+v (score %v), system runs %+v; want the prior kept", tc.name, res.Best, res.Score, sys.Current())
			}
		} else if !inBounds(res.Best) || sys.Current() != res.Best || res.Score != 1000 {
			t.Errorf("%s: verdict %+v (score %v), system runs %+v; want an in-bounds winner installed", tc.name, res.Best, res.Score, sys.Current())
		}
	}
}

// TestControllerIdleDoesNotSearch: a server that goes idle fires the
// throughput trigger, but every probe would measure 0 — the controller
// must spend one probe finding that out, apply nothing and start no
// cooldown. An operator Retune still searches (the idle reconfiguration
// burst TestRetuneIdleThenTraffic needs).
func TestControllerIdleDoesNotSearch(t *testing.T) {
	incumbent := Config{CacheItems: 200, MRThreads: 2}
	sys := &ctlSystem{
		cur: incumbent, threads: 8, maxCache: 4000, step: 1000,
		score: func(Config) float64 { return 0 },
	}
	rate := newSynthRate(1e6)
	trace := obs.NewDecisionTrace(64)
	c := NewController(sys, ControllerConfig{Rate: rate.read, Trace: trace})

	now := time.Unix(4000, 0)
	for i := 0; i < 6; i++ {
		if tick(c, &now) {
			t.Fatalf("retuned during steady load (window %d)", i)
		}
	}
	rate.set(0)
	if tick(c, &now) {
		t.Fatal("idle transition reported a search")
	}
	if len(sys.measured) != 1 || sys.measured[0] != incumbent {
		t.Fatalf("idle transition cost %d probes (%+v), want exactly the incumbent's baseline", len(sys.measured), sys.measured)
	}
	if sys.Current() != incumbent {
		t.Fatalf("idle transition moved the config to %+v", sys.Current())
	}
	if got := events(trace); len(got) != 2 || got[0] != "trigger" || got[1] != "suppress" {
		t.Fatalf("trace = %v, want [trigger suppress]", got)
	}
	_, triggers, retunes, _ := c.Counters()
	if triggers != 1 || retunes != 0 {
		t.Fatalf("counters: triggers=%d retunes=%d, want 1/0", triggers, retunes)
	}

	// No cooldown started: once traffic is back, the next shift — well
	// inside 3s of the idle tick — searches.
	sys.score = func(Config) float64 { return 1000 }
	for i := 0; i < 10; i++ {
		rate.set([]float64{1e8, 1e4}[i%2])
		tick(c, &now)
	}
	if _, _, retunes, _ := c.Counters(); retunes != 1 {
		t.Fatalf("%d searches in the second after the idle tick, want 1 (0: the idle tick started a cooldown)", retunes)
	}

	// Operator action on an idle system: searches.
	sys.score = func(Config) float64 { return 0 }
	sys.measured = nil
	if res := c.Retune(); res.Probes < 2 || len(sys.measured) != res.Probes {
		t.Fatalf("forced retune on an idle system probed %d times (%d Measure calls), want a full search", res.Probes, len(sys.measured))
	}
}

func events(tr *obs.DecisionTrace) (evs []string) {
	for _, d := range tr.Snapshot() {
		evs = append(evs, d.Event)
	}
	return evs
}

// TestControllerTraceSequences scripts (rate, mean latency) windows and
// pins the exact decision sequence each produces: one entry per
// triggering tick, one per search, all written by the controller.
func TestControllerTraceSequences(t *testing.T) {
	type win struct {
		rate float64
		lat  uint64 // recorded 100 times in the window; 0 = no requests
	}
	steady := func(n int) (ws []win) {
		for i := 0; i < n; i++ {
			ws = append(ws, win{1e6, 1000})
		}
		return ws
	}
	flat := func(Config) float64 { return 5000 }
	peaked := func(c Config) float64 {
		if (c == Config{CacheItems: 400, MRThreads: 3}) {
			return 10000
		}
		return 5000
	}
	cases := []struct {
		name    string
		score   func(Config) float64
		noTrace bool
		windows []win
		want    []string
		check   func(t *testing.T, ds []obs.Decision)
	}{
		{
			name: "throughput shift", score: peaked,
			windows: append(steady(5), win{1e4, 1000}),
			want:    []string{"trigger", "retune"},
			check: func(t *testing.T, ds []obs.Decision) {
				// The window opens a few µs before the synthetic rate drops, so
				// the observed rate is 1e4 give or take integer truncation and that leak.
				if tr := ds[0]; tr.Rate < 0.5e4 || tr.Rate > 5e4 || tr.NewSplit != -1 || tr.NewCache != -1 {
					t.Errorf("trigger = %+v, want the shifted window's rate and no config", tr)
				}
				// Split is in CR workers: 4 threads, MR 2 → 3.
				if rt := ds[1]; rt.OldSplit != 2 || rt.NewSplit != 1 || rt.OldCache != 200 || rt.NewCache != 400 ||
					rt.Score != 10000 || rt.Probes == 0 {
					t.Errorf("retune = %+v, want 2→1 CR workers, cache 200→400, score 10000, probes counted", rt)
				}
			},
		},
		{
			// 1000 → 1200 ns crosses the [512,1024) → [1024,2048) bucket
			// boundary (an interpolated p50 roughly doubles) but moves the
			// exact mean +20% < 25%: no trigger. 1700 ns is a real shift.
			name: "latency-only shift at constant rate", score: peaked,
			windows: append(steady(5), win{1e6, 1200}, win{1e6, 1700}),
			want:    []string{"lat-trigger", "retune"},
			check: func(t *testing.T, ds []obs.Decision) {
				if ds[0].Score != 1700 {
					t.Errorf("lat-trigger Score = %v, want the exact _sum/_count mean 1700", ds[0].Score)
				}
			},
		},
		{
			name: "both channels in one tick", score: peaked,
			windows: append(steady(5), win{1e4, 5000}),
			want:    []string{"trigger", "retune"},
		},
		{
			name: "empty latency windows are skipped, not fed as zero", score: peaked,
			windows: append(steady(5), win{1e6, 0}, win{1e6, 0}, win{1e6, 1000}),
			want:    nil,
		},
		{
			name: "shift inside cooldown", score: peaked,
			windows: append(append(steady(5), win{1e4, 1000}), append(steady(5), win{1e4, 1000})...),
			want:    []string{"trigger", "retune", "suppress"},
		},
		{
			name: "winner under 5% gain", score: func(c Config) float64 {
				if (c == Config{CacheItems: 400, MRThreads: 3}) {
					return 5100
				}
				return 5000
			},
			windows: append(steady(5), win{1e4, 1000}),
			want:    []string{"trigger", "revert"},
			check: func(t *testing.T, ds []obs.Decision) {
				if rv := ds[1]; rv.NewSplit != rv.OldSplit || rv.NewCache != rv.OldCache || rv.Score != 5000 {
					t.Errorf("revert = %+v, want the incumbent kept at its own score", rv)
				}
			},
		},
		{
			name: "nil trace", score: flat, noTrace: true,
			windows: append(steady(5), win{1e4, 5000}),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := &ctlSystem{
				cur: Config{CacheItems: 200, MRThreads: 2}, threads: 4, maxCache: 400, step: 200,
				score: tc.score,
			}
			rate := newSynthRate(1e6)
			h := obs.NewHistogram(1)
			trace := obs.NewDecisionTrace(64)
			cfg := ControllerConfig{
				Rate:     rate.read,
				Latency:  obs.NewHistogramMeanSampler(h),
				Cooldown: time.Hour,
				Trace:    trace,
			}
			if tc.noTrace {
				cfg.Trace = nil
			}
			c := NewController(sys, cfg)
			now := time.Unix(5000, 0)
			window := func(w win) bool {
				rate.set(w.rate)
				if w.lat > 0 {
					for i := 0; i < 100; i++ {
						h.Record(0, w.lat)
					}
				}
				return tick(c, &now)
			}
			searched := false
			for _, w := range tc.windows {
				searched = window(w)
			}
			if searched {
				// The one reset() ran on both channels: whichever fired, the
				// next Warmup windows rebuild both baselines and cannot trigger.
				_, before, _, _ := c.Counters()
				for _, wild := range []win{{1e8, 90000}, {1e3, 10}, {1e7, 400000}} {
					window(wild)
				}
				if _, after, _, _ := c.Counters(); after != before {
					t.Fatalf("%d triggers inside the post-search warmup", after-before)
				}
			}
			ds, got := trace.Snapshot(), events(trace)
			if len(got) != len(tc.want) {
				t.Fatalf("trace = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("trace = %v, want %v", got, tc.want)
				}
			}
			// Counters agree with the trace, and the last search's verdict is
			// what the system is left running.
			n := map[string]uint64{}
			for _, ev := range got {
				n[ev]++
			}
			_, triggers, retunes, reverts := c.Counters()
			if !tc.noTrace && (triggers != n["trigger"]+n["lat-trigger"]+n["suppress"] ||
				retunes != n["retune"]+n["revert"] || reverts != n["revert"]) {
				t.Fatalf("counters triggers=%d retunes=%d reverts=%d disagree with trace %v", triggers, retunes, reverts, got)
			}
			for _, d := range ds {
				if d.Event == "retune" || d.Event == "revert" {
					if cur := sys.Current(); cur.CacheItems != d.NewCache || sys.threads-cur.MRThreads != d.NewSplit {
						t.Fatalf("%s to split %d cache %d, but the system runs %+v", d.Event, d.NewSplit, d.NewCache, cur)
					}
				}
			}
			if tc.check != nil {
				tc.check(t, ds)
			}
			// Probe accounting: a search costs the incumbent's baseline plus
			// Optimize's own probes, and reports exactly the Measure calls it
			// made — in its trace entry and in Retune's Result.
			search := 1 + Optimize(&ctlSystem{threads: sys.threads, maxCache: sys.maxCache, step: sys.step, score: tc.score}).Probes
			traced := 0
			for _, d := range ds {
				if d.Event == "retune" || d.Event == "revert" {
					if d.Probes != search {
						t.Fatalf("%s traced %d probes, want 1 + Optimize's = %d", d.Event, d.Probes, search)
					}
					traced += d.Probes
				}
			}
			if !tc.noTrace && traced != len(sys.measured) {
				t.Fatalf("searches traced %d probes, %d Measure calls", traced, len(sys.measured))
			}
			sys.measured = nil
			if res := c.Retune(); res.Probes != len(sys.measured) || res.Probes != search {
				t.Fatalf("Retune reported %d probes, made %d Measure calls, want 1 + Optimize's = %d",
					res.Probes, len(sys.measured), search)
			}
		})
	}
}

// TestControllerStartStop exercises the background loop end to end.
func TestControllerStartStop(t *testing.T) {
	sys := &ctlSystem{
		cur: Config{MRThreads: 1}, threads: 2, maxCache: 0, step: 1,
		score: func(c Config) float64 { return 100 },
	}
	rate := newSynthRate(1000)
	c := NewController(sys, ControllerConfig{Rate: rate.read, Interval: 5 * time.Millisecond})
	c.Start()
	time.Sleep(50 * time.Millisecond)
	c.Stop()
	ticks, _, _, _ := c.Counters()
	if ticks == 0 {
		t.Fatal("background loop never ticked")
	}
	c.Stop() // idempotent
}
