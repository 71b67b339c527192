package bench

import (
	"os"
	"testing"
	"time"

	"mutps/internal/benchfmt"
	"mutps/internal/kvcore"
	"mutps/internal/loadgen"
	"mutps/internal/scenario"
	"mutps/internal/tuner"
	"mutps/internal/workload"
)

// openScenarioStore builds a store sized for scenario runs and preloads
// the full keyspace at the scenario's largest value size.
func openScenarioStore(t *testing.T, sc scenario.Scenario) *kvcore.Store {
	t.Helper()
	s, err := kvcore.Open(kvcore.Config{
		Engine: kvcore.Hash, Workers: 4, CRWorkers: 2, HotItems: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	val := make([]byte, sc.MaxValueSize())
	for k := uint64(0); k < sc.Keys; k++ {
		s.Preload(k, val)
	}
	return s
}

// shrink shrinks a registry scenario to smoke size: short phases over a
// small keyspace.
func shrink(t *testing.T, name string, timeScale float64, keys uint64) scenario.Scenario {
	t.Helper()
	sc, ok := scenario.Lookup(name)
	if !ok {
		t.Fatalf("scenario %q not in matrix", name)
	}
	sc = scenario.Scaled(sc, timeScale)
	sc.Keys = keys
	return sc
}

// maybeAppend streams records into $BENCH_SCENARIOS_OUT when set (the CI
// smoke artifact).
func maybeAppend(t *testing.T, recs []benchfmt.Record) {
	t.Helper()
	out := os.Getenv("BENCH_SCENARIOS_OUT")
	if out == "" {
		return
	}
	for _, rec := range recs {
		if err := benchfmt.Append(out, rec); err != nil {
			t.Fatal(err)
		}
	}
	// Re-read the artifact so a schema violation fails the run that
	// produced it, not a later consumer.
	if _, err := benchfmt.ReadFile(out); err != nil {
		t.Fatalf("artifact failed validation: %v", err)
	}
}

// TestScenarioMatrixSmoke runs two scenarios of the matrix at reduced
// duration against a live store, validating every emitted record. With
// BENCH_SCENARIOS_OUT set it also writes (and re-validates) the
// normalized artifact — the CI smoke path.
func TestScenarioMatrixSmoke(t *testing.T) {
	for _, name := range []string{"ycsb-mix", "size-shift"} {
		sc := shrink(t, name, 0.05, 2048) // 2s phases -> 100ms
		s := openScenarioStore(t, sc)
		r := &scenario.Runner{
			Scenario: sc,
			Client:   loadgen.NewSync(nil, s, sc.MaxValueSize()),
			Window:   25 * time.Millisecond,
			Seed:     42,
		}
		recs, err := r.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		phases := map[string]bool{}
		for _, rec := range recs {
			if err := rec.Validate(); err != nil {
				t.Fatalf("%s: invalid record %+v: %v", name, rec, err)
			}
			if rec.Scenario != name {
				t.Fatalf("record names scenario %q, want %q", rec.Scenario, name)
			}
			phases[rec.Phase] = true
		}
		if len(phases) != len(sc.Phases) {
			t.Fatalf("%s: windows cover %d phases, want %d", name, len(phases), len(sc.Phases))
		}
		maybeAppend(t, recs)
	}
}

// TestScenarioSizeShiftRecovery is the Fig 14 harness: the size-shift
// scenario runs twice over identical stores — once frozen at the
// configuration tuned for the pre-shift workload (the static baseline),
// once with the closed-loop controller live (a retune forced at the phase
// boundary on top of the natural triggers). It reports the post-shift throughput of
// both runs and the tuned run's recovery time: the first post-shift
// window at ≥90% of the tuned run's own post-shift steady state.
//
// Absolute margins are machine-dependent (CI runs this on one core), so
// the test asserts mechanism — retunes happened online, no downtime, a
// recovery window exists — and records the measured numbers.
func TestScenarioSizeShiftRecovery(t *testing.T) {
	sc := shrink(t, "size-shift", 0.25, 8192) // 3s phases -> 750ms
	window := 75 * time.Millisecond

	run := func(tuned bool) ([]benchfmt.Record, uint64) {
		s := openScenarioStore(t, sc)
		// Close eagerly at the end of the run (Close is idempotent, so the
		// t.Cleanup in openScenarioStore stays harmless): the static run's
		// busy-polling workers must not contend with the tuned run.
		defer s.Close()
		tn := &kvcore.Tunable{S: s, Window: 3 * time.Millisecond, MaxCache: 1024, CacheStep: 512}
		ctl := tuner.NewController(tn, tuner.ControllerConfig{
			Interval: 25 * time.Millisecond,
			Cooldown: 300 * time.Millisecond,
			Rate:     s.Ops,
		})

		// Both runs start from the configuration tuned for the pre-shift
		// workload: warm with pre-shift traffic, search once.
		warmCli := loadgen.NewSync(nil, s, sc.MaxValueSize())
		warm := workload.NewGenerator(workload.Config{
			Keys: sc.Keys, Theta: 0.99, Mix: workload.MixYCSBA,
			ValueSize: workload.FixedSize(512), Seed: 5,
		})
		warmUntil := time.Now().Add(150 * time.Millisecond)
		for time.Now().Before(warmUntil) {
			if err := warmCli.Do(warm.Next()); err != nil {
				t.Fatal(err)
			}
		}
		ctl.Retune()
		preCfg := tn.Current()

		if tuned {
			ctl.Start()
			defer ctl.Stop()
		}
		bench := "scenario-static"
		if tuned {
			bench = "scenario-tuned"
		}
		r := &scenario.Runner{
			Scenario: sc,
			Client:   loadgen.NewSync(nil, s, sc.MaxValueSize()),
			Bench:    bench,
			Window:   window,
			Seed:     42,
			OnPhase: func(i int, _ scenario.Phase) {
				if tuned && i > 0 {
					// Operator-forced search at the shift, alongside the
					// natural throughput/latency triggers.
					go ctl.Retune()
				}
			},
			Extra: func() map[string]any {
				ticks, triggers, retunes, reverts := ctl.Counters()
				cur := tn.Current()
				return map[string]any{
					"ticks": ticks, "triggers": triggers,
					"retunes": retunes, "reverts": reverts,
					"cache_items": cur.CacheItems, "mr_threads": cur.MRThreads,
				}
			},
		}
		recs, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		_, _, retunes, _ := ctl.Counters()
		t.Logf("%s: pre-shift config %+v, final config %+v, retunes %d",
			bench, preCfg, tn.Current(), retunes)
		return recs, retunes
	}

	staticRecs, staticRetunes := run(false)
	tunedRecs, tunedRetunes := run(true)
	if staticRetunes != 1 {
		t.Fatalf("static baseline ran %d searches, want exactly the pre-shift one", staticRetunes)
	}
	if tunedRetunes < 2 {
		t.Fatalf("tuned run never retuned online (retunes=%d)", tunedRetunes)
	}

	postRate := func(recs []benchfmt.Record) (rates []float64) {
		for _, rec := range recs {
			if rec.Phase == "post-shift" {
				rates = append(rates, rec.OpsPerSec)
			}
		}
		return rates
	}
	staticPost := postRate(staticRecs)
	tunedPost := postRate(tunedRecs)
	if len(tunedPost) < 3 || len(staticPost) < 3 {
		t.Fatalf("too few post-shift windows: tuned %d static %d", len(tunedPost), len(staticPost))
	}

	// Steady state = mean of the final third; recovery = first window at
	// ≥90% of it.
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	steady := mean(tunedPost[len(tunedPost)*2/3:])
	recovery := -1
	for i, r := range tunedPost {
		if r >= 0.9*steady {
			recovery = i
			break
		}
	}
	if recovery < 0 {
		t.Fatalf("tuned run never reached 90%% of its post-shift steady state (%v vs %.0f)",
			tunedPost, steady)
	}
	recoveryMs := float64(recovery) * window.Seconds() * 1e3
	staticMean, tunedMean := mean(staticPost), mean(tunedPost)
	margin := tunedMean/staticMean - 1
	t.Logf("post-shift: tuned %.0f ops/s vs static %.0f ops/s (margin %+.1f%%), "+
		"recovery window %d (≤%.0f ms), steady %.0f ops/s",
		tunedMean, staticMean, margin*100, recovery, recoveryMs+float64(window.Milliseconds()), steady)

	summary := benchfmt.New("scenario-summary")
	summary.Scenario = sc.Name
	summary.Ops = 0
	summary.OpsPerSec = tunedMean
	summary.Extra = map[string]any{
		"static_post_ops_per_sec": staticMean,
		"tuned_post_ops_per_sec":  tunedMean,
		"margin":                  margin,
		"recovery_window":         recovery,
		"recovery_ms_upper":       recoveryMs + float64(window.Milliseconds()),
		"tuned_retunes":           tunedRetunes,
	}
	maybeAppend(t, append(append([]benchfmt.Record{}, staticRecs...),
		append(tunedRecs, summary)...))
}
