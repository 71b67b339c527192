// Command mutps-loadgen drives a mutps-server with YCSB-style load (or a
// replayed trace file) over TCP and reports throughput and latency
// percentiles — the client-node role in the paper's testbed. The driving
// itself is internal/loadgen; this file is flag parsing and the wiring of
// the four modes (default, -conns, -cluster, -scenario).
//
// Usage:
//
//	mutps-loadgen -addr localhost:7070 -mix A -keys 100000 -ops 100000
//	mutps-loadgen -addr localhost:7070 -trace requests.csv
//	mutps-loadgen -cluster localhost:7071,localhost:7072 -mget 64 -mix C
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"mutps/internal/benchfmt"
	"mutps/internal/cluster"
	"mutps/internal/loadgen"
	"mutps/internal/netserver"
	"mutps/internal/scenario"
	"mutps/internal/workload"
)

// options is every flag plus what run derives from them; each mode reads
// the ones it needs.
type options struct {
	addr, mixName, traceFile, benchJSON string
	keys                                uint64
	theta                               float64
	valueSize, valueSpread              int
	ops, clients, inflight              int
	load                                bool
	opTimeout, ttl                      time.Duration
	cluster                             string // -cluster mode
	mget                                int
	conns                               int // -conns mode
	activeFraction                      float64
	scenario                            string // -scenario mode
	scenarioScale                       float64

	out   io.Writer          // where the run summary goes
	wl    workload.Config    // what -mix/-keys/-theta/-value/-value-spread describe; source seeds it per worker
	trace []workload.Request // -trace, loaded
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mutps-loadgen:", err)
		os.Exit(1)
	}
}

// run is the whole command: parse args, pick the mode, drive it, print
// the summary to out.
func run(args []string, out io.Writer) error {
	o := &options{out: out}
	fs := flag.NewFlagSet("mutps-loadgen", flag.ExitOnError)
	fs.StringVar(&o.addr, "addr", "localhost:7070", "server address")
	fs.StringVar(&o.mixName, "mix", "A", "YCSB mix: A, B, C, E, PUT, GET")
	fs.Uint64Var(&o.keys, "keys", 100_000, "keyspace size")
	fs.Float64Var(&o.theta, "theta", 0.99, "zipfian skew (0 = uniform)")
	fs.IntVar(&o.valueSize, "value", 64, "value size in bytes")
	fs.IntVar(&o.valueSpread, "value-spread", 0,
		"sample put value sizes uniformly in [value, value+spread]; a spread crossing power-of-two boundaries forces item replacement (not in-place update) on the server (0 = fixed size)")
	fs.IntVar(&o.ops, "ops", 100_000, "total operations")
	fs.IntVar(&o.clients, "clients", 4, "concurrent connections")
	fs.IntVar(&o.inflight, "inflight", 1, "requests in flight per connection (1 = one synchronous request at a time; matches the server's per-connection window)")
	fs.BoolVar(&o.load, "load", true, "pre-populate the keyspace first")
	fs.StringVar(&o.traceFile, "trace", "", "replay a CSV trace instead of YCSB, striped across -clients")
	fs.DurationVar(&o.opTimeout, "op-timeout", 0,
		"per-operation deadline: a connection that gets no response for this long after its last send fails the run (0 disables)")
	fs.StringVar(&o.cluster, "cluster", "",
		"comma-separated shard addresses; enables the cluster-aware client (consistent-hash routing, per-shard pipelines) instead of -addr")
	fs.IntVar(&o.mget, "mget", 64,
		"cluster mode: group this many consecutive gets into batched per-shard mget frames (1 = per-key gets)")
	fs.StringVar(&o.benchJSON, "bench-json", "",
		"append a machine-readable JSON-lines result record (ops/s, P50/P99, run parameters) to this file; works for single-node and cluster runs")
	fs.DurationVar(&o.ttl, "ttl", 0,
		"stamp this TTL on every put (single-node mode), driving the server's expiry path under load (0 = no TTL)")
	fs.IntVar(&o.conns, "conns", 0,
		"sparse-activity mode: hold this many open connections and drive only an -active-fraction subset at a time, rotating; measures what mostly-idle connections cost the server (0 = off)")
	fs.Float64Var(&o.activeFraction, "active-fraction", 0.01,
		"sparse-activity mode: fraction of -conns issuing requests at any instant; activity rotates across the whole set in short pipelined bursts")
	fs.StringVar(&o.scenario, "scenario", "",
		"run a scripted dynamic-workload scenario from the benchmark matrix against the server, emitting one normalized record per 100 ms measurement window ('list' prints the matrix); supersedes -mix/-ops")
	fs.Float64Var(&o.scenarioScale, "scenario-scale", 1,
		"multiply every scenario phase duration by this factor (CI smoke runs use ~0.05)")
	fs.Parse(args) // ExitOnError: a malformed command line never returns
	o.inflight = max(o.inflight, 1)

	// One mode per run. A second mode flag, or a trace handed to a mode
	// that scripts its own requests, used to be dropped without a word.
	modes := 0
	for _, set := range []bool{o.scenario != "", o.cluster != "", o.conns > 0} {
		if set {
			modes++
		}
	}
	switch {
	case modes > 1:
		return errors.New("-scenario, -cluster and -conns select different modes; give one")
	case o.traceFile != "" && (o.scenario != "" || o.conns > 0):
		return errors.New("-scenario and -conns generate their own requests and cannot replay -trace")
	case o.clients < 1:
		return fmt.Errorf("-clients must be at least 1, got %d", o.clients)
	case o.conns > 0 && (o.activeFraction <= 0 || o.activeFraction > 1):
		return fmt.Errorf("-active-fraction must be in (0, 1], got %g", o.activeFraction)
	}
	if o.scenario != "" {
		return runScenario(o)
	}

	mixes := map[string]workload.Mix{
		"A": workload.MixYCSBA, "B": workload.MixYCSBB, "C": workload.MixYCSBC,
		"E": workload.MixYCSBE, "PUT": workload.MixPutOnly, "GET": workload.MixYCSBC,
	}
	mix, ok := mixes[o.mixName]
	if !ok {
		return fmt.Errorf("unknown mix %q", o.mixName)
	}
	o.wl = workload.Config{Keys: o.keys, Theta: o.theta, Mix: mix, ValueSize: workload.FixedSize(o.valueSize)}
	if o.valueSpread > 0 {
		o.wl.ValueSize = workload.UniformSize{Min: o.valueSize, Max: o.valueSize + o.valueSpread}
	}
	if o.traceFile != "" {
		var err error
		if o.trace, err = loadgen.ReadTrace(o.traceFile, o.ops); err != nil {
			return err
		}
		fmt.Fprintf(o.out, "replaying %d trace requests\n", len(o.trace))
	}

	if o.cluster != "" {
		return runCluster(o)
	}
	if o.load && o.trace == nil {
		cli, err := netserver.DialTimeout(o.addr, 0, o.opTimeout)
		if err != nil {
			return err
		}
		took, err := loadgen.Load(cli, o.keys, o.valueSize, 1)
		cli.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(o.out, "loaded %d keys in %v\n", o.keys, took.Round(time.Millisecond))
	}
	if o.conns > 0 {
		return runSparse(o)
	}
	return runDefault(o)
}

// source is worker w's request supply out of workers: its stripe of the
// trace when there is one, else a generator over o.wl seeded per worker.
func (o *options) source(w, workers int) loadgen.Source {
	if o.trace != nil {
		return loadgen.Stripe(o.trace, w, workers)
	}
	cfg := o.wl
	cfg.Seed = uint64(w + 1)
	return workload.NewGenerator(cfg)
}

// appendBench appends the run's record to -bench-json, when set, so
// successive runs accumulate into a comparable JSON-lines series.
func (o *options) appendBench(rec benchfmt.Record) error {
	if o.benchJSON == "" {
		return nil
	}
	if err := benchfmt.Append(o.benchJSON, rec); err != nil {
		return err
	}
	fmt.Fprintf(o.out, "bench record appended to %s\n", o.benchJSON)
	return nil
}

// runDefault drives -clients pipelined connections, -inflight requests
// deep each, through -ops requests in total.
func runDefault(o *options) error {
	serverBefore := serverStats(o.addr, o.opTimeout)
	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	res, err := loadgen.Run(o.clients, func(w *loadgen.Worker) error {
		pc, err := netserver.DialPipeline(o.addr, o.inflight)
		if err != nil {
			return err
		}
		defer pc.Close()
		d := loadgen.NewDriver(w, o.source(w.ID, o.clients), o.inflight, o.valueSize, o.ttl, o.opTimeout)
		return d.Drive(pc, loadgen.Share(o.ops, o.clients, w.ID))
	})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&memAfter)
	serverAfter := serverStats(o.addr, o.opTimeout)

	fmt.Fprintf(o.out, "%d ops across %d clients in %v\n", res.Snap.Count, o.clients, res.Elapsed.Round(time.Millisecond))
	res.Print(o.out, "")
	if res.Shed > 0 {
		fmt.Fprintf(o.out, "backpressure: server shed %d requests (retried at -inflight 1, skipped above)\n", res.Shed)
	}
	printAllocSummary(o.out, res.Snap.Count, res.Elapsed, &memBefore, &memAfter, serverBefore, serverAfter)
	return o.appendBench(res.Record("loadgen", map[string]any{
		"mix":        o.mixName,
		"keys":       o.keys,
		"theta":      o.theta,
		"value_size": o.valueSize,
		"ttl_ns":     int64(o.ttl),
		"clients":    o.clients,
		"inflight":   o.inflight,
	}, map[string]any{
		"p95_ns":     res.Snap.Quantile(0.95),
		"max_ns":     res.Snap.Max,
		"backlogged": res.Shed,
	}))
}

// serverStats fetches the server's stats payload on a throwaway
// connection, for the before/after deltas in the run summary. Best effort:
// a server already gone at run end yields nil and the summary omits it.
func serverStats(addr string, opTimeout time.Duration) map[string]float64 {
	cli, err := netserver.DialTimeout(addr, 0, opTimeout)
	if err != nil {
		return nil
	}
	defer cli.Close()
	m, _ := cli.StatsMap() // nil on error
	return m
}

// printAllocSummary reports the allocation and GC cost of the measured
// run: the client side from this process's MemStats delta, the server
// side (when available) from the mutps_go_* runtime metrics delta plus
// the arena's retire/recycle counters. This is the operational readout
// of the GC-quiet write path: near-zero server GC cycles per second under
// replacement-heavy puts.
func printAllocSummary(out io.Writer, ops uint64, elapsed time.Duration,
	before, after *runtime.MemStats, srvBefore, srvAfter map[string]float64) {
	if ops == 0 {
		return
	}
	allocs := after.Mallocs - before.Mallocs
	gcs := after.NumGC - before.NumGC
	pause := time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	fmt.Fprintf(out, "client alloc: %.1f allocs/op, %.1f B/op, %d GC cycles (%.2f/s), %v total pause\n",
		float64(allocs)/float64(ops),
		float64(after.TotalAlloc-before.TotalAlloc)/float64(ops),
		gcs, float64(gcs)/elapsed.Seconds(), pause.Round(10*time.Microsecond))
	if srvBefore == nil || srvAfter == nil {
		return
	}
	if _, ok := srvAfter["mutps_go_gc_cycles_total"]; !ok {
		return
	}
	sgc := srvAfter["mutps_go_gc_cycles_total"] - srvBefore["mutps_go_gc_cycles_total"]
	fmt.Fprintf(out, "server GC: %.0f cycles (%.2f/s), heap live %.1f MiB, pause p99 %v\n",
		sgc, sgc/elapsed.Seconds(),
		srvAfter["mutps_go_heap_live_bytes"]/(1<<20),
		time.Duration(srvAfter[`mutps_go_gc_pause_seconds{q="0.99"}`]*float64(time.Second)).Round(time.Microsecond))
	if ret := srvAfter["mutps_items_retired_total"] - srvBefore["mutps_items_retired_total"]; ret > 0 {
		fmt.Fprintf(out, "server arena: %.0f items retired, %.0f recycled, %.0f pending\n",
			ret, srvAfter["mutps_items_recycled_total"]-srvBefore["mutps_items_recycled_total"],
			srvAfter["mutps_items_retired_pending"])
	}
}

// runCluster drives the shard set through the cluster-aware client:
// consistent-hash routing, one pipelined connection per shard, and
// consecutive gets coalesced into batched per-shard mget frames.
func runCluster(o *options) error {
	addrs := strings.Split(o.cluster, ",")
	cli, err := cluster.Dial(cluster.Config{
		Addrs:     addrs,
		Inflight:  max(o.inflight, 2),
		MGetBatch: o.mget,
	})
	if err != nil {
		return err
	}
	defer cli.Close()
	fmt.Fprintf(o.out, "cluster of %d shards: %s\n", cli.Shards(), strings.Join(addrs, ", "))

	if o.load && o.trace == nil {
		took, err := loadgen.Load(cli, o.keys, o.valueSize, max(o.clients, 8))
		if err != nil {
			return err
		}
		fmt.Fprintf(o.out, "loaded %d keys across %d shards in %v\n", o.keys, cli.Shards(), took.Round(time.Millisecond))
	}

	res, err := loadgen.Run(o.clients, func(w *loadgen.Worker) error {
		s := loadgen.NewSync(w, cli, o.valueSize)
		return s.Drive(o.source(w.ID, o.clients), loadgen.Share(o.ops, o.clients, w.ID), o.mget)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(o.out, "%d ops across %d clients in %v\n", res.Snap.Count, o.clients, res.Elapsed.Round(time.Millisecond))
	res.Print(o.out, fmt.Sprintf(" aggregate over %d shards", cli.Shards()))
	if res.Shed > 0 {
		fmt.Fprintf(o.out, "backpressure: shards shed %d requests\n", res.Shed)
	}

	m := cli.Metrics().SnapshotMap()
	frames := m["mutps_cluster_mget_frames_total"]
	keysPerFrame := 0.0
	if frames > 0 {
		keysPerFrame = m["mutps_cluster_mget_keys_per_frame_sum"] / frames
		fmt.Fprintf(o.out, "fan-out: %.0f mget frames, %.1f keys/frame avg\n", frames, keysPerFrame)
	}
	return o.appendBench(res.Record("cluster-loadgen", map[string]any{
		"shards":     cli.Shards(),
		"mix":        o.mixName,
		"clients":    o.clients,
		"inflight":   o.inflight,
		"batch_size": o.mget,
	}, map[string]any{
		"avg_keys_per_frame": keysPerFrame,
		"mget_frames":        frames,
		"backlogged":         res.Shed,
	}))
}

// runScenario drives one scripted dynamic workload from the scenario
// matrix against a live (possibly autotuned) server — the network-side
// counterpart of the in-process harness in internal/bench — emitting one
// normalized record per measurement window into -bench-json.
func runScenario(o *options) error {
	if o.scenario == "list" {
		fmt.Fprintln(o.out, "scenario matrix:")
		for _, n := range scenario.Names() {
			s, _ := scenario.Lookup(n)
			fmt.Fprintf(o.out, "  %-16s %s (%v)\n", n, s.Description, s.Duration())
		}
		return nil
	}
	sc, ok := scenario.Lookup(o.scenario)
	if !ok {
		return fmt.Errorf("unknown scenario %q; -scenario list shows the matrix", o.scenario)
	}
	if o.scenarioScale != 1 {
		sc = scenario.Scaled(sc, o.scenarioScale)
	}
	cli, err := netserver.DialTimeout(o.addr, 0, o.opTimeout)
	if err != nil {
		return err
	}
	defer cli.Close()

	if o.load {
		took, err := loadgen.Load(cli, sc.Keys, sc.MaxValueSize(), 1)
		if err != nil {
			return err
		}
		fmt.Fprintf(o.out, "loaded %d keys in %v\n", sc.Keys, took.Round(time.Millisecond))
	}

	runner := &scenario.Runner{
		Scenario: sc,
		Bench:    "scenario-net",
		Seed:     1,
		OnPhase: func(i int, ph scenario.Phase) {
			fmt.Fprintf(o.out, "phase %d/%d: %s (%v)\n", i+1, len(sc.Phases), ph.Name, ph.Duration)
		},
	}
	// A second connection samples the server at each window close, so
	// every record also carries the adaptation observables: GC activity,
	// reconfigurations (tuner probes and applies land here), hot-set
	// size, and the live thread split. Best effort — if the connection
	// fails, the records just carry no extras.
	if statsCli, err := netserver.DialTimeout(o.addr, 0, o.opTimeout); err == nil {
		defer statsCli.Close()
		var lastGC, lastReconf float64
		lastT := time.Now()
		if m, err := statsCli.StatsMap(); err == nil {
			lastGC, lastReconf = m["mutps_go_gc_cycles_total"], m["mutps_reconfigurations_total"]
		}
		runner.Extra = func() map[string]any {
			m, err := statsCli.StatsMap()
			if err != nil {
				return nil
			}
			now := time.Now()
			ex := map[string]any{
				"server_reconfigs":  m["mutps_reconfigurations_total"] - lastReconf,
				"server_hot_items":  m["mutps_hotset_size"],
				"server_cr_workers": m[`mutps_workers{layer="cr"}`],
			}
			if dt := now.Sub(lastT).Seconds(); dt > 0 {
				ex["server_gc_cycles_per_sec"] = (m["mutps_go_gc_cycles_total"] - lastGC) / dt
			}
			lastGC, lastReconf, lastT = m["mutps_go_gc_cycles_total"], m["mutps_reconfigurations_total"], now
			return ex
		}
	}
	var emitErr error
	if o.benchJSON != "" {
		runner.Emit = func(rec benchfmt.Record) { emitErr = errors.Join(emitErr, benchfmt.Append(o.benchJSON, rec)) }
	}
	// The runner keeps its own clock and windows; the one-worker Run is
	// there for the shed count.
	var recs []benchfmt.Record
	res, err := loadgen.Run(1, func(w *loadgen.Worker) (err error) {
		runner.Client = loadgen.NewSync(w, cli, sc.MaxValueSize())
		recs, err = runner.Run()
		return err
	})
	if err = errors.Join(err, emitErr); err != nil {
		return err
	}

	// Per-phase summary in script order: mean window throughput and the
	// worst window P99 — the quick-look version of the recovery curve.
	fmt.Fprintf(o.out, "scenario %s: %d windows\n", sc.Name, len(recs))
	for _, ph := range sc.Phases {
		var ops, secs, worstP99 float64
		for _, rec := range recs {
			if rec.Phase != ph.Name {
				continue
			}
			ops += float64(rec.Ops)
			if rec.OpsPerSec > 0 {
				secs += float64(rec.Ops) / rec.OpsPerSec
			}
			worstP99 = max(worstP99, rec.P99Ns)
		}
		if secs == 0 {
			continue
		}
		fmt.Fprintf(o.out, "  %-20s %10.0f ops/s  worst-window P99 %v\n",
			ph.Name, ops/secs, time.Duration(worstP99).Round(time.Microsecond))
	}
	if res.Shed > 0 {
		fmt.Fprintf(o.out, "backpressure: server shed %d requests (retried)\n", res.Shed)
	}
	if o.benchJSON != "" {
		fmt.Fprintf(o.out, "%d window records appended to %s\n", len(recs), o.benchJSON)
	}
	return nil
}

// requireNOFILE fails fast, before any dialing, when the fd limit cannot
// cover the requested connection count — a late EMFILE after thousands of
// dials is a much worse error message.
func requireNOFILE(need int) error {
	var rl syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl); err != nil {
		return nil // no rlimit introspection here: let a real dial error surface
	}
	if rl.Cur < uint64(need) {
		return fmt.Errorf("RLIMIT_NOFILE is %d but this run needs about %d file descriptors "+
			"(-conns plus headroom); raise it with `ulimit -n %d` or lower -conns", rl.Cur, need, need)
	}
	return nil
}

// runSparse opens the full -conns population and rotates -active-fraction
// of it through short pipelined bursts (loadgen.Sparse), then reports what
// the idle rest cost the server.
func runSparse(o *options) error {
	if err := requireNOFILE(o.conns + 64); err != nil {
		return err
	}
	win := max(o.inflight, 8)
	dialStart := time.Now()
	pcs, err := loadgen.DialAll(o.addr, o.conns, win)
	if err != nil {
		return fmt.Errorf("dialing %d connections: %w (server -max-conns or its RLIMIT_NOFILE too low?)", o.conns, err)
	}
	defer loadgen.CloseAll(pcs)
	fmt.Fprintf(o.out, "%d connections open in %v\n", o.conns, time.Since(dialStart).Round(time.Millisecond))

	// Let the accept storm drain and idle buffers strip before measuring.
	time.Sleep(500 * time.Millisecond)

	active := int(float64(o.conns)*o.activeFraction + 0.5)
	active = max(min(active, o.conns), 1)
	res, err := loadgen.Sparse(o.conns, active, o.ops, func(w *loadgen.Worker) func(conn, n int) error {
		d := loadgen.NewDriver(w, o.source(w.ID, active), win, o.valueSize, o.ttl, o.opTimeout)
		return func(conn, n int) error { return d.Drive(pcs[conn], n) }
	})
	if err != nil {
		return err
	}
	after := serverStats(o.addr, o.opTimeout) // a nil map reads as all zeros

	fmt.Fprintf(o.out, "sparse: %d conns, %d active at a time (fraction %g), burst %d, window %d\n",
		o.conns, active, o.activeFraction, loadgen.SparseBurst, win)
	fmt.Fprintf(o.out, "%d ops in %v\n", res.Snap.Count, res.Elapsed.Round(time.Millisecond))
	res.Print(o.out, "")
	if res.Shed > 0 {
		fmt.Fprintf(o.out, "backpressure: server shed %d requests\n", res.Shed)
	}
	if after != nil {
		fmt.Fprintf(o.out, "server: %.0f goroutines, %.0f conns (%.0f idle), leased buffers %.1f KiB, heap live %.1f MiB, RSS %.1f MiB\n",
			after["mutps_go_goroutines"], after["mutps_net_connections"], after["mutps_net_idle_conns"],
			after["mutps_net_leased_buffer_bytes"]/1024,
			after["mutps_go_heap_live_bytes"]/(1<<20), after["mutps_proc_rss_bytes"]/(1<<20))
	}
	return o.appendBench(res.Record("sparse-net", map[string]any{
		"conns":           o.conns,
		"active_fraction": o.activeFraction,
		"active_conns":    active,
		"inflight":        win,
		"mix":             o.mixName,
	}, map[string]any{
		"max_ns":              res.Snap.Max,
		"backlogged":          res.Shed,
		"server_goroutines":   after["mutps_go_goroutines"],
		"server_idle_conns":   after["mutps_net_idle_conns"],
		"server_leased_bytes": after["mutps_net_leased_buffer_bytes"],
		"server_heap_live":    after["mutps_go_heap_live_bytes"],
		"server_rss_bytes":    after["mutps_proc_rss_bytes"],
	}))
}
