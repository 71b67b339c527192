// Command mutps-loadgen drives a mutps-server with YCSB-style load (or a
// replayed trace file) over TCP and reports throughput and latency
// percentiles — the client-node role in the paper's testbed.
//
// Usage:
//
//	mutps-loadgen -addr localhost:7070 -mix A -keys 100000 -ops 100000
//	mutps-loadgen -addr localhost:7070 -trace requests.csv
//	mutps-loadgen -cluster localhost:7071,localhost:7072 -mget 64 -mix C
package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mutps/internal/benchfmt"
	"mutps/internal/cluster"
	"mutps/internal/netserver"
	"mutps/internal/obs"
	"mutps/internal/scenario"
	"mutps/internal/workload"
)

// backlogged counts requests the server shed with a retryable
// StatusBacklogged reply: retried where that cannot reorder anything (one
// request in flight), skipped otherwise, reported either way so overload
// is visible in the run summary instead of aborting it.
var backlogged atomic.Uint64

// backloggedRetryDelay is the backoff before retrying a shed request.
const backloggedRetryDelay = 200 * time.Microsecond

// retryShed runs one synchronous call until the server stops shedding it,
// backing off between attempts, and returns its final error.
func retryShed(do func() error) error {
	for {
		err := do()
		if !errors.Is(err, netserver.ErrBacklogged) {
			return err
		}
		backlogged.Add(1)
		time.Sleep(backloggedRetryDelay)
	}
}

// printLatency prints a run's latency percentiles.
func printLatency(snap obs.HistSnapshot) {
	pct := func(p float64) time.Duration { return time.Duration(snap.Quantile(p)).Round(time.Microsecond) }
	fmt.Printf("latency: P50 %v  P95 %v  P99 %v  max %v\n",
		pct(0.50), pct(0.95), pct(0.99), time.Duration(snap.Max).Round(time.Microsecond))
}

// newGen returns worker w's request source: a replay of trace when there is
// one, else a generator over cfg seeded per worker.
func newGen(trace []workload.Request, cfg workload.Config, w int) interface{ Next() workload.Request } {
	if trace != nil {
		return workload.NewTraceGenerator(trace)
	}
	cfg.Seed = uint64(w + 1)
	return workload.NewGenerator(cfg)
}

// loadKeys stores val under keys [0, n) over one synchronous connection.
func loadKeys(cli *netserver.Client, n uint64, val []byte) {
	start := time.Now()
	for k := uint64(0); k < n; k++ {
		if err := retryShed(func() error { return cli.Put(k, val) }); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("loaded %d keys in %v\n", n, time.Since(start).Round(time.Millisecond))
}

// options is every flag plus what main derives from them; each mode reads
// the ones it needs.
type options struct {
	addr           string
	mixName        string
	keys           uint64
	theta          float64
	valueSize      int
	valueSpread    int
	ops            int
	clients        int
	inflight       int
	load           bool
	traceFile      string
	opTimeout      time.Duration
	cluster        string
	mget           int
	largeThreshold int
	largeShards    string
	benchJSON      string
	ttl            time.Duration
	conns          int
	activeFraction float64
	scenario       string
	scenarioScale  float64
	scenarioWindow time.Duration

	wl    workload.Config    // what -mix/-keys/-theta/-value/-value-spread describe; newGen seeds it per worker
	trace []workload.Request // -trace, loaded
}

func main() {
	o := &options{}
	flag.StringVar(&o.addr, "addr", "localhost:7070", "server address")
	flag.StringVar(&o.mixName, "mix", "A", "YCSB mix: A, B, C, E, PUT, GET")
	flag.Uint64Var(&o.keys, "keys", 100_000, "keyspace size")
	flag.Float64Var(&o.theta, "theta", 0.99, "zipfian skew (0 = uniform)")
	flag.IntVar(&o.valueSize, "value", 64, "value size in bytes")
	flag.IntVar(&o.valueSpread, "value-spread", 0,
		"sample put value sizes uniformly in [value, value+spread]; a spread crossing power-of-two boundaries forces item replacement (not in-place update) on the server (0 = fixed size)")
	flag.IntVar(&o.ops, "ops", 100_000, "total operations")
	flag.IntVar(&o.clients, "clients", 4, "concurrent connections")
	flag.IntVar(&o.inflight, "inflight", 1, "requests in flight per connection (1 = one synchronous request at a time; matches the server's per-connection window)")
	flag.BoolVar(&o.load, "load", true, "pre-populate the keyspace first")
	flag.StringVar(&o.traceFile, "trace", "", "replay a CSV trace instead of YCSB")
	flag.DurationVar(&o.opTimeout, "op-timeout", 0,
		"per-operation deadline: a connection that gets no response for this long after its last send fails the run (0 disables)")
	flag.StringVar(&o.cluster, "cluster", "",
		"comma-separated shard addresses; enables the cluster-aware client (consistent-hash routing, per-shard pipelines) instead of -addr")
	flag.IntVar(&o.mget, "mget", 64,
		"cluster mode: group this many consecutive gets into batched per-shard mget frames (1 = per-key gets)")
	flag.IntVar(&o.largeThreshold, "large-threshold", 0,
		"cluster mode: route puts with values >= this many bytes to the large-object shard set (0 disables size-aware placement)")
	flag.StringVar(&o.largeShards, "large-shards", "",
		"cluster mode: comma-separated shard indices forming the large-object set (default: the last shard)")
	flag.StringVar(&o.benchJSON, "bench-json", "",
		"append a machine-readable JSON-lines result record (ops/s, P50/P99, run parameters) to this file; works for single-node and cluster runs")
	flag.DurationVar(&o.ttl, "ttl", 0,
		"stamp this TTL on every put (single-node mode), driving the server's expiry path under load (0 = no TTL)")
	flag.IntVar(&o.conns, "conns", 0,
		"sparse-activity mode: hold this many open connections and drive only an -active-fraction subset at a time, rotating; measures what mostly-idle connections cost the server (0 = off)")
	flag.Float64Var(&o.activeFraction, "active-fraction", 0.01,
		"sparse-activity mode: fraction of -conns issuing requests at any instant; activity rotates across the whole set in short pipelined bursts")
	flag.StringVar(&o.scenario, "scenario", "",
		"run a scripted dynamic-workload scenario from the benchmark matrix against the server, emitting one normalized record per measurement window ('list' prints the matrix); supersedes -mix/-ops")
	flag.Float64Var(&o.scenarioScale, "scenario-scale", 1,
		"multiply every scenario phase duration by this factor (CI smoke runs use ~0.05)")
	flag.DurationVar(&o.scenarioWindow, "scenario-window", 100*time.Millisecond,
		"measurement-window width of -scenario records")
	flag.Parse()
	o.inflight = max(o.inflight, 1)

	if o.scenario != "" {
		runScenario(o)
		return
	}

	mixes := map[string]workload.Mix{
		"A": workload.MixYCSBA, "B": workload.MixYCSBB, "C": workload.MixYCSBC,
		"E": workload.MixYCSBE, "PUT": workload.MixPutOnly, "GET": workload.MixYCSBC,
	}
	mix, ok := mixes[o.mixName]
	if !ok {
		log.Fatalf("unknown mix %q", o.mixName)
	}
	o.wl = workload.Config{Keys: o.keys, Theta: o.theta, Mix: mix, ValueSize: workload.FixedSize(o.valueSize)}
	if o.valueSpread > 0 {
		o.wl.ValueSize = workload.UniformSize{Min: o.valueSize, Max: o.valueSize + o.valueSpread}
	}

	if o.traceFile != "" {
		f, err := os.Open(o.traceFile)
		if err != nil {
			log.Fatal(err)
		}
		o.trace, err = workload.ReadTrace(f, o.ops)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("replaying %d trace requests\n", len(o.trace))
	}

	if o.cluster != "" {
		runCluster(o)
		return
	}

	if o.load && o.trace == nil {
		cli, err := netserver.DialTimeout(o.addr, 0, o.opTimeout)
		if err != nil {
			log.Fatal(err)
		}
		loadKeys(cli, o.keys, make([]byte, o.valueSize))
		cli.Close()
	}

	if o.conns > 0 {
		runSparse(o)
		return
	}

	// Latencies land in a fixed-bucket log₂ histogram sharded per client —
	// O(1) memory regardless of -ops, where the old sort-all-samples
	// approach kept every duration in RAM.
	perClient := o.ops / o.clients
	hist := obs.NewHistogram(o.clients)
	var wg sync.WaitGroup
	serverBefore := serverGCSnapshot(o.addr, o.opTimeout)
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	for c := 0; c < o.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pc, err := netserver.DialPipeline(o.addr, o.inflight)
			if err != nil {
				log.Fatal(err)
			}
			defer pc.Close()
			d := newDriver(c, newGen(o.trace, o.wl, c), hist, o.inflight, o.valueSize, o.ttl, o.opTimeout)
			d.drive(pc, perClient)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	serverAfter := serverGCSnapshot(o.addr, o.opTimeout)

	snap := hist.Snapshot()
	fmt.Printf("%d ops across %d clients in %v\n", snap.Count, o.clients, elapsed.Round(time.Millisecond))
	fmt.Printf("throughput: %.0f ops/s\n", float64(snap.Count)/elapsed.Seconds())
	printLatency(snap)
	if n := backlogged.Load(); n > 0 {
		fmt.Printf("backpressure: server shed %d requests (retried at -inflight 1, skipped above)\n", n)
	}
	printAllocSummary(snap.Count, elapsed, &memBefore, &memAfter, serverBefore, serverAfter)
	if o.benchJSON != "" {
		rec := benchfmt.New("loadgen")
		rec.Config = map[string]any{
			"mix":        o.mixName,
			"keys":       o.keys,
			"theta":      o.theta,
			"value_size": o.valueSize,
			"ttl_ns":     int64(o.ttl),
			"clients":    o.clients,
			"inflight":   o.inflight,
		}
		rec.Ops = snap.Count
		rec.OpsPerSec = float64(snap.Count) / elapsed.Seconds()
		rec.P50Ns = float64(snap.Quantile(0.50))
		rec.P99Ns = float64(snap.Quantile(0.99))
		rec.Extra = map[string]any{
			"p95_ns":     snap.Quantile(0.95),
			"max_ns":     snap.Max,
			"backlogged": backlogged.Load(),
		}
		appendBench(o.benchJSON, rec)
	}
}

// serverGCSnapshot fetches the server's stats payload on a throwaway
// connection, for the before/after GC delta in the run summary. Best
// effort: a server already gone at run end yields nil and the summary
// omits the server column.
func serverGCSnapshot(addr string, opTimeout time.Duration) map[string]float64 {
	cli, err := netserver.DialTimeout(addr, 0, opTimeout)
	if err != nil {
		return nil
	}
	defer cli.Close()
	m, err := cli.StatsMap()
	if err != nil {
		return nil
	}
	return m
}

// printAllocSummary reports the allocation and GC cost of the measured
// run: the client side from this process's MemStats delta, the server
// side (when available) from the mutps_go_* runtime metrics delta plus
// the arena's retire/recycle counters. This is the operational readout
// of the GC-quiet write path — a server running with the arena shows
// near-zero GC cycles per second here; -arena-off shows the difference.
func printAllocSummary(ops uint64, elapsed time.Duration,
	before, after *runtime.MemStats, srvBefore, srvAfter map[string]float64) {
	if ops == 0 {
		return
	}
	allocs := after.Mallocs - before.Mallocs
	gcs := after.NumGC - before.NumGC
	pause := time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	fmt.Printf("client alloc: %.1f allocs/op, %.1f B/op, %d GC cycles (%.2f/s), %v total pause\n",
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
	fmt.Printf("server GC: %.0f cycles (%.2f/s), heap live %.1f MiB, pause p99 %v\n",
		sgc, sgc/elapsed.Seconds(),
		srvAfter["mutps_go_heap_live_bytes"]/(1<<20),
		time.Duration(srvAfter[`mutps_go_gc_pause_seconds{q="0.99"}`]*float64(time.Second)).Round(time.Microsecond))
	if ret := srvAfter["mutps_items_retired_total"] - srvBefore["mutps_items_retired_total"]; ret > 0 {
		fmt.Printf("server arena: %.0f items retired, %.0f recycled, %.0f pending\n",
			ret, srvAfter["mutps_items_recycled_total"]-srvBefore["mutps_items_recycled_total"],
			srvAfter["mutps_items_retired_pending"])
	}
}

// parseShardList parses "0,2,3" into shard indices.
func parseShardList(s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			log.Fatalf("bad shard index %q in -large-shards", part)
		}
		out = append(out, n)
	}
	return out
}

// runCluster drives the shard set through the cluster-aware client:
// consistent-hash routing, one pipelined connection per shard, and
// consecutive gets coalesced into batched per-shard mget frames. Batch
// latency is recorded once per key (every key in a frame experienced it).
func runCluster(o *options) {
	addrs := strings.Split(o.cluster, ",")
	cli, err := cluster.Dial(cluster.Config{
		Addrs:         addrs,
		Inflight:      max(o.inflight, 2),
		MGetBatch:     o.mget,
		SizeThreshold: o.largeThreshold,
		LargeShards:   parseShardList(o.largeShards),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()
	fmt.Printf("cluster of %d shards: %s\n", cli.Shards(), strings.Join(addrs, ", "))

	if o.load && o.trace == nil {
		// Stripe the load across goroutines: cluster puts are synchronous
		// (one RTT each), so concurrency is what overlaps the per-shard
		// round trips.
		loaders := max(o.clients, 8)
		start := time.Now()
		var lwg sync.WaitGroup
		for w := 0; w < loaders; w++ {
			lwg.Add(1)
			go func(w int) {
				defer lwg.Done()
				val := make([]byte, o.valueSize)
				for k := uint64(w); k < o.wl.Keys; k += uint64(loaders) {
					if err := retryShed(func() error { return cli.Put(k, val) }); err != nil {
						log.Fatal(err)
					}
				}
			}(w)
		}
		lwg.Wait()
		fmt.Printf("loaded %d keys across %d shards in %v\n",
			o.wl.Keys, cli.Shards(), time.Since(start).Round(time.Millisecond))
	}

	perClient := o.ops / o.clients
	hist := obs.NewHistogram(o.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < o.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			clusterWorker(c, cli, newGen(o.trace, o.wl, c), perClient, o, hist)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	snap := hist.Snapshot()
	opsPerSec := float64(snap.Count) / elapsed.Seconds()
	fmt.Printf("%d ops across %d clients in %v\n", snap.Count, o.clients, elapsed.Round(time.Millisecond))
	fmt.Printf("throughput: %.0f ops/s aggregate over %d shards\n", opsPerSec, cli.Shards())
	printLatency(snap)
	if n := backlogged.Load(); n > 0 {
		fmt.Printf("backpressure: shards shed %d requests\n", n)
	}

	m := cli.Metrics().SnapshotMap()
	frames := m["mutps_cluster_mget_frames_total"]
	keysPerFrame := 0.0
	if frames > 0 {
		keysPerFrame = m["mutps_cluster_mget_keys_per_frame_sum"] / frames
		fmt.Printf("fan-out: %.0f mget frames, %.1f keys/frame avg, %.0f large-routed puts\n",
			frames, keysPerFrame, m["mutps_cluster_large_routed_total"])
	}
	if o.benchJSON != "" {
		rec := benchfmt.New("cluster-loadgen")
		rec.Config = map[string]any{
			"shards":         cli.Shards(),
			"mix":            o.mixName,
			"clients":        o.clients,
			"inflight":       o.inflight,
			"batch_size":     o.mget,
			"size_threshold": o.largeThreshold,
		}
		rec.Ops = snap.Count
		rec.OpsPerSec = opsPerSec
		rec.P50Ns = float64(snap.Quantile(0.50))
		rec.P99Ns = float64(snap.Quantile(0.99))
		rec.Extra = map[string]any{
			"avg_keys_per_frame": keysPerFrame,
			"mget_frames":        frames,
			"backlogged":         backlogged.Load(),
		}
		appendBench(o.benchJSON, rec)
	}
}

// clusterWorker issues one client goroutine's share of the workload:
// consecutive gets accumulate into an mget batch that flushes at
// -mget keys (or when a non-get op arrives, preserving rough
// program order), everything else runs point-to-point.
func clusterWorker(c int, cli *cluster.Client,
	gen interface{ Next() workload.Request }, ops int, o *options, hist *obs.Histogram) {
	batch := make([]uint64, 0, max(o.mget, 1))
	buf := make([]byte, o.valueSize)
	flushBatch := func() {
		if len(batch) == 0 {
			return
		}
		// Gets are idempotent: a shed frame retries the whole frame set, and
		// the latency recorded is that of the attempt that was served.
		var t0 time.Time
		err := retryShed(func() error {
			t0 = time.Now()
			_, _, err := cli.MGet(batch)
			return err
		})
		if err != nil {
			log.Fatalf("client %d: mget: %v", c, err)
		}
		lat := uint64(time.Since(t0))
		for range batch {
			hist.Record(c, lat)
		}
		batch = batch[:0]
	}
	for i := 0; i < ops; i++ {
		req := gen.Next()
		if req.Op == workload.OpGet && o.mget > 1 {
			batch = append(batch, req.Key)
			if len(batch) >= o.mget {
				flushBatch()
			}
			continue
		}
		flushBatch()
		t0 := time.Now()
		err := retryShed(func() (err error) {
			switch req.Op {
			case workload.OpGet:
				_, _, err = cli.Get(req.Key)
			case workload.OpPut:
				v := buf
				if req.ValueSize > 0 && req.ValueSize != len(buf) {
					v = make([]byte, req.ValueSize)
				}
				err = cli.Put(req.Key, v)
			case workload.OpDelete:
				_, err = cli.Delete(req.Key)
			case workload.OpScan:
				// Scans are single-shard ops with no cross-shard merge yet;
				// cluster mode degrades them to a get on the routed shard.
				_, _, err = cli.Get(req.Key)
			}
			return err
		})
		if err != nil {
			log.Fatalf("client %d: %v", c, err)
		}
		hist.Record(c, uint64(time.Since(t0)))
	}
	flushBatch()
}

// appendBench stamps and appends one normalized record (schema
// mutps-bench/v1, the same shape every BENCH_*.json artifact carries) so
// successive runs accumulate into a comparable JSON-lines series.
func appendBench(path string, rec benchfmt.Record) {
	rec.UnixNanos = time.Now().UnixNano()
	if err := benchfmt.Append(path, rec); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bench record appended to %s\n", path)
}

// scenarioClient adapts a synchronous network connection to the scenario
// runner's Client interface, with the usual shed-request retry.
type scenarioClient struct {
	cli *netserver.Client
	buf []byte
}

func (sc *scenarioClient) Do(req workload.Request) error {
	return retryShed(func() (err error) {
		switch req.Op {
		case workload.OpGet:
			_, _, err = sc.cli.Get(req.Key)
		case workload.OpPut:
			if req.ValueSize > cap(sc.buf) {
				sc.buf = make([]byte, req.ValueSize)
			}
			err = sc.cli.Put(req.Key, sc.buf[:req.ValueSize])
		case workload.OpDelete:
			_, err = sc.cli.Delete(req.Key)
		case workload.OpScan:
			_, err = sc.cli.Scan(req.Key, req.ScanCount)
		}
		return err
	})
}

// runScenario drives one scripted dynamic workload from the scenario
// matrix against a live server — the network-side counterpart of the
// in-process harness in internal/bench — emitting one normalized record
// per measurement window into -bench-json. This is what produces a
// BENCH_scenarios.json series for a real (possibly autotuned) server
// rather than an in-process store.
func runScenario(o *options) {
	if o.scenario == "list" {
		fmt.Println("scenario matrix:")
		for _, n := range scenario.Names() {
			s, _ := scenario.Lookup(n)
			fmt.Printf("  %-16s %s (%v)\n", n, s.Description, s.Duration())
		}
		return
	}
	sc, ok := scenario.Lookup(o.scenario)
	if !ok {
		log.Fatalf("unknown scenario %q; -scenario list shows the matrix", o.scenario)
	}
	if o.scenarioScale != 1 {
		sc = scenario.Scaled(sc, o.scenarioScale)
	}
	cli, err := netserver.DialTimeout(o.addr, 0, o.opTimeout)
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()

	if o.load {
		loadKeys(cli, sc.Keys, make([]byte, sc.MaxValueSize()))
	}

	runner := &scenario.Runner{
		Scenario: sc,
		Client:   &scenarioClient{cli: cli, buf: make([]byte, sc.MaxValueSize())},
		Bench:    "scenario-net",
		Window:   o.scenarioWindow,
		Seed:     1,
		OnPhase: func(i int, ph scenario.Phase) {
			fmt.Printf("phase %d/%d: %s (%v)\n", i+1, len(sc.Phases), ph.Name, ph.Duration)
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
	if o.benchJSON != "" {
		runner.Emit = func(rec benchfmt.Record) {
			if err := benchfmt.Append(o.benchJSON, rec); err != nil {
				log.Fatal(err)
			}
		}
	}
	recs, err := runner.Run()
	if err != nil {
		log.Fatal(err)
	}

	// Per-phase summary in script order: mean window throughput and the
	// worst window P99 — the quick-look version of the recovery curve.
	fmt.Printf("scenario %s: %d windows\n", sc.Name, len(recs))
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
			if rec.P99Ns > worstP99 {
				worstP99 = rec.P99Ns
			}
		}
		if secs == 0 {
			continue
		}
		fmt.Printf("  %-20s %10.0f ops/s  worst-window P99 %v\n",
			ph.Name, ops/secs, time.Duration(worstP99).Round(time.Microsecond))
	}
	if n := backlogged.Load(); n > 0 {
		fmt.Printf("backpressure: server shed %d requests (retried)\n", n)
	}
	if o.benchJSON != "" {
		fmt.Printf("%d window records appended to %s\n", len(recs), o.benchJSON)
	}
}

// sparseBurstOps is how many pipelined requests one activation issues
// before the worker rotates to the next connection. Short enough that
// every connection cycles through idle many times per run, long enough to
// amortize the wakeup.
const sparseBurstOps = 32

// requireNOFILE fails fast, before any dialing, when the fd limit cannot
// cover the requested connection count — a late EMFILE after thousands of
// dials is a much worse error message.
func requireNOFILE(need int) {
	var rl syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl); err != nil {
		return // no rlimit introspection here: let a real dial error surface
	}
	if rl.Cur < uint64(need) {
		log.Fatalf("RLIMIT_NOFILE is %d but this run needs about %d file descriptors "+
			"(-conns plus headroom); raise it with `ulimit -n %d` or lower -conns",
			rl.Cur, need, need)
	}
}

// runSparse opens the full connection population, then lets a worker pool
// the size of the active fraction claim connections round-robin, each
// issuing one short pipelined burst per claim. Instantaneous concurrency
// equals the pool size, so the server sees fraction×conns active and the
// rest idle at every moment, with the active set continuously rotating.
// This is the million-connection front-end workload shape — most clients
// idle, a few bursting — that separates the transports: per-connection
// goroutines and buffers charge for every open socket, the epoll transport
// only for the active ones.
func runSparse(o *options) {
	if o.activeFraction <= 0 || o.activeFraction > 1 {
		log.Fatalf("-active-fraction must be in (0, 1], got %g", o.activeFraction)
	}
	requireNOFILE(o.conns + 64)
	win := max(o.inflight, 8)

	pcs := make([]*netserver.PipelineClient, o.conns)
	dialStart := time.Now()
	dialers := min(64, o.conns)
	var dialErr atomic.Value
	var nextDial atomic.Int64
	var dwg sync.WaitGroup
	for d := 0; d < dialers; d++ {
		dwg.Add(1)
		go func() {
			defer dwg.Done()
			for dialErr.Load() == nil {
				i := int(nextDial.Add(1)) - 1
				if i >= o.conns {
					return
				}
				pc, err := netserver.DialPipeline(o.addr, win)
				if err != nil {
					dialErr.Store(err)
					return
				}
				pcs[i] = pc
			}
		}()
	}
	dwg.Wait()
	if err, _ := dialErr.Load().(error); err != nil {
		log.Fatalf("dialing %d connections: %v (server -max-conns or its RLIMIT_NOFILE too low?)",
			o.conns, err)
	}
	fmt.Printf("%d connections open in %v\n", o.conns, time.Since(dialStart).Round(time.Millisecond))
	defer func() {
		for _, pc := range pcs {
			pc.Close()
		}
	}()

	// Let the accept storm drain and idle buffers strip before measuring.
	time.Sleep(500 * time.Millisecond)

	active := int(float64(o.conns)*o.activeFraction + 0.5)
	active = max(min(active, o.conns), 1)

	hist := obs.NewHistogram(active)
	locks := make([]sync.Mutex, o.conns)
	var remaining, cursor atomic.Int64
	remaining.Store(int64(o.ops))
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < active; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d := newDriver(w, newGen(nil, o.wl, w), hist, win, o.valueSize, o.ttl, o.opTimeout)
			for {
				burst := sparseBurstOps
				if n := remaining.Add(-sparseBurstOps); n < 0 {
					burst += int(n) // final partial burst
					if burst <= 0 {
						return
					}
				}
				// Round-robin claim; the mutex only matters when the cursor
				// laps a still-busy connection (active ≈ conns).
				i := int(cursor.Add(1)-1) % o.conns
				locks[i].Lock()
				d.drive(pcs[i], burst)
				locks[i].Unlock()
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	after := serverGCSnapshot(o.addr, o.opTimeout)

	snap := hist.Snapshot()
	opsPerSec := float64(snap.Count) / elapsed.Seconds()
	fmt.Printf("sparse: %d conns, %d active at a time (fraction %g), burst %d, window %d\n",
		o.conns, active, o.activeFraction, sparseBurstOps, win)
	fmt.Printf("%d ops in %v\n", snap.Count, elapsed.Round(time.Millisecond))
	fmt.Printf("throughput: %.0f ops/s\n", opsPerSec)
	printLatency(snap)
	if n := backlogged.Load(); n > 0 {
		fmt.Printf("backpressure: server shed %d requests\n", n)
	}
	sv := func(k string) float64 {
		if after == nil {
			return 0
		}
		return after[k]
	}
	if after != nil {
		fmt.Printf("server: %.0f goroutines, %.0f conns (%.0f idle), leased buffers %.1f KiB, heap live %.1f MiB, RSS %.1f MiB\n",
			sv("mutps_go_goroutines"), sv("mutps_net_connections"), sv("mutps_net_idle_conns"),
			sv("mutps_net_leased_buffer_bytes")/1024,
			sv("mutps_go_heap_live_bytes")/(1<<20), sv("mutps_proc_rss_bytes")/(1<<20))
	}
	if o.benchJSON != "" {
		rec := benchfmt.New("sparse-net")
		rec.Config = map[string]any{
			"conns":           o.conns,
			"active_fraction": o.activeFraction,
			"active_conns":    active,
			"inflight":        win,
			"mix":             o.mixName,
		}
		rec.Ops = snap.Count
		rec.OpsPerSec = opsPerSec
		rec.P50Ns = float64(snap.Quantile(0.50))
		rec.P99Ns = float64(snap.Quantile(0.99))
		rec.Extra = map[string]any{
			"max_ns":              snap.Max,
			"backlogged":          backlogged.Load(),
			"server_goroutines":   sv("mutps_go_goroutines"),
			"server_idle_conns":   sv("mutps_net_idle_conns"),
			"server_leased_bytes": sv("mutps_net_leased_buffer_bytes"),
			"server_heap_live":    sv("mutps_go_heap_live_bytes"),
			"server_rss_bytes":    sv("mutps_proc_rss_bytes"),
		}
		appendBench(o.benchJSON, rec)
	}
}

// driver is the one send/drain loop of the load generator: a worker's
// request source, latency shard and in-flight window, reusable across the
// connections the worker drives. Futures are recycled with Release after
// each response, so the client side allocates nothing per request in
// steady state. Latency is send-to-response (it includes queueing in the
// window, as for any pipelined client).
type driver struct {
	id        int // histogram shard, and the worker named in a fatal error
	gen       interface{ Next() workload.Request }
	hist      *obs.Histogram
	opTimeout time.Duration
	putOp     byte   // OpPut, or OpPutTTL when puts carry a TTL
	ttlHdr    int    // bytes of TTL leading a put payload: 8 with OpPutTTL, else 0
	buf       []byte // put payload at the configured value size, TTL header included
	window    []sent // oldest first; cap is the in-flight limit

	// The newest request, kept for the resend of a shed one.
	lastOp      byte
	lastKey     uint64
	lastPayload []byte
}

// sent pairs a pipelined future with its send time.
type sent struct {
	fut *netserver.Future
	t0  time.Time
}

func newDriver(id int, gen interface{ Next() workload.Request }, hist *obs.Histogram,
	inflight, valueSize int, ttl, opTimeout time.Duration) *driver {
	d := &driver{id: id, gen: gen, hist: hist, opTimeout: opTimeout,
		putOp: netserver.OpPut, window: make([]sent, 0, inflight)}
	if ttl > 0 {
		d.putOp = netserver.OpPutTTL
		d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(ttl))
	}
	d.ttlHdr = len(d.buf)
	d.buf = append(d.buf, make([]byte, valueSize)...)
	return d
}

// send issues one request on pc and appends it to the window. With an op
// timeout, each send pushes the connection's deadline out, so the deadline
// expires only when nothing has come back for that long after the last one.
func (d *driver) send(pc *netserver.PipelineClient, op byte, key uint64, payload []byte, t0 time.Time) {
	if d.opTimeout > 0 {
		// An error here means the connection is already closed; Send reports it.
		_ = pc.SetDeadline(time.Now().Add(d.opTimeout))
	}
	f, err := pc.Send(op, key, payload)
	if err != nil {
		log.Fatalf("client %d: %v", d.id, err)
	}
	d.lastOp, d.lastKey, d.lastPayload = op, key, payload
	d.window = append(d.window, sent{fut: f, t0: t0})
}

// drainOldest retires the head of the window. A shed request leaves the
// stream in sync; with a window of one it is the newest request too and is
// resent after a backoff (its latency keeps running from the first
// attempt), with more the resend would reorder the FIFO window, so it is
// counted and skipped.
func (d *driver) drainOldest(pc *netserver.PipelineClient) {
	s := d.window[0]
	_, _, err := s.fut.Wait()
	s.fut.Release()
	d.window = append(d.window[:0], d.window[1:]...)
	switch {
	case err == nil:
		d.hist.Record(d.id, uint64(time.Since(s.t0)))
	case errors.Is(err, netserver.ErrBacklogged):
		backlogged.Add(1)
		if cap(d.window) == 1 {
			time.Sleep(backloggedRetryDelay)
			d.send(pc, d.lastOp, d.lastKey, d.lastPayload, s.t0)
			// A failed flush ends the connection; the resent future reports it.
			_ = pc.Flush()
			d.drainOldest(pc)
		}
	default:
		log.Fatalf("client %d: %v", d.id, err)
	}
}

// drive issues n requests on pc through the window and drains every
// response before returning, so the connection goes back to fully idle.
func (d *driver) drive(pc *netserver.PipelineClient, n int) {
	var scanPl [4]byte
	for i := 0; i < n; i++ {
		req := d.gen.Next()
		var op byte
		var payload []byte
		switch req.Op {
		case workload.OpGet:
			op = netserver.OpGet
		case workload.OpPut:
			op, payload = d.putOp, d.buf
			if req.ValueSize > 0 && d.ttlHdr+req.ValueSize != len(d.buf) {
				payload = make([]byte, d.ttlHdr+req.ValueSize)
				copy(payload, d.buf[:d.ttlHdr])
			}
		case workload.OpDelete:
			op = netserver.OpDelete
		case workload.OpScan:
			op = netserver.OpScan
			binary.LittleEndian.PutUint32(scanPl[:], uint32(req.ScanCount))
			payload = scanPl[:]
		}
		if len(d.window) == cap(d.window) {
			// A failed flush ends the connection; the oldest future reports it.
			_ = pc.Flush()
			d.drainOldest(pc)
		}
		d.send(pc, op, req.Key, payload, time.Now())
	}
	_ = pc.Flush() // as above
	for len(d.window) > 0 {
		d.drainOldest(pc)
	}
}
