// Command mutps-server runs a network-attached μTPS key-value store.
//
// Usage:
//
//	mutps-server -addr :7070 -engine tree -workers 8 -cr 2
//	mutps-server -addr :7070 -metrics-addr :9090   # Prometheus on :9090/metrics, pprof on :9090/debug/pprof/
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"

	"mutps/internal/kvcore"
	"mutps/internal/netserver"
	"mutps/internal/obs"
	"mutps/internal/tuner"
)

func main() {
	addr := flag.String("addr", ":7070", "listen address")
	engine := flag.String("engine", "hash", "index engine: hash (μTPS-H) or tree (μTPS-T)")
	workers := flag.Int("workers", 4, "total worker goroutines")
	cr := flag.Int("cr", 1, "initial cache-resident workers")
	hot := flag.Int("hot", 4096, "hot-set cache target (0 disables)")
	metricsAddr := flag.String("metrics-addr", "",
		"serve Prometheus text on /metrics, the tuner decision trace on /trace and Go profiles on /debug/pprof/ at this address (empty disables)")
	idleTimeout := flag.Duration("idle-timeout", 0,
		"close connections idle for this long (0 disables)")
	maxConns := flag.Int("max-conns", 0,
		"cap on concurrently served connections; over-cap clients get a graceful error reply (0 = unlimited)")
	inflight := flag.Int("inflight", 0,
		"per-connection pipelining window: requests decoded but not yet answered (0 = default, 1 = synchronous)")
	memBudget := flag.String("memory-budget", "",
		"arena live-byte budget with optional K/M/G suffix, e.g. 512M; when crossed, the coldest items are evicted (empty = unbounded)")
	coldDir := flag.String("cold-dir", "",
		"directory for the SSD cold tier: evicted values spill there and are served (and promoted) on RAM misses (empty = evicted values drop)")
	coldSegBytes := flag.String("cold-segment-bytes", "",
		"cold-tier segment size with optional K/M/G suffix (empty = 64M)")
	coldCkpt := flag.Duration("cold-ckpt-interval", 0,
		"period of the cold tier's location-index checkpoint; restart replays only the log written since the last checkpoint (0 = 30s default, negative = disable)")
	defaultTTL := flag.Duration("default-ttl", 0,
		"TTL applied to puts that carry no explicit TTL, e.g. 10m (0 = never expire)")
	autotune := flag.Bool("autotune", false,
		"run the closed-loop auto-tuner: sample throughput and mean latency every 100ms and, on the first window more than 25% off the moving baseline, re-search the thread split and hot-set size online (10ms probes, at most one search per 3s, winner kept only above 5% gain), without pausing traffic")
	flag.Parse()

	budget, err := parseSize(*memBudget)
	if err != nil {
		log.Fatalf("-memory-budget: %v", err)
	}
	segBytes, err := parseSize(*coldSegBytes)
	if err != nil {
		log.Fatalf("-cold-segment-bytes: %v", err)
	}

	eng := kvcore.Hash
	switch *engine {
	case "hash":
	case "tree":
		eng = kvcore.Tree
	default:
		log.Fatalf("unknown engine %q (want hash or tree)", *engine)
	}

	store, err := kvcore.Open(kvcore.Config{
		Engine:    eng,
		Workers:   *workers,
		CRWorkers: *cr,
		HotItems:  *hot,

		MemoryBudget:           budget,
		ColdDir:                *coldDir,
		ColdSegmentBytes:       segBytes,
		ColdCheckpointInterval: *coldCkpt,
		DefaultTTL:             *defaultTTL,
	})
	if err != nil {
		log.Fatal(err)
	}
	if budget > 0 || *coldDir != "" {
		log.Printf("lifecycle: budget=%s cold-dir=%q default-ttl=%v",
			*memBudget, *coldDir, *defaultTTL)
	}
	// Runtime GC signals ride the same registry, so a before/after arena
	// comparison reads straight off /metrics (and the stats op).
	obs.RegisterRuntimeMetrics(store.Metrics())
	srv, err := netserver.ListenAndServe(store, *addr, netserver.Config{
		IdleTimeout: *idleTimeout,
		MaxConns:    *maxConns,
		MaxInflight: *inflight,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("μTPS-%s serving on %s via %s transport (%d workers, %d at CR layer, hot=%d)",
		map[kvcore.Engine]string{kvcore.Hash: "H", kvcore.Tree: "T"}[eng],
		srv.Addr(), srv.Transport(), *workers, *cr, *hot)

	// Closed-loop autotuning (§3.5): started after the network server so the
	// latency trigger can tap its per-op histograms, which are registered on
	// the store's shared metrics registry.
	var ctl *tuner.Controller
	if *autotune {
		// Exact-mean latency feed: the _sum/_count series of every per-op
		// network latency histogram (never interpolated bucket quantiles).
		var hists []*obs.Histogram
		for _, l := range []string{`op="get"`, `op="put"`, `op="delete"`, `op="scan"`, `op="mget"`} {
			if h, ok := store.Metrics().FindHistogram("mutps_net_op_latency_nanoseconds", l); ok {
				hists = append(hists, h)
			}
		}
		ctl = tuner.NewController(&kvcore.Tunable{S: store}, tuner.ControllerConfig{
			Rate:    store.Ops,
			Latency: obs.NewHistogramMeanSampler(hists...),
			Trace:   store.Trace(),
		})
		ctl.Start()
		log.Print("autotune: on")
	}

	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		go func() {
			if err := http.Serve(mln, metricsMux(store)); err != nil {
				log.Printf("metrics endpoint: %v", err)
			}
		}()
		log.Printf("metrics on http://%s/metrics, decision trace on /trace, profiles on /debug/pprof/", mln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	log.Printf("shutting down; stats: %+v", store.Stats())
	if ctl != nil {
		ctl.Stop()
		ticks, triggers, retunes, reverts := ctl.Counters()
		log.Printf("autotune: ticks=%d triggers=%d retunes=%d reverts=%d", ticks, triggers, retunes, reverts)
	}
	srv.Close()
	store.Close()
}

// metricsMux serves the -metrics-addr endpoints: Prometheus text, the
// tuner decision trace, and the Go runtime profiles, so a live server can
// be profiled under load without a rebuild.
func metricsMux(store *kvcore.Store) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Handler(store.Metrics()))
	mux.Handle("/trace", obs.TraceHandler(store.Trace()))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// parseSize parses a byte count with an optional K/M/G suffix (powers of
// 1024, case-insensitive). An empty string is 0. A negative count, or one
// that does not fit in an int64 once multiplied out, is an error: both
// flags that take a size read 0 as "the default", so either would
// otherwise be silently replaced.
func parseSize(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	in := s
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		mult, s = 1<<10, s[:len(s)-1]
	case 'm', 'M':
		mult, s = 1<<20, s[:len(s)-1]
	case 'g', 'G':
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	switch {
	case err != nil:
		return 0, fmt.Errorf("bad size %q (want digits with optional K/M/G suffix)", in)
	case n < 0:
		return 0, fmt.Errorf("negative size %q", in)
	case n > math.MaxInt64/mult:
		return 0, fmt.Errorf("size %q overflows 64 bits", in)
	}
	return n * mult, nil
}
