package bench

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"syscall"
	"testing"
	"time"

	"mutps/internal/kvcore"
	"mutps/internal/loadgen"
	"mutps/internal/netserver"
	"mutps/internal/obs"
	"mutps/internal/workload"
)

// BenchmarkSparseConns is the million-connection-front-end scaling probe:
// N open connections with only ~1% active at any instant (rotating), the
// workload shape the parking lot exists for. It compares where an idle
// connection waits on throughput, tail latency, and — the real subject —
// what the idle 99% cost: goroutines, leased transport buffers, and live
// heap. The two arms are picked by listener kind, as the server picks:
// transport=epoll serves a plain TCP listener, which gets the lot on Linux;
// transport=goroutine serves the same listener behind a struct that hides
// its type, which gets no lot, as on every other platform.
//
// Run in-process, so the goroutine count and heap include the client side
// (one pipelined client per connection, ~1 goroutine and a small bufio
// each); that cost is identical across arms, so the *difference* between
// the goroutine and epoll rows isolates where the server keeps an idle
// connection: two goroutines per connection without the lot, with it the
// lot's one plus two per connection that sent something in the last
// millisecond — read the goroutines metric against conns + 2×active + 8.
// Client and server split the fd budget in one process (2 fds/conn), so
// tiers the RLIMIT_NOFILE can't cover skip; the canonical 10k-conn
// numbers are measured out-of-process by mutps-loadgen -conns (see
// EXPERIMENTS.md), where each side gets its own fd budget.
//
// Set BENCH_NET_OUT=path to append one machine-readable JSON record per
// sub-benchmark (ops/s, P50/P99, goroutines, leased/heap bytes).
func BenchmarkSparseConns(b *testing.B) {
	for _, tr := range []string{netserver.TransportGoroutine, netserver.TransportEpoll} {
		for _, conns := range []int{1000, 4000, 10000} {
			b.Run(fmt.Sprintf("transport=%s/conns=%d", tr, conns), func(b *testing.B) {
				benchSparseConns(b, tr, conns)
			})
		}
	}
}

func benchSparseConns(b *testing.B, tr string, conns int) {
	// Client and server share this process: 2 fds per connection plus
	// slack. Skip (rather than die mid-dial) where the limit can't cover
	// the tier — CI raises ulimit -n for the 10k point.
	var rl syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl); err == nil && rl.Cur < uint64(conns*2+128) {
		b.Skipf("RLIMIT_NOFILE %d < %d needed for %d in-process conns", rl.Cur, conns*2+128, conns)
	}
	store, err := kvcore.Open(kvcore.Config{Engine: kvcore.Hash, Workers: 4, CRWorkers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	const nKeys = 4096
	val := make([]byte, 64)
	for k := uint64(0); k < nKeys; k++ {
		store.Preload(k, val)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	if tr == netserver.TransportGoroutine {
		ln = struct{ net.Listener }{ln} // no *net.TCPListener, no lot
	}
	srv := netserver.ServeConfig(store, ln, netserver.Config{})
	defer srv.Close()
	if srv.Transport() != tr {
		b.Skipf("%s transport unavailable on this platform", tr)
	}

	const win = 16
	pcs, err := loadgen.DialAll(srv.Addr().String(), conns, win)
	if err != nil {
		b.Fatalf("dialing %d conns: %v (RLIMIT_NOFILE too low for an in-process run?)", conns, err)
	}
	defer loadgen.CloseAll(pcs)
	time.Sleep(300 * time.Millisecond) // settle: idle buffers strip, accept drains

	active := max(conns/100, 8)
	b.ReportAllocs()
	b.ResetTimer()
	res, err := loadgen.Sparse(conns, active, b.N, func(w *loadgen.Worker) func(conn, n int) error {
		gets := workload.NewGenerator(workload.Config{Keys: nKeys, Mix: workload.MixYCSBC, Seed: uint64(w.ID + 1)})
		d := loadgen.NewDriver(w, gets, win, len(val), 0, 0)
		return func(conn, n int) error { return d.Drive(pcs[conn], n) }
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}

	goroutines := runtime.NumGoroutine()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	leased := 0.0
	idle := 0.0
	if !obs.Disabled {
		m := store.Metrics().SnapshotMap()
		leased = m["mutps_net_leased_buffer_bytes"]
		idle = m["mutps_net_idle_conns"]
		// Pipeline starts per request: 1/32 is one per burst, toward 1 the
		// park policy thrashes. Zero without the lot.
		b.ReportMetric(m["mutps_net_activations_total"]/m["mutps_net_ops_retired_total"], "activations/op")
	}
	b.ReportMetric(float64(b.N)/res.Elapsed.Seconds(), "ops/s")
	b.ReportMetric(float64(goroutines), "goroutines")
	b.ReportMetric(leased/1024, "leased-KiB")
	b.ReportMetric(float64(ms.HeapInuse)/(1<<20), "heap-MiB")

	if out := os.Getenv("BENCH_NET_OUT"); out != "" && b.N > 1 {
		appendBenchRecord(b, out, res.Record("BenchmarkSparseConns", map[string]any{
			"transport": tr,
			"conns":     conns,
			"active":    active,
			"inflight":  win,
		}, map[string]any{
			"goroutines":      goroutines,
			"leased_bytes":    leased,
			"idle_conns":      idle,
			"heap_inuse":      ms.HeapInuse,
			"client_overhead": conns, // ~1 client goroutine per conn rides in `goroutines`
		}))
	}
}
