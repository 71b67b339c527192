package bench

import (
	"fmt"
	"net"
	"testing"

	"mutps/internal/kvcore"
	"mutps/internal/loadgen"
	"mutps/internal/netserver"
	"mutps/internal/obs"
	"mutps/internal/workload"
)

// BenchmarkNetPipeline measures single-connection throughput as a function
// of the pipelining window: one client connection, loadgen's Driver keeping
// W uniform-random gets in flight over preloaded 64-byte values. window=1 is
// the synchronous baseline (one round trip per op, one write syscall per
// response); larger windows keep the store's receive ring fed from a single
// socket and coalesce response flushes. The reported resp/flush metric is
// the flush coalescing factor — a direct proxy for write-syscall reduction.
func BenchmarkNetPipeline(b *testing.B) {
	for _, window := range []int{1, 16, 128} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
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
			srv := netserver.ServeConfig(store, ln, netserver.Config{MaxInflight: window})
			defer srv.Close()
			pc, err := netserver.DialPipeline(srv.Addr().String(), window)
			if err != nil {
				b.Fatal(err)
			}
			defer pc.Close()

			gets := workload.NewGenerator(workload.Config{Keys: nKeys, Mix: workload.MixYCSBC})
			b.ReportAllocs()
			b.ResetTimer()
			_, err = loadgen.Run(1, func(w *loadgen.Worker) error {
				return loadgen.NewDriver(w, gets, window, len(val), 0, 0).Drive(pc, b.N)
			})
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if !obs.Disabled {
				m := store.Metrics().SnapshotMap()
				if flushes := m["mutps_net_flush_coalesce_count"]; flushes > 0 {
					b.ReportMetric(m["mutps_net_ops_retired_total"]/flushes, "resp/flush")
				}
			}
		})
	}
}
