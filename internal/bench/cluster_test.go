package bench

import (
	"fmt"
	"os"
	"testing"

	"mutps/internal/benchfmt"
	"mutps/internal/cluster"
	"mutps/internal/kvcore"
	"mutps/internal/loadgen"
	"mutps/internal/obs"
	"mutps/internal/workload"
)

// BenchmarkClusterGets measures aggregate get throughput against an
// in-process shard set at 1 and 2 shards: the scale-out question is
// whether adding a shard adds throughput. Each of four loadgen workers
// keeps one 64-key batch of uniform-random gets in flight, so every
// iteration exercises the full fan-out path — consistent-hash grouping, one
// batched frame per touched shard, positional scatter of the replies.
//
// Honest-numbers caveat: on a single-core host the shards time-share one
// CPU and 2-shard throughput cannot exceed 1-shard (the paper's scaling
// claim needs a core per shard). The keys/frame metric is deterministic
// batching behavior and holds on any host.
//
// Set BENCH_CLUSTER_OUT=path to append one machine-readable JSON record
// per sub-benchmark (shards, ops/s, P50/P99, avg keys/frame).
func BenchmarkClusterGets(b *testing.B) {
	const (
		nKeys   = 8192
		batch   = 64
		drivers = 4
	)
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			l, err := cluster.LaunchLocal(shards, cluster.LocalOptions{
				Config: kvcore.Config{Engine: kvcore.Hash, Workers: 4, CRWorkers: 2, HotItems: 4096},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			cli, err := cluster.Dial(cluster.Config{
				Addrs:     l.Addrs(),
				Inflight:  128,
				MGetBatch: batch,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer cli.Close()
			// Preload directly into each shard's store, routed the same way
			// the client routes, so the measured loop is pure gets.
			val := make([]byte, 64)
			for k := uint64(0); k < nKeys; k++ {
				l.Store(cli.ShardOf(k)).Preload(k, val)
			}

			b.ReportAllocs()
			b.ResetTimer()
			res, err := loadgen.Run(drivers, func(w *loadgen.Worker) error {
				gets := workload.NewGenerator(workload.Config{Keys: nKeys, Mix: workload.MixYCSBC, Seed: uint64(w.ID + 1)})
				return loadgen.NewSync(w, cli, len(val)).Drive(gets, loadgen.Share(b.N, drivers, w.ID), batch)
			})
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}

			keysPerFrame := 0.0
			if !obs.Disabled {
				m := cli.Metrics().SnapshotMap()
				if frames := m["mutps_cluster_mget_frames_total"]; frames > 0 {
					keysPerFrame = m["mutps_cluster_mget_keys_per_frame_sum"] / frames
					b.ReportMetric(keysPerFrame, "keys/frame")
				}
			}
			b.ReportMetric(float64(b.N)/res.Elapsed.Seconds(), "gets/s")
			if out := os.Getenv("BENCH_CLUSTER_OUT"); out != "" && b.N > 1 {
				// P50/P99 are per key, as everywhere: each key of a frame
				// is one sample of the frame's latency.
				appendBenchRecord(b, out, res.Record("BenchmarkClusterGets", map[string]any{
					"shards":     shards,
					"batch_size": batch,
					"drivers":    drivers,
				}, map[string]any{
					"latency_of":         "key",
					"avg_keys_per_frame": keysPerFrame,
				}))
			}
		})
	}
}

// appendBenchRecord appends one normalized record (schema mutps-bench/v1)
// so repeated runs (and sub-benchmarks) accumulate into a comparable
// series all BENCH_*.json artifacts share.
func appendBenchRecord(b *testing.B, path string, rec benchfmt.Record) {
	b.Helper()
	if err := benchfmt.Append(path, rec); err != nil {
		b.Fatal(err)
	}
}
