package bench

import (
	"fmt"
	"os"
	"testing"
	"time"

	"mutps/internal/kvcore"
	"mutps/internal/loadgen"
	"mutps/internal/workload"
)

// BenchmarkEvictionChurn measures sustained uniform-random put churn (four
// loadgen workers on the in-process store) over a keyspace ~4×
// the memory budget, with and without the cold tier — the capacity
// experiment from DESIGN.md §13. Every put past the watermark forces the
// evictor to unlink a victim (and, with a cold dir, spill its value to the
// SSD log), so the metric is the steady-state write throughput of the
// bounded-memory lifecycle, not of an unbounded store.
//
// Set BENCH_CAPACITY_OUT=path to append one machine-readable JSON record
// per sub-benchmark (ops/s, P50/P99, spills, budget adherence).
func BenchmarkEvictionChurn(b *testing.B) {
	const (
		budget  = 1 << 20 // 1 MiB arena budget
		nKeys   = 32768   // ≈ 4× budget at ~128 B/slot
		valSize = 96
		drivers = 4
	)
	// "unbounded" is the before-column baseline: same churn, no budget, so
	// the arena grows to hold the whole keyspace.
	for _, mode := range []string{"unbounded", "drop", "spill"} {
		b.Run(fmt.Sprintf("mode=%s", mode), func(b *testing.B) {
			cfg := kvcore.Config{
				Engine: kvcore.Hash, Workers: 4, CRWorkers: 1,
			}
			if mode != "unbounded" {
				cfg.MemoryBudget = budget
			}
			if mode == "spill" {
				cfg.ColdDir = b.TempDir()
			}
			s, err := kvcore.Open(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()

			b.ResetTimer()
			res, err := loadgen.Run(drivers, func(w *loadgen.Worker) error {
				puts := workload.NewGenerator(workload.Config{Keys: nKeys, Mix: workload.MixPutOnly,
					ValueSize: workload.FixedSize(valSize), Seed: uint64(w.ID + 1)})
				return loadgen.NewSync(w, s, valSize).Drive(puts, loadgen.Share(b.N, drivers, w.ID), 1)
			})
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}

			b.ReportMetric(float64(b.N)/res.Elapsed.Seconds(), "puts/s")
			var over int64
			if mode == "unbounded" {
				b.ReportMetric(float64(s.BudgetedBytes()), "live-bytes")
			} else {
				// Give the evictor one settle window, then report how far
				// over budget the arena sits (0 = budget held).
				deadline := time.Now().Add(2 * time.Second)
				for s.BudgetedBytes() > budget && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if over = int64(s.BudgetedBytes()) - budget; over < 0 {
					over = 0
				}
				b.ReportMetric(float64(over), "bytes-over-budget")
			}
			if out := os.Getenv("BENCH_CAPACITY_OUT"); out != "" && b.N > 1 {
				appendBenchRecord(b, out, res.Record("BenchmarkEvictionChurn", map[string]any{
					"mode":         mode,
					"budget_bytes": budget,
					"keys":         nKeys,
					"value_size":   valSize,
					"drivers":      drivers,
				}, map[string]any{
					"latency_of":        "put",
					"live_bytes":        s.BudgetedBytes(),
					"bytes_over_budget": over,
				}))
			}
		})
	}
}
