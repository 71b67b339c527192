// Package loadgen is the one load driver outside benchmark/, the client
// node of the paper's testbed as a library: the windowed pipelined
// send/drain loop (Driver), the synchronous request→call mapping (Sync),
// the sparse-connection rotation (Sparse) and the run record (Run, Result).
// cmd/mutps-loadgen's modes and the internal/bench smokes are its callers.
//
// One sample definition holds everywhere: a sample is one key's wait from
// the first send of its request to the response that served it. A batched
// mget frame is recorded once per key it carried, and a request the server
// shed and the client resent keeps its first clock.
package loadgen

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mutps/internal/benchfmt"
	"mutps/internal/obs"
	"mutps/internal/workload"
)

// shedRetryDelay is the backoff before resending a request the server shed.
const shedRetryDelay = 200 * time.Microsecond

// Source is a worker's request supply: a workload.Generator or a Stripe.
type Source interface{ Next() workload.Request }

// Worker is one goroutine's handle on a Run: its latency shard and the
// run's shed counter.
type Worker struct {
	ID   int
	hist *obs.Histogram
	shed *atomic.Uint64
}

// record adds n samples of lat, one per key the request carried.
func (w *Worker) record(n int, lat time.Duration) {
	for ; n > 0; n-- {
		w.hist.Record(w.ID, uint64(lat))
	}
}

// Result is a finished run: every sample, the wall time from the first
// worker's start to the last one's return, and how many requests the
// server shed with a retryable StatusBacklogged (resent where that cannot
// reorder anything, skipped otherwise, counted either way so overload
// shows in the summary instead of aborting the run).
type Result struct {
	Snap    obs.HistSnapshot
	Elapsed time.Duration
	Shed    uint64
}

// Run calls fn on workers goroutines, each with its own Worker, and
// returns what they recorded once all have returned. The error is the
// first failed worker's.
func Run(workers int, fn func(w *Worker) error) (Result, error) {
	hist := obs.NewHistogram(workers)
	var shed atomic.Uint64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(&Worker{ID: i, hist: hist, shed: &shed})
		}(i)
	}
	wg.Wait()
	res := Result{Snap: hist.Snapshot(), Elapsed: time.Since(start), Shed: shed.Load()}
	for i, err := range errs {
		if err != nil {
			return res, fmt.Errorf("client %d: %w", i, err)
		}
	}
	return res, nil
}

// Share is worker w's part of n operations dealt round-robin over workers:
// n/workers, plus one of the remainder for the first workers.
func Share(n, workers, w int) int { return (n - w + workers - 1) / workers }

// Load stores valueSize zero bytes under every key in [0, keys), striped
// over workers goroutines (a synchronous put is one round trip, so
// concurrency is what overlaps them), and returns how long that took.
func Load(kv KV, keys uint64, valueSize, workers int) (time.Duration, error) {
	res, err := Run(workers, func(w *Worker) error {
		s := NewSync(w, kv, valueSize)
		for k := uint64(w.ID); k < keys; k += uint64(workers) {
			if err := s.Do(workload.Request{Op: workload.OpPut, Key: k}); err != nil {
				return err
			}
		}
		return nil
	})
	return res.Elapsed, err
}

// OpsPerSec is the run's throughput over its recorded samples.
func (r Result) OpsPerSec() float64 { return float64(r.Snap.Count) / r.Elapsed.Seconds() }

// Print writes the summary lines every mode shares: throughput (note says
// what it aggregates over, when that needs saying) and latency percentiles.
func (r Result) Print(out io.Writer, note string) {
	pct := func(p float64) time.Duration { return time.Duration(r.Snap.Quantile(p)).Round(time.Microsecond) }
	fmt.Fprintf(out, "throughput: %.0f ops/s%s\n", r.OpsPerSec(), note)
	fmt.Fprintf(out, "latency: P50 %v  P95 %v  P99 %v  max %v\n",
		pct(0.50), pct(0.95), pct(0.99), time.Duration(r.Snap.Max).Round(time.Microsecond))
}

// Record returns the run as a stamped mutps-bench/v1 record; config and
// extra are the emitter's own.
func (r Result) Record(bench string, config, extra map[string]any) benchfmt.Record {
	rec := benchfmt.New(bench)
	rec.Config, rec.Extra = config, extra
	rec.Ops, rec.OpsPerSec = r.Snap.Count, r.OpsPerSec()
	rec.P50Ns, rec.P99Ns = float64(r.Snap.Quantile(0.50)), float64(r.Snap.Quantile(0.99))
	rec.UnixNanos = time.Now().UnixNano()
	return rec
}

// ReadTrace loads at most limit requests (0 = all) of the CSV trace at
// path. A trace with no requests in it is an error, not a panic later:
// there is nothing to replay.
func ReadTrace(path string, limit int) ([]workload.Request, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	trace, err := workload.ReadTrace(f, limit)
	if err == nil && len(trace) == 0 {
		err = fmt.Errorf("trace %s holds no requests", path)
	}
	return trace, err
}

// Stripe returns worker w's share of a non-empty trace: requests w,
// w+workers, w+2·workers, …, looping. Workers that issue
// Share(len(trace), workers, w) requests each therefore replay every line
// exactly once, where a whole-trace replay per worker sends the first
// 1/workers of it workers times over. With more workers than lines the
// surplus workers double up on the first lines.
func Stripe(trace []workload.Request, w, workers int) Source {
	var mine []workload.Request
	for i := w % len(trace); i < len(trace); i += workers {
		mine = append(mine, trace[i])
	}
	return workload.NewTraceGenerator(mine)
}
