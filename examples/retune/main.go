// Retune: run the auto-tuner against the real (non-simulated) store while
// it serves live traffic. The tuner reassigns workers between the layers
// and resizes the hot set using the paper's trisection search; request
// processing never stops.
//
// Note: on machines with few cores the Go scheduler (not the tuner)
// dominates absolute throughput — this example demonstrates the live
// reconfiguration machinery, not paper numbers (those come from
// cmd/mutps-bench).
package main

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"mutps"
	"mutps/internal/workload"
)

func main() {
	store, err := mutps.Open(mutps.Options{
		Engine:    mutps.Tree,
		Workers:   4,
		CRWorkers: 2,
		HotItems:  2048,

		RefreshInterval: 20 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	const keys = 50_000
	for i := uint64(0); i < keys; i++ {
		store.Preload(i, []byte("initial0"))
	}

	// Background load: skewed YCSB-B.
	var stop atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen := workload.NewGenerator(workload.Config{
				Keys: keys, Theta: 0.99, Mix: workload.MixYCSBB,
				ValueSize: workload.FixedSize(8), Seed: uint64(c + 1),
			})
			val := []byte("updated!")
			for !stop.Load() {
				req := gen.Next()
				if req.Op == workload.OpGet {
					store.Get(req.Key)
				} else {
					store.Put(req.Key, val)
				}
			}
		}(c)
	}

	before := measure(store, 200*time.Millisecond)
	nCR, nMR := store.Split()
	fmt.Printf("before tuning: %d/%d split, %.0f ops/s\n", nCR, nMR, before)

	res := store.Autotune(50*time.Millisecond, 4096)
	fmt.Printf("tuned: %d/%d split, hot target %d (%d probes, score %.0f ops/s)\n",
		res.CRWorkers, res.MRWorkers, res.HotItems, res.Probes, res.OpsPerSec)

	after := measure(store, 200*time.Millisecond)
	st := store.Stats()
	fmt.Printf("after tuning: %.0f ops/s; CR layer has served %d of %d ops (%.0f%%)\n",
		after, st.CRHits, st.Ops, 100*float64(st.CRHits)/float64(st.Ops))

	stop.Store(true)
	wg.Wait()
}

func measure(store *mutps.Store, window time.Duration) float64 {
	before := store.Ops()
	start := time.Now()
	time.Sleep(window)
	return float64(store.Ops()-before) / time.Since(start).Seconds()
}
