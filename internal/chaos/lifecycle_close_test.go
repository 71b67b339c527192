package chaos

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mutps/internal/kvcore"
	"mutps/internal/obs"
	"mutps/internal/rpc"
)

// TestStoreCloseMidEviction closes the store while the budget evictor is
// actively spilling to the cold tier and gets are promoting values back.
// Close must join the evictor and the cold tier's compactor (no goroutine
// outlives the store), run every deferred spill fixup, and drain every
// retirement queue — including the evictor's own — so retired == recycled
// (RetiredPending() == 0) on a closed store.
func TestStoreCloseMidEviction(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		t.Run(fmt.Sprintf("round%d", round), runCloseMidEviction)
	}
	VerifyNoLeaks(t, before)
}

func runCloseMidEviction(t *testing.T) {
	s, err := kvcore.Open(kvcore.Config{
		Engine:       kvcore.Hash,
		Workers:      4,
		CRWorkers:    2,
		MemoryBudget: 32 << 10, // keyspace below is ~4× this
		ColdDir:      t.TempDir(),
		DefaultTTL:   50 * time.Millisecond, // expiry in play during the churn
	})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 2048
	const clients = 6
	var (
		wg  sync.WaitGroup
		ops atomic.Int64
	)
	errCh := make(chan error, clients)
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			val := make([]byte, 64)
			buf := make([]byte, 0, 64)
			for i := 0; ; i++ {
				k := uint64((c*37 + i) % keys)
				var err error
				switch i % 4 {
				case 0, 1:
					for b := range val {
						val[b] = byte(k + uint64(b))
					}
					// Mixed widths keep both the single-word fixup path and
					// the seqlock spill path hot while Close fires.
					if k%8 == 0 {
						err = s.Put(k, val[:8])
					} else {
						err = s.Put(k, val)
					}
				case 2:
					var v []byte
					v, _, err = s.GetInto(k, buf)
					buf = v[:0]
				default:
					_, err = s.Delete(keys + k) // disjoint range: gets stay meaningful
				}
				ops.Add(1)
				if !acceptable(err) {
					errCh <- err
					return
				}
				if errors.Is(err, rpc.ErrClosed) {
					return
				}
			}
		}(c)
	}

	// Build enough churn that evictions and spills are continuously in
	// flight, then close mid-stride — once a value has spilled, so Close
	// does race the evictor's cold-tier writes.
	for ops.Load() < 4000 {
		time.Sleep(100 * time.Microsecond)
	}
	deadline := time.Now().Add(20 * time.Second)
	for !obs.Disabled && s.Metrics().SnapshotMap()["mutps_cold_spills_total"] == 0 {
		if time.Now().After(deadline) {
			t.Errorf("no value spilled in %d ops: Close would not race an eviction", ops.Load())
			break
		}
		time.Sleep(time.Millisecond)
	}
	WithinDeadline(t, 30*time.Second, "Store.Close mid-eviction", s.Close)
	WithinDeadline(t, 30*time.Second, "clients returning after Close", wg.Wait)
	select {
	case err := <-errCh:
		t.Fatalf("client saw unexpected error: %v", err)
	default:
	}
	if n := s.RetiredPending(); n != 0 {
		t.Fatalf("closed store leaks %d retired items (retired != recycled)", n)
	}
}
