package chaos

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mutps/internal/kvcore"
	"mutps/internal/rpc"
)

// TestCloseReclaimsRetired closes the store while writers are actively
// retiring items — size-changing puts and deletes keep the epoch retire
// queues non-empty the whole run — and asserts that Close's final drain
// leaks nothing: every retirement recycles, and the arena's live-slot
// accounting agrees exactly with the items still in the index. A slot
// stranded on a retire queue (or double-freed) breaks one of those sums.
func TestCloseReclaimsRetired(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		t.Run(fmt.Sprintf("round%d", round), runCloseReclaim)
	}
	VerifyNoLeaks(t, before)
}

func runCloseReclaim(t *testing.T) {
	s, err := kvcore.Open(kvcore.Config{
		Engine:    kvcore.Hash,
		Workers:   3,
		CRWorkers: 1,
		HotItems:  32,
	})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 96
	sizes := []int{8, 24, 40, 72} // classes 16/32/64/128: every put hops class
	for k := uint64(0); k < keys; k++ {
		var v [8]byte
		binary.LittleEndian.PutUint64(v[:], k)
		s.Preload(k, v[:])
	}
	s.RefreshHotSet() // a live view so retirements take the view-gated path

	const clients = 4
	var (
		wg  sync.WaitGroup
		ops atomic.Int64
	)
	errCh := make(chan error, clients)
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			val := make([]byte, 128)
			for i := 0; ; i++ {
				k := uint64((c*37 + i) % keys)
				binary.LittleEndian.PutUint64(val, k)
				var err error
				if i%89 == 88 {
					_, err = s.Delete(k)
				} else {
					err = s.Put(k, val[:sizes[(c+i)%len(sizes)]])
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

	// Yank the store while the retire queues are guaranteed non-empty:
	// reclaim passes run every reclaimEvery retirements, so a put-heavy
	// mix always has items inside their grace window.
	for ops.Load() < 3000 {
		time.Sleep(100 * time.Microsecond)
	}
	WithinDeadline(t, 30*time.Second, "Store.Close with in-flight retirements", s.Close)
	WithinDeadline(t, 30*time.Second, "clients returning after Close", wg.Wait)
	select {
	case err := <-errCh:
		t.Fatalf("client saw unexpected error: %v", err)
	default:
	}

	if pend := s.RetiredPending(); pend != 0 {
		t.Errorf("%d retirements still pending after Close", pend)
	}
	m := s.Metrics().SnapshotMap()
	if m["mutps_items_retired_pending"] != 0 {
		t.Errorf("retired-pending gauge = %v after Close", m["mutps_items_retired_pending"])
	}
	retired, recycled := m["mutps_items_retired_total"], m["mutps_items_recycled_total"]
	if retired == 0 {
		t.Error("no items retired: churn did not exercise reclamation")
	}
	if retired != recycled {
		t.Errorf("retired %v != recycled %v: slots leaked on a retire queue", retired, recycled)
	}
	// Arena ground truth: with every value slot-sized, live slots must
	// equal the items still indexed — nothing stranded, nothing double-freed.
	var live float64
	for name, v := range m {
		if strings.HasPrefix(name, "mutps_arena_live_slots{") {
			live += v
		}
	}
	if items := m["mutps_items"]; live != items {
		t.Errorf("arena live slots %v != indexed items %v", live, items)
	}
}
