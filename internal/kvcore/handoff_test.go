package kvcore

import (
	"testing"
	"time"

	"mutps/internal/obs"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(d time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(d); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

// TestParkedWorkersSeeSetSplitAndClose: hand-off invariant H1 for the
// conditions that are not a request. Every worker of an idle store is
// asleep on its bell; a split change must still move workers between the
// layers (Reconfigure rings them all), and Close must still drain and
// return (Close rings them all, and each retirement rings the workers
// waiting on the drain barrier). Nothing here sends a request, so a missing
// ring shows up as a role switch that never happens or a Close that hangs.
func TestParkedWorkersSeeSetSplitAndClose(t *testing.T) {
	if obs.Disabled {
		t.Skip("reads the park and role-switch counters")
	}
	const workers = 4
	rounds := 100
	if testing.Short() {
		rounds = 20
	}
	for _, eng := range []Engine{Hash, Tree} {
		for round := 0; round < rounds; round++ {
			s, err := Open(Config{Engine: eng, Workers: workers, CRWorkers: 1})
			if err != nil {
				t.Fatal(err)
			}
			parks := func() uint64 { return s.met.parksCR.Value() + s.met.parksMR.Value() }
			if !waitUntil(time.Second, func() bool { return parks() >= workers }) {
				t.Fatalf("engine %v round %d: idle workers never parked (%d parks)", eng, round, parks())
			}
			for _, nCR := range []int{3, 1} { // up, then down
				before := s.met.roleSwap.Value()
				if err := s.SetSplit(nCR); err != nil {
					t.Fatal(err)
				}
				// Growing moves two parked MR workers to the CR layer at once.
				// Shrinking takes effect at a switch index no request will
				// reach on an idle store, so there the workers only need to
				// wake, re-derive their position and park again.
				if nCR == 3 && !waitUntil(time.Second, func() bool { return s.met.roleSwap.Value() >= before+2 }) {
					t.Fatalf("engine %v round %d: parked workers missed SetSplit(%d)", eng, round, nCR)
				}
			}
			closed := make(chan struct{})
			go func() { s.Close(); close(closed) }()
			select {
			case <-closed:
			case <-time.After(time.Second):
				t.Fatalf("engine %v round %d: Close did not return within 1s on an idle store", eng, round)
			}
		}
	}
}
