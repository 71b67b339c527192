package chaos

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mutps/internal/kvcore"
	"mutps/internal/rpc"
	"mutps/internal/workload"
)

// acceptable reports whether err is a legal outcome for an operation
// racing with shutdown: success, a graceful ErrClosed, or a retryable
// ErrBacklogged. Anything else (including a hang, caught elsewhere by
// deadline) is a bug.
func acceptable(err error) bool {
	return err == nil || errors.Is(err, rpc.ErrClosed) || errors.Is(err, rpc.ErrBacklogged)
}

// TestStoreCloseMidFlight is the regression stress for the stranded-call
// hang family: many clients hammer Get/Put/Scan/Delete while Close fires
// mid-flight. Every caller must return within the deadline — either with
// its result or with ErrClosed — and no goroutine may outlive the store.
// On the pre-drain seed this test hangs: Close raced Send, workers exited
// with published slots unconsumed, and the pooled Call was never
// completed.
func TestStoreCloseMidFlight(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		t.Run(fmt.Sprintf("round%d", round), runCloseMidFlight)
	}
	VerifyNoLeaks(t, before)
}

func runCloseMidFlight(t *testing.T) {
	s, err := kvcore.Open(kvcore.Config{
		Engine:    kvcore.Tree,
		Workers:   4,
		CRWorkers: 2,
		HotItems:  64,
	})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 128
	for i := uint64(0); i < keys; i++ {
		var v [8]byte
		binary.LittleEndian.PutUint64(v[:], i)
		s.Preload(i, v[:])
	}
	for i := 0; i < 256; i++ {
		s.Get(uint64(i % 8))
	}
	s.RefreshHotSet() // mixed traffic: CR hits and MR forwards both in play

	const clients = 8
	var (
		wg  sync.WaitGroup
		ops atomic.Int64
	)
	errCh := make(chan error, clients) // first unexpected error per client
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			var val [8]byte
			buf := make([]byte, 0, 8)
			for i := 0; ; i++ {
				k := uint64((c*31 + i) % keys)
				var err error
				switch i % 5 {
				case 0, 1:
					var v []byte
					v, _, err = s.GetInto(k, buf)
					buf = v[:0]
				case 2:
					binary.LittleEndian.PutUint64(val[:], k)
					err = s.Put(k, val[:])
				case 3:
					_, err = s.Scan(k, 4)
				default:
					// Deletes target a disjoint key range so gets above keep
					// verifying real values.
					_, err = s.Delete(keys + k)
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

	// Let the clients build real in-flight depth, then yank the store out
	// from under them.
	for ops.Load() < 2000 {
		time.Sleep(100 * time.Microsecond)
	}
	WithinDeadline(t, 30*time.Second, "Store.Close under load", s.Close)
	WithinDeadline(t, 30*time.Second, "clients returning after Close", wg.Wait)
	select {
	case err := <-errCh:
		t.Fatalf("client saw unexpected error: %v", err)
	default:
	}

	// After the drain the facade must stay in the terminal state, not hang.
	if _, _, err := s.Get(1); !errors.Is(err, rpc.ErrClosed) {
		t.Fatalf("Get after Close = %v, want ErrClosed", err)
	}
	if err := s.Put(1, []byte("x")); !errors.Is(err, rpc.ErrClosed) {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

// TestRPCSendCloseRace hammers the Send/Close TOCTOU at the rpc layer:
// senders race Close so some calls are published in the window between
// Send's closed-check and the ring publish. The drain protocol must
// complete every such call — senders assert completion with a bounded
// wait, never an unbounded one.
func TestRPCSendCloseRace(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 30; round++ {
		s := rpc.NewServer(32, 1, 1)
		workerDone := make(chan struct{})
		go func() {
			defer close(workerDone)
			for {
				m, ok, retired := s.Poll(0)
				if retired {
					return
				}
				if !ok {
					runtime.Gosched()
					continue
				}
				m.Call().Complete()
			}
		}()

		const senders = 4
		var wg sync.WaitGroup
		errCh := make(chan error, senders)
		wg.Add(senders)
		for c := 0; c < senders; c++ {
			go func() {
				defer wg.Done()
				for {
					call, err := s.Send(rpc.Message{Op: workload.OpGet, Key: 1})
					if errors.Is(err, rpc.ErrClosed) {
						return
					}
					if errors.Is(err, rpc.ErrBacklogged) {
						continue
					}
					if err != nil {
						errCh <- err
						return
					}
					if !call.WaitTimeout(10 * time.Second) {
						errCh <- errors.New("call stranded: not completed within 10s of Send/Close race")
						return
					}
					call.Release()
				}
			}()
		}

		runtime.Gosched() // let the senders actually start racing
		s.Close()
		WithinDeadline(t, 30*time.Second, "senders returning after rpc.Close", wg.Wait)
		WithinDeadline(t, 30*time.Second, "worker retiring after rpc.Close", func() { <-workerDone })
		select {
		case err := <-errCh:
			t.Fatalf("round %d: %v", round, err)
		default:
		}
		// The worker consumed everything before retiring, so the sweep for
		// stranded slots must find nothing.
		if n := s.DrainStranded(); n != 0 {
			t.Fatalf("round %d: graceful drain left %d stranded slots", round, n)
		}
	}
	VerifyNoLeaks(t, before)
}

// TestStalledWorkerDrainStranded is the stalled-worker scenario: requests
// are published but no worker ever polls them. Close must still terminate,
// and DrainStranded must complete every published call with ErrClosed so
// their waiters unblock.
func TestStalledWorkerDrainStranded(t *testing.T) {
	s := rpc.NewServer(8, 1, 1)
	const published = 5
	calls := make([]*rpc.Call, 0, published)
	for i := 0; i < published; i++ {
		call, err := s.Send(rpc.Message{Op: workload.OpGet, Key: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, call)
	}

	WithinDeadline(t, 10*time.Second, "rpc.Close with a stalled worker", s.Close)
	if _, err := s.Send(rpc.Message{Op: workload.OpGet, Key: 99}); !errors.Is(err, rpc.ErrClosed) {
		t.Fatalf("Send after Close = %v, want ErrClosed", err)
	}

	if n := s.DrainStranded(); n != published {
		t.Fatalf("DrainStranded = %d, want %d", n, published)
	}
	for i, call := range calls {
		if !call.WaitTimeout(time.Second) {
			t.Fatalf("call %d still pending after DrainStranded", i)
		}
		if !errors.Is(call.Err, rpc.ErrClosed) {
			t.Fatalf("call %d: Err = %v, want ErrClosed", i, call.Err)
		}
		call.Release()
	}
	// The sweep is a terminal cleanup; running it again must find nothing.
	if n := s.DrainStranded(); n != 0 {
		t.Fatalf("second DrainStranded = %d, want 0", n)
	}
}
