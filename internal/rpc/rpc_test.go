package rpc

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"mutps/internal/workload"
)

func TestScheduleNextOwned(t *testing.T) {
	s := &schedule{phases: []phase{{0, 3}, {10, 2}}}
	// Phase 1: n=3 on [0,10); phase 2: n=2 on [10,∞).
	cases := []struct {
		from   uint64
		worker int
		want   uint64
		ok     bool
	}{
		{0, 0, 0, true},
		{1, 0, 3, true},
		{0, 2, 2, true},
		{9, 2, 9, true},   // last slot of phase 1 owned by 2? 9 mod 3 = 0... no
		{10, 2, 0, false}, // worker 2 retired in phase 2
		{10, 1, 11, true}, // 11 mod 2 = 1
		{8, 1, 0, true},   // computed below
	}
	// Fix the hand cases that need arithmetic: 9 mod 3 == 0 → worker 2's
	// next owned from 9 is... phase1 has indexes {2,5,8} for worker 2; from
	// 9 nothing in phase 1; phase 2 retires worker 2 → false.
	cases[3] = struct {
		from   uint64
		worker int
		want   uint64
		ok     bool
	}{9, 2, 0, false}
	// worker 1 from 8: phase 1 gives 8 mod 3 = 2 → next is... indexes
	// {1,4,7} — from 8 none < 10 (next would be 10, out of phase). Phase 2:
	// first index ≥ 10 with mod 2 == 1 → 11.
	cases[6] = struct {
		from   uint64
		worker int
		want   uint64
		ok     bool
	}{8, 1, 11, true}

	for _, c := range cases {
		got, ok := s.nextOwned(c.from, c.worker)
		if ok != c.ok || (ok && got != c.want) {
			t.Fatalf("nextOwned(%d, w%d) = (%d,%v), want (%d,%v)",
				c.from, c.worker, got, ok, c.want, c.ok)
		}
	}
}

func TestScheduleOwnershipPartition(t *testing.T) {
	// Every slot index must have exactly one owner across workers.
	s := &schedule{phases: []phase{{0, 4}, {17, 2}, {40, 6}}}
	for idx := uint64(0); idx < 100; idx++ {
		owners := 0
		for w := 0; w < 6; w++ {
			got, ok := s.nextOwned(idx, w)
			if ok && got == idx {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("slot %d has %d owners", idx, owners)
		}
	}
}

func TestSendPollSingleWorker(t *testing.T) {
	s := NewServer(8, 4, 1)
	if s.Cap() != 8 || s.Workers() != 1 {
		t.Fatalf("cap=%d n=%d", s.Cap(), s.Workers())
	}
	call, err := s.Send(Message{Op: workload.OpGet, Key: 7})
	if err != nil {
		t.Fatal(err)
	}
	m, ok, retired := s.Poll(0)
	if !ok || retired || m.Key != 7 || m.Op != workload.OpGet {
		t.Fatalf("poll = %+v ok=%v retired=%v", m, ok, retired)
	}
	if m.Call() != call {
		t.Fatal("polled message must carry the call future")
	}
	m.Call().Found = true
	m.Call().Complete()
	call.Wait()
	if !call.Found {
		t.Fatal("call results must be visible after Wait")
	}
	// Nothing left.
	if _, ok, _ := s.Poll(0); ok {
		t.Fatal("empty ring must poll nothing")
	}
}

func TestModNClaiming(t *testing.T) {
	s := NewServer(16, 4, 3)
	for i := 0; i < 9; i++ {
		s.Send(Message{Key: uint64(i)})
	}
	// Worker w must see exactly keys w, w+3, w+6 in order.
	for w := 0; w < 3; w++ {
		for j := 0; j < 3; j++ {
			m, ok, _ := s.Poll(w)
			if !ok {
				t.Fatalf("worker %d: missing message %d", w, j)
			}
			if want := uint64(w + 3*j); m.Key != want {
				t.Fatalf("worker %d got key %d, want %d", w, m.Key, want)
			}
		}
		if _, ok, _ := s.Poll(w); ok {
			t.Fatalf("worker %d must be drained", w)
		}
	}
	// Worker 3 is inactive and must be marked retired.
	if _, _, retired := s.Poll(3); !retired {
		t.Fatal("worker beyond n must be retired")
	}
}

func TestRingWrapAndRefill(t *testing.T) {
	s := NewServer(4, 1, 1)
	for round := 0; round < 5; round++ {
		for i := 0; i < 4; i++ {
			s.Send(Message{Key: uint64(round*4 + i)})
		}
		for i := 0; i < 4; i++ {
			m, ok, _ := s.Poll(0)
			if !ok || m.Key != uint64(round*4+i) {
				t.Fatalf("round %d idx %d: %+v ok=%v", round, i, m, ok)
			}
		}
	}
}

func TestSendBlocksUntilSlotFreed(t *testing.T) {
	s := NewServer(4, 1, 1) // minimum ring: 4 slots
	for i := 0; i < 4; i++ {
		s.Send(Message{Key: uint64(i)})
	}
	done := make(chan struct{})
	go func() {
		s.Send(Message{Key: 4}) // must block until a slot frees
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("send into a full ring must block")
	default:
	}
	if m, ok, _ := s.Poll(0); !ok || m.Key != 0 {
		t.Fatal("poll failed")
	}
	<-done // now the blocked send can finish
	for i := 1; i <= 4; i++ {
		if m, ok, _ := s.Poll(0); !ok || m.Key != uint64(i) {
			t.Fatalf("order broken after blocking send at %d", i)
		}
	}
}

func TestReconfigureGrow(t *testing.T) {
	s := NewServer(16, 4, 1)
	// Pre-switch traffic: all owned by worker 0.
	for i := 0; i < 3; i++ {
		s.Send(Message{Key: uint64(i)})
	}
	sw := s.Reconfigure(2)
	// Worker 1 must see nothing before the switch index.
	if _, ok, _ := s.Poll(1); ok {
		t.Fatal("grown worker must not claim pre-switch slots")
	}
	// Worker 0 drains pre-switch slots.
	for i := 0; i < 3; i++ {
		if m, ok, _ := s.Poll(0); !ok || m.Key != uint64(i) {
			t.Fatalf("pre-switch drain broke at %d", i)
		}
	}
	// Fill up to the switch index so post-switch sends land at S, S+1, ...
	pre := int(sw - 3)
	for i := 0; i < pre; i++ {
		s.Send(Message{Key: 1000 + uint64(i)})
	}
	for i := 0; i < pre; i++ {
		if _, ok, _ := s.Poll(0); !ok {
			t.Fatalf("drain to switch index stalled at %d", i)
		}
	}
	// Post-switch: slots S and S+1 split between workers 0 and 1.
	s.Send(Message{Key: 7000})
	s.Send(Message{Key: 7001})
	w0 := int(sw % 2)
	m, ok, _ := s.Poll(w0)
	if !ok || m.Key != 7000 {
		t.Fatalf("post-switch slot S: %+v ok=%v", m, ok)
	}
	m, ok, _ = s.Poll(1 - w0)
	if !ok || m.Key != 7001 {
		t.Fatalf("post-switch slot S+1: %+v ok=%v", m, ok)
	}
	if s.Workers() != 2 {
		t.Fatalf("Workers = %d", s.Workers())
	}
}

func TestReconfigureShrinkRetires(t *testing.T) {
	s := NewServer(8, 2, 2)
	s.Reconfigure(1)
	if _, ok, retired := s.Poll(1); ok || retired {
		t.Fatalf("no traffic yet: Poll(1) = ok %v, retired %v; want neither", ok, retired)
	}
	// Worker 1 hits the switch and retires.
	for {
		_, ok, retired := s.Poll(1)
		if retired {
			break
		}
		if !ok {
			// Advance the ring so cursors can cross S: send and let worker
			// 0 drain.
			s.Send(Message{Key: 1})
			for {
				if _, ok0, _ := s.Poll(0); !ok0 {
					break
				}
			}
		}
	}
	if _, ok, retired := s.Poll(1); ok || !retired {
		t.Fatal("a retired worker must stay retired")
	}
	// All subsequent traffic belongs to worker 0.
	s.Send(Message{Key: 9})
	found := false
	for i := 0; i < 16; i++ {
		if m, ok, _ := s.Poll(0); ok && m.Key == 9 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("worker 0 must own all post-shrink slots")
	}
}

// TestReconfigureBurstNoTraffic is the auto-tuner regression: a burst of
// reconfigurations with zero traffic in between all compute the same switch
// index (the ticket does not move), so every phase in the burst except the
// last is superseded before any of its slots exist. A worker that derived a
// future position under a superseded phase must not keep a stale claim on
// it — historically that let the stale worker steal a slot from its
// rightful owner when traffic resumed, wedging the owner (and the client
// whose request landed on the owner's next slot) forever.
func TestReconfigureBurstNoTraffic(t *testing.T) {
	for round := 0; round < 20; round++ {
		s := NewServer(16, 4, 2)
		// Warm traffic so cursors sit mid-ring, then stop.
		for i := 0; i < 5; i++ {
			s.Send(Message{Key: uint64(i)})
			for w := 0; w < 2; w++ {
				for {
					if m, ok, _ := s.Poll(w); ok {
						m.Call().Complete()
					} else {
						break
					}
				}
			}
		}
		// Zero-traffic reconfiguration burst, polling all workers between
		// steps like live worker loops do (this is what used to plant the
		// stale claims).
		for _, n := range []int{3, 1, 3, 2, 3, 1, 3, 2} {
			s.Reconfigure(n)
			for w := 0; w < 4; w++ {
				if m, ok, _ := s.Poll(w); ok {
					m.Call().Complete()
				}
			}
		}
		if pc := s.PhaseCount(); pc > 2 {
			t.Fatalf("zero-traffic burst grew the schedule to %d phases", pc)
		}
		// Traffic resumes: every send must complete within a bounded number
		// of polls across the currently active workers.
		for i := 0; i < 64; i++ {
			call, err := s.Send(Message{Key: 100 + uint64(i)})
			if err != nil {
				t.Fatal(err)
			}
			served := false
			for spin := 0; spin < 1000 && !served; spin++ {
				for w := 0; w < 4; w++ {
					if m, ok, _ := s.Poll(w); ok {
						m.Call().Complete()
					}
				}
				served = call.Done()
			}
			if !served {
				t.Fatalf("round %d: request %d lost after reconfiguration burst", round, i)
			}
			call.Release()
		}
	}
}

func TestReconfigurePanics(t *testing.T) {
	s := NewServer(8, 2, 1)
	for _, n := range []int{0, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			s.Reconfigure(n)
		}()
	}
}

func TestCloseStopsSends(t *testing.T) {
	s := NewServer(4, 1, 1)
	s.Close()
	if call, err := s.Send(Message{}); err != ErrClosed || call != nil {
		t.Fatalf("Send after Close = (%v, %v), want (nil, ErrClosed)", call, err)
	}
}

func TestConcurrentClientsAllDelivered(t *testing.T) {
	const nClients, perClient, nWorkers = 4, 2000, 3
	s := NewServer(64, nWorkers, nWorkers)
	var wg sync.WaitGroup
	// Workers complete calls as they poll.
	stop := make(chan struct{})
	var served sync.Map
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				m, ok, _ := s.Poll(w)
				if !ok {
					select {
					case <-stop:
						if m2, ok2, _ := s.Poll(w); ok2 {
							served.Store(m2.Key, w)
							m2.Call().Complete()
							continue
						}
						return
					default:
						runtime.Gosched()
						continue
					}
				}
				if _, dup := served.LoadOrStore(m.Key, w); dup {
					panic("duplicate claim of a request")
				}
				m.Call().Complete()
			}
		}(w)
	}
	var cwg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		cwg.Add(1)
		go func(c int) {
			defer cwg.Done()
			for i := 0; i < perClient; i++ {
				call, err := s.Send(Message{Key: uint64(c*perClient + i)})
				if err != nil {
					panic(err)
				}
				call.Wait()
			}
		}(c)
	}
	cwg.Wait()
	close(stop)
	wg.Wait()
	n := 0
	served.Range(func(any, any) bool { n++; return true })
	if n != nClients*perClient {
		t.Fatalf("served %d, want %d", n, nClients*perClient)
	}
}

func TestLiveReconfigurationUnderLoad(t *testing.T) {
	const total = 5000
	s := NewServer(32, 4, 2)
	var served sync.Map
	stop := make(chan struct{})
	var wg sync.WaitGroup
	activeTarget := make([]chan int, 4)
	for w := 0; w < 4; w++ {
		activeTarget[w] = make(chan int, 1)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				m, ok, _ := s.Poll(w)
				if ok {
					if _, dup := served.LoadOrStore(m.Key, w); dup {
						panic("duplicate claim during reconfiguration")
					}
					m.Call().Complete()
					continue
				}
				select {
				case <-stop:
					if _, ok2, _ := s.Poll(w); !ok2 {
						return
					}
				default:
					runtime.Gosched()
				}
			}
		}(w)
	}
	var cwg sync.WaitGroup
	cwg.Add(1)
	go func() {
		defer cwg.Done()
		for i := 0; i < total; i++ {
			call, err := s.Send(Message{Key: uint64(i)})
			if err != nil {
				panic(err)
			}
			call.Wait()
			switch i {
			case 1000:
				s.Reconfigure(4)
			case 3000:
				s.Reconfigure(1)
			}
		}
	}()
	cwg.Wait()
	close(stop)
	wg.Wait()
	n := 0
	served.Range(func(any, any) bool { n++; return true })
	if n != total {
		t.Fatalf("served %d, want %d", n, total)
	}
}

func TestSchedulePruning(t *testing.T) {
	s := NewServer(8, 2, 2)
	// Repeated reconfiguration with workers keeping pace must not grow the
	// schedule without bound.
	for round := 0; round < 50; round++ {
		n := 1 + round%2
		s.Reconfigure(n)
		// Drive traffic past the switch so cursors advance.
		for i := 0; i < 20; i++ {
			s.Send(Message{Key: uint64(i)})
			for w := 0; w < 2; w++ {
				for {
					if _, ok, _ := s.Poll(w); !ok {
						break
					}
				}
			}
		}
	}
	if got := s.PhaseCount(); got > 6 {
		t.Fatalf("schedule grew to %d phases despite pruning", got)
	}
	// The ring must still be fully functional.
	s.Send(Message{Key: 42})
	found := false
	for w := 0; w < 2 && !found; w++ {
		for {
			m, ok, _ := s.Poll(w)
			if !ok {
				break
			}
			if m.Key == 42 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("request lost after heavy reconfiguration")
	}
}

// --- pooled-call protocol ------------------------------------------------

// TestCallCompleteBeforeWait exercises the fast path: when the server
// completes before the client waits, Wait returns after a single atomic
// load and never touches the park channel.
func TestCallCompleteBeforeWait(t *testing.T) {
	s := NewServer(8, 2, 1)
	call, _ := s.Send(Message{Op: workload.OpGet, Key: 1})
	m, ok, _ := s.Poll(0)
	if !ok {
		t.Fatal("missing message")
	}
	m.Call().Found = true
	m.Call().Complete()
	call.Wait()
	call.Wait() // Wait after completion must be idempotent
	if !call.Found {
		t.Fatal("results must be visible after Wait")
	}
	call.Release()
}

// TestCallParkWakeup forces the slow path: the waiter parks (the server
// is deliberately slow) and Complete must wake it exactly once.
func TestCallParkWakeup(t *testing.T) {
	s := NewServer(8, 2, 1)
	call, _ := s.Send(Message{Op: workload.OpGet, Key: 1})
	go func() {
		time.Sleep(2 * time.Millisecond) // let the waiter park
		m, ok, _ := s.Poll(0)
		if !ok {
			panic("missing message")
		}
		m.Call().Found = true
		m.Call().Complete()
	}()
	call.Wait()
	if !call.Found {
		t.Fatal("parked waiter must observe results after wakeup")
	}
	call.Release()
}

// TestCallReleaseRecycles checks that a released call comes back from the
// pool reset: no stale results, scan slices emptied but retaining their
// backing capacity.
func TestCallReleaseRecycles(t *testing.T) {
	c := newCall()
	c.Found = true
	c.Value = []byte{1}
	c.Err = ErrClosed
	c.ScanKeys = append(c.ScanKeys, 1, 2, 3)
	c.ScanVals = append(c.ScanVals, []byte{1}, []byte{2})
	keysCap := cap(c.ScanKeys)
	c.Complete()
	c.Wait()
	c.Release()

	// The pool is per-P, so the same goroutine gets the same object back.
	c2 := newCall()
	if c2.Found || c2.Value != nil || c2.Err != nil || c2.Dst != nil {
		t.Fatalf("recycled call carries stale results: %+v", c2)
	}
	if len(c2.ScanKeys) != 0 || len(c2.ScanVals) != 0 {
		t.Fatal("recycled call carries stale scan results")
	}
	if c2 == c && cap(c2.ScanKeys) != keysCap {
		t.Fatal("recycling must retain scan slice capacity")
	}
	c2.Complete()
	c2.Wait()
	c2.Release()
}

// TestSendReusesPooledCalls verifies that the steady-state Send→Complete→
// Wait→Release cycle allocates nothing.
func TestSendReusesPooledCalls(t *testing.T) {
	s := NewServer(8, 2, 1)
	avg := testing.AllocsPerRun(200, func() {
		call, _ := s.Send(Message{Op: workload.OpGet, Key: 9})
		m, ok, _ := s.Poll(0)
		if !ok {
			t.Fatal("missing message")
		}
		m.Call().Complete()
		call.Wait()
		call.Release()
	})
	if avg != 0 {
		t.Fatalf("pooled call cycle allocates %.2f times per op, want 0", avg)
	}
}

func TestDepthTracksOccupancy(t *testing.T) {
	// maxWorkers > n: workers 1..3 stay parked forever and must not drag
	// the depth frontier down to zero.
	s := NewServer(8, 4, 1)
	if _, _, retired := s.Poll(1); !retired {
		t.Fatal("worker 1 must retire under a 1-worker schedule")
	}
	if d := s.Depth(); d != 0 {
		t.Fatalf("idle depth = %d, want 0", d)
	}
	var calls []*Call
	for i := 0; i < 3; i++ {
		c, _ := s.Send(Message{Op: workload.OpGet, Key: uint64(i)})
		calls = append(calls, c)
	}
	if d := s.Depth(); d != 3 {
		t.Fatalf("depth after 3 sends = %d, want 3", d)
	}
	for range calls {
		m, ok, _ := s.Poll(0)
		if !ok {
			t.Fatal("expected a message")
		}
		m.Call().Complete()
	}
	if d := s.Depth(); d != 0 {
		t.Fatalf("depth after drain = %d, want 0", d)
	}
	for _, c := range calls {
		c.Wait()
		c.Release()
	}
}

func TestReconfigurationsCounter(t *testing.T) {
	s := NewServer(8, 4, 1)
	if s.Reconfigurations() != 0 {
		t.Fatal("fresh server must report zero reconfigurations")
	}
	s.Reconfigure(3)
	s.Reconfigure(2)
	if got := s.Reconfigurations(); got != 2 {
		t.Fatalf("reconfigurations = %d, want 2", got)
	}
}

// TestWaitTimeoutExpiresAndRecovers covers the deadline path of a pooled
// call: an uncompleted call times out, then still completes normally —
// the timed-out waiter's parked state must be fully reverted so the later
// Complete neither blocks nor double-wakes.
func TestWaitTimeoutExpiresAndRecovers(t *testing.T) {
	s := NewServer(8, 1, 1)
	call, err := s.Send(Message{Op: workload.OpGet, Key: 1})
	if err != nil {
		t.Fatal(err)
	}
	if call.WaitTimeout(10 * time.Millisecond) {
		t.Fatal("WaitTimeout reported done on an uncompleted call")
	}
	m, ok, _ := s.Poll(0)
	if !ok {
		t.Fatal("published message not visible to the worker")
	}
	m.Call().Complete()
	if !call.WaitTimeout(time.Second) {
		t.Fatal("WaitTimeout did not observe the completion")
	}
	call.Wait() // done is sticky: further waits return immediately
	call.Release()
}

// TestWaitTimeoutCompleteRace hammers the window where Complete fires just
// as the timeout reverts the parked state. Under -race this is the gate on
// the CAS-revert protocol: a lost token would strand the follow-up Wait, a
// duplicate token would corrupt the next pooled use of the call.
func TestWaitTimeoutCompleteRace(t *testing.T) {
	s := NewServer(64, 1, 1)
	for i := 0; i < 300; i++ {
		call, err := s.Send(Message{Op: workload.OpGet, Key: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			for {
				m, ok, _ := s.Poll(0)
				if ok {
					m.Call().Complete()
					return
				}
				runtime.Gosched()
			}
		}()
		if !call.WaitTimeout(time.Duration(i%7) * 10 * time.Microsecond) {
			call.Wait() // timed out: completion must still arrive and wake us
		}
		call.Release()
	}
}

// TestCallDoneNonBlockingPoll pins the Done contract the pipelined network
// server depends on: Done never blocks, never consumes the park token, and
// flips exactly at completion — so a completion stage can poll the window
// head to decide whether to flush buffered responses before committing to
// a blocking Wait.
func TestCallDoneNonBlockingPoll(t *testing.T) {
	s := NewServer(8, 2, 1)
	call, _ := s.Send(Message{Op: workload.OpGet, Key: 1})
	if call.Done() {
		t.Fatal("Done before completion")
	}
	m, ok, _ := s.Poll(0)
	if !ok {
		t.Fatal("missing message")
	}
	m.Call().Found = true
	m.Call().Complete()
	for i := 0; !call.Done(); i++ {
		if i > 1_000_000 {
			t.Fatal("Done never observed completion")
		}
	}
	// Polling Done must not have burned the park token: a Wait after Done
	// still returns (fast path, but the contract holds either way).
	call.Wait()
	if !call.Found {
		t.Fatal("results must be visible after Done reported completion")
	}
	call.Release()
}
