package rpc

import (
	"sync"
	"testing"
	"time"

	"mutps/internal/bell"
)

// parkingWorker is the worker side of the hand-off protocol with nothing
// else around it: poll, and on an empty poll arm the bell, poll once more,
// and sleep. It never yields and never times out, so it makes progress only
// if every condition it waits for is rung (DESIGN.md "Hand-offs", H1).
func parkingWorker(s *Server, w int, serve func(Message)) (parks int) {
	b := s.Bell(w)
	for {
		m, ok, retired := s.Poll(w)
		if !ok {
			if retired && s.Closed() {
				return parks
			}
			b.Arm()
			m, ok, retired = s.Poll(w)
			if !ok {
				if retired && s.Closed() {
					b.Disarm()
					return parks
				}
				b.Sleep()
				parks++
				continue
			}
			b.Disarm()
		}
		serve(m)
	}
}

// TestH1ParkedWorkersLoseNoRequest: workers that sleep whenever they run
// dry still serve every request across grows, shrinks and Close — Send
// rings the owner of the slot it published, Reconfigure and Close ring
// everyone. A lost wake-up leaves a client in Wait forever and fails by
// the deadline.
func TestH1ParkedWorkersLoseNoRequest(t *testing.T) {
	const workers, clients, perClient = 4, 3, 4000
	s := NewServer(32, workers, 2)
	var served [workers]int
	var parks [workers]int
	var wwg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			parks[w] = parkingWorker(s, w, func(m Message) {
				served[w]++
				m.Call().Complete()
			})
		}(w)
	}
	var cwg sync.WaitGroup
	for c := 0; c < clients; c++ {
		cwg.Add(1)
		go func(c int) {
			defer cwg.Done()
			for i := 0; i < perClient; i++ {
				call, err := s.Send(Message{Key: uint64(c*perClient + i)})
				if err != nil {
					t.Error(err)
					return
				}
				call.Wait() // one in flight per client: workers run dry constantly
				call.Release()
				if c == 0 && i%500 == 250 {
					s.Reconfigure(1 + (i/500)%workers)
				}
			}
		}(c)
	}
	done := make(chan struct{})
	go func() {
		cwg.Wait()
		s.Close()
		wwg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("lost wake-up: a client is still waiting or a worker never saw Close")
	}
	total, slept := 0, 0
	for w := range served {
		total += served[w]
		slept += parks[w]
	}
	if total != clients*perClient {
		t.Fatalf("served %d of %d", total, clients*perClient)
	}
	if slept == 0 {
		t.Fatal("no worker ever parked: the sleep path was not exercised")
	}
}

// TestNotifyBellRungByComplete drives a window of calls from one waiter
// parked on its own bell, the way a connection's completion stage does,
// and checks the park accounting: Wait on a completed call never parks.
func TestNotifyBellRungByComplete(t *testing.T) {
	const calls = 2000
	s := NewServer(64, 1, 1)
	b := bell.New()
	go parkingWorker(s, 0, func(m Message) { m.Call().Complete() })
	defer s.Close()

	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for i := 0; i < calls; i++ {
			c, err := s.Send(Message{Key: uint64(i), Notify: b})
			if err != nil {
				t.Error(err)
				return
			}
			for !c.Done() {
				b.Arm()
				if c.Done() {
					b.Disarm()
					break
				}
				b.Sleep()
			}
			c.Wait() // done: must return without parking
			c.Release()
		}
	}()
	select {
	case <-finished:
	case <-time.After(time.Minute):
		t.Fatal("lost wake-up: Complete did not ring the notify bell")
	}
	if n := s.WaitParks(); n != 0 {
		t.Fatalf("Wait parked %d times on completed calls", n)
	}

	// And the other way round: no bell, a pending call — Wait parks, once.
	c, err := s.Send(Message{Key: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Wait()
	c.Release()
	if n := s.WaitParks(); n > 1 {
		t.Fatalf("one Wait parked %d times", n)
	}
}
