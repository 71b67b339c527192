package bell

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestNoLostWakeup is the hand-off invariant H1 at its smallest: a
// consumer that parks every time it runs dry must see every token a
// producer publishes, whatever the gap between publications — including
// none at all. There is no timer anywhere in the loop, so a lost wake-up
// leaves the consumer asleep forever and the test fails by its deadline.
func TestNoLostWakeup(t *testing.T) {
	tokens := uint64(1_000_000)
	if testing.Short() {
		tokens = 200_000
	}
	b := New()
	var published atomic.Uint64
	done := make(chan uint64)

	go func() { // the single waiter
		var consumed, parks uint64
		for consumed < tokens {
			if p := published.Load(); p > consumed {
				consumed = p
				continue
			}
			b.Arm()
			if published.Load() > consumed {
				b.Disarm()
				continue
			}
			b.Sleep()
			parks++
		}
		done <- parks
	}()

	go func() { // the producer: publish, then ring
		rng := rand.New(rand.NewSource(1))
		for i := uint64(0); i < tokens; i++ {
			published.Add(1)
			b.Ring()
			switch rng.Intn(4) {
			case 0: // back to back
			case 1:
				runtime.Gosched()
			default: // a gap long enough for the consumer to park
				for spin := rng.Intn(200); spin > 0; spin-- {
					_ = published.Load()
				}
			}
		}
	}()

	select {
	case parks := <-done:
		if parks == 0 {
			t.Fatal("consumer never parked: the sleep path was not exercised")
		}
		t.Logf("%d tokens, %d parks", tokens, parks)
	case <-time.After(2 * time.Minute):
		t.Fatalf("lost wake-up: consumer asleep with %d of %d tokens published", published.Load(), tokens)
	}
}

// TestManyRingers rings one bell from several goroutines at once: at most
// one token may be produced per Arm, or a later Sleep would return early
// on a stale one and, worse, a later ringer would block on the full channel.
func TestManyRingers(t *testing.T) {
	const ringers, rounds = 4, 20_000
	b := New()
	var gen atomic.Uint64
	stop := make(chan struct{})
	var ringing sync.WaitGroup
	for r := 0; r <= ringers; r++ {
		ringing.Add(1)
		go func(publishes bool) { // one ringer also publishes, so Sleep always ends
			defer ringing.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if publishes {
						gen.Add(1)
					}
					b.Ring()
					runtime.Gosched()
				}
			}
		}(r == ringers)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < rounds; i++ {
			seen := gen.Load()
			b.Arm()
			if i%3 == 0 || gen.Load() != seen {
				b.Disarm()
				continue
			}
			b.Sleep()
		}
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("waiter or a ringer wedged")
	}
	close(stop)
	ringing.Wait()
	if n := len(b.ch); n != 0 {
		t.Fatalf("%d stale token(s) left in the bell", n)
	}
}

// TestRingUnarmedIsFree pins the producer-side cost model: ringing a bell
// nobody is armed on neither blocks nor leaves anything behind.
func TestRingUnarmedIsFree(t *testing.T) {
	b := New()
	for i := 0; i < 1000; i++ {
		b.Ring()
	}
	if len(b.ch) != 0 {
		t.Fatal("Ring on an unarmed bell produced a token")
	}
	if avg := testing.AllocsPerRun(100, func() {
		b.Arm()
		b.Ring()
		b.Sleep()
	}); avg != 0 {
		t.Fatalf("arm/ring/sleep allocates %.1f times, want 0", avg)
	}
}
