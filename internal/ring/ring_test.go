package ring

import (
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestRequestIs16Bytes(t *testing.T) {
	if s := unsafe.Sizeof(Request{}); s != 16 {
		t.Fatalf("Request is %d bytes, the paper's format is 16", s)
	}
}

func TestSPSCPushPeekCommit(t *testing.T) {
	q := NewSPSC(4)
	if q.Peek() != nil {
		t.Fatal("empty ring must peek nil")
	}
	batch := []Request{{Key: 1}, {Key: 2}}
	if !q.Push(batch) {
		t.Fatal("push into empty ring must succeed")
	}
	got := q.Peek()
	if len(got) != 2 || got[0].Key != 1 || got[1].Key != 2 {
		t.Fatalf("peek = %+v", got)
	}
	// Peek again returns the same batch (no consumption).
	if g2 := q.Peek(); len(g2) != 2 {
		t.Fatal("peek must not consume")
	}
	if q.Done() != 0 {
		t.Fatal("done must not advance before commit")
	}
	q.Commit()
	if q.Done() != 1 {
		t.Fatalf("Done = %d", q.Done())
	}
	if q.Peek() != nil {
		t.Fatal("ring must be empty after commit")
	}
	if !q.Empty() {
		t.Fatal("Empty must be true after draining")
	}
}

func TestSPSCFullRing(t *testing.T) {
	q := NewSPSC(2)
	one := []Request{{Key: 9}}
	if !q.Push(one) || !q.Push(one) {
		t.Fatal("ring of 2 must accept 2 batches")
	}
	if q.Push(one) {
		t.Fatal("full ring must reject push")
	}
	q.Peek()
	q.Commit()
	if !q.Push(one) {
		t.Fatal("push must succeed after commit frees a slot")
	}
}

func TestSPSCCapacityRounding(t *testing.T) {
	if NewSPSC(3).Cap() != 4 || NewSPSC(0).Cap() != 2 || NewSPSC(8).Cap() != 8 {
		t.Fatal("capacity must round up to a power of two, min 2")
	}
}

func TestSPSCPushPanics(t *testing.T) {
	q := NewSPSC(2)
	for _, batch := range [][]Request{nil, make([]Request, MaxBatch+1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			q.Push(batch)
		}()
	}
}

func TestSPSCConcurrentFIFO(t *testing.T) {
	q := NewSPSC(8)
	const batches = 5000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // producer
		defer wg.Done()
		for i := uint64(0); i < batches; i++ {
			b := []Request{{Key: 2 * i}, {Key: 2*i + 1}}
			for !q.Push(b) {
				runtime.Gosched()
			}
		}
	}()
	go func() { // consumer
		defer wg.Done()
		next := uint64(0)
		for next < 2*batches {
			b := q.Peek()
			if b == nil {
				runtime.Gosched()
				continue
			}
			for _, r := range b {
				if r.Key != next {
					panic("FIFO order violated")
				}
				next++
			}
			q.Commit()
		}
	}()
	wg.Wait()
	if q.Done() != batches || q.Pushed() != batches {
		t.Fatalf("done=%d pushed=%d", q.Done(), q.Pushed())
	}
}

func TestCRMRGeometry(t *testing.T) {
	q := NewCRMR(3, 2, 4)
	if q.MaxCR() != 3 || q.MaxMR() != 2 {
		t.Fatalf("dims %dx%d", q.MaxCR(), q.MaxMR())
	}
	if q.Ring(2, 1) == nil || q.Ring(0, 0) == q.Ring(0, 1) {
		t.Fatal("rings must be distinct per pair")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		NewCRMR(0, 1, 4)
	}()
}

func TestProducerRoundRobinAndBatching(t *testing.T) {
	q := NewCRMR(1, 3, 8)
	p := q.Producer(0, 2)
	// First request: queued locally, no flush.
	if mr, fl := p.Add(Request{Key: 1}, 0, 3); fl || mr != -1 {
		t.Fatal("batch of 1 must not flush at size 2")
	}
	if p.PendingLocal() != 1 {
		t.Fatalf("pending = %d", p.PendingLocal())
	}
	// Second request completes the batch → flush to MR 0.
	mr, fl := p.Add(Request{Key: 2}, 0, 3)
	if !fl || mr != 0 {
		t.Fatalf("flush to %d, %v", mr, fl)
	}
	// Next flushes rotate: MR 1, then MR 2, then MR 0.
	for want := 1; want <= 3; want++ {
		p.Add(Request{Key: 9}, 0, 3)
		mr, fl = p.Add(Request{Key: 9}, 0, 3)
		if !fl || mr != want%3 {
			t.Fatalf("round robin broke: got %d want %d", mr, want%3)
		}
	}
	// Batches landed in the right rings.
	if q.Ring(0, 0).Pushed() != 2 || q.Ring(0, 1).Pushed() != 1 || q.Ring(0, 2).Pushed() != 1 {
		t.Fatal("wrong ring distribution")
	}
}

func TestProducerFlushEmptyAndClamping(t *testing.T) {
	q := NewCRMR(1, 1, 4)
	p := q.Producer(0, 0) // clamped to 1
	if mr, fl := p.Flush(0, 1); fl || mr != -1 {
		t.Fatal("flush of empty batch must be a no-op")
	}
	if mr, fl := p.Add(Request{}, 0, 1); !fl || mr != 0 {
		t.Fatal("batch size clamped to 1 must flush immediately")
	}
	big := q.Producer(0, MaxBatch+10)
	for i := 0; i < MaxBatch-1; i++ {
		if _, fl := big.Add(Request{}, 0, 1); fl {
			t.Fatal("must not flush before MaxBatch")
		}
	}
	if _, fl := big.Add(Request{}, 0, 1); !fl {
		t.Fatal("must flush at MaxBatch")
	}
}

func TestConsumerPollScansAllProducers(t *testing.T) {
	q := NewCRMR(3, 1, 4)
	c := q.Consumer(0)
	if cr, _, _ := c.Poll(3); cr != -1 {
		t.Fatal("empty matrix must poll nothing")
	}
	// CR 2 pushes a batch.
	q.Ring(2, 0).Push([]Request{{Key: 42}})
	cr, reqs, r := c.Poll(3)
	if cr != 2 || len(reqs) != 1 || reqs[0].Key != 42 {
		t.Fatalf("poll = cr%d %+v", cr, reqs)
	}
	r.Commit()
	if !q.ColumnEmpty(0) {
		t.Fatal("column must be empty after commit")
	}
}

func TestConsumerPollFairness(t *testing.T) {
	q := NewCRMR(2, 1, 8)
	c := q.Consumer(0)
	// Both CR workers have pending batches; alternating polls must not
	// starve either.
	for i := 0; i < 4; i++ {
		q.Ring(0, 0).Push([]Request{{Key: 100}})
		q.Ring(1, 0).Push([]Request{{Key: 200}})
	}
	seen := map[int]int{}
	for i := 0; i < 8; i++ {
		cr, _, r := c.Poll(2)
		if cr == -1 {
			t.Fatal("expected work")
		}
		seen[cr]++
		r.Commit()
	}
	if seen[0] != 4 || seen[1] != 4 {
		t.Fatalf("unfair polling: %v", seen)
	}
}

func TestRowColumnEmpty(t *testing.T) {
	q := NewCRMR(2, 2, 4)
	if !q.ColumnEmpty(1) {
		t.Fatal("fresh matrix must be empty")
	}
	q.Ring(0, 1).Push([]Request{{}})
	if q.ColumnEmpty(1) {
		t.Fatal("column with pending batch must not be empty")
	}
	if !q.ColumnEmpty(0) {
		t.Fatal("unrelated row/column must stay empty")
	}
}

func TestCRMREndToEndConcurrent(t *testing.T) {
	const (
		nCR, nMR = 3, 2
		perCR    = 3000
	)
	q := NewCRMR(nCR, nMR, 16)
	var wg sync.WaitGroup
	var mu sync.Mutex
	received := map[uint64]bool{}
	// MR consumers.
	var doneProducers sync.WaitGroup
	doneProducers.Add(nCR)
	stop := make(chan struct{})
	for m := 0; m < nMR; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			c := q.Consumer(m)
			for {
				cr, reqs, r := c.Poll(nCR)
				if cr == -1 {
					select {
					case <-stop:
						if _, reqs2, _ := c.Poll(nCR); reqs2 == nil {
							return
						}
						continue
					default:
						runtime.Gosched()
						continue
					}
				}
				mu.Lock()
				for _, req := range reqs {
					if received[req.Key] {
						panic("duplicate delivery")
					}
					received[req.Key] = true
				}
				mu.Unlock()
				r.Commit()
			}
		}(m)
	}
	for cw := 0; cw < nCR; cw++ {
		wg.Add(1)
		go func(cw int) {
			defer wg.Done()
			defer doneProducers.Done()
			p := q.Producer(cw, 4)
			for i := 0; i < perCR; i++ {
				p.Add(Request{Key: uint64(cw*perCR + i)}, 0, nMR)
			}
			p.Flush(0, nMR)
		}(cw)
	}
	doneProducers.Wait()
	close(stop)
	wg.Wait()
	if len(received) != nCR*perCR {
		t.Fatalf("received %d, want %d", len(received), nCR*perCR)
	}
}

// TestH1ConsumerParksOnColumnBell is the CR-MR side of the hand-off
// invariant: consumers that sleep on their column's bell whenever every
// ring they scan is empty still receive every batch, because Flush rings
// the column it pushed to. No timer and no yield on the consumer side: a
// push that fails to ring leaves a consumer asleep and the test hangs into
// its deadline.
func TestH1ConsumerParksOnColumnBell(t *testing.T) {
	const (
		nCR, nMR = 3, 2
		perCR    = 20000
		goodbye  = 1 // Type of a producer's last request to a column
	)
	q := NewCRMR(nCR, nMR, 16)
	var got [nMR]int
	var parks [nMR]int
	var consumers sync.WaitGroup
	for m := 0; m < nMR; m++ {
		consumers.Add(1)
		go func(m int) {
			defer consumers.Done()
			c, b := q.Consumer(m), q.Bell(m)
			for byes := 0; byes < nCR; { // until every producer said goodbye
				_, reqs, r := c.Poll(nCR)
				if reqs == nil {
					b.Arm()
					if _, reqs, r = c.Poll(nCR); reqs == nil {
						b.Sleep()
						parks[m]++
						continue
					}
					b.Disarm()
				}
				for _, req := range reqs {
					if req.Type == goodbye {
						byes++
					}
				}
				got[m] += len(reqs)
				r.Commit()
			}
		}(m)
	}
	for cw := 0; cw < nCR; cw++ {
		go func(cw int) {
			p := q.Producer(cw, 4)
			for i := 0; i < perCR; i++ {
				p.Add(Request{Key: uint64(i)}, 0, nMR)
				if i%64 == 0 {
					p.Flush(0, nMR) // a partial batch, then a gap to park in
					runtime.Gosched()
				}
			}
			p.Flush(0, nMR)
			for m := 0; m < nMR; m++ { // one goodbye per column
				p.Add(Request{Type: goodbye}, m, 1)
				p.Flush(m, 1)
			}
		}(cw)
	}
	done := make(chan struct{})
	go func() { consumers.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("lost wake-up: a consumer is asleep with batches in its column")
	}
	total, slept := 0, 0
	for m := range got {
		total += got[m]
		slept += parks[m]
	}
	if want := nCR*perCR + nCR*nMR; total != want {
		t.Fatalf("received %d requests, want %d", total, want)
	}
	if slept == 0 {
		t.Fatal("no consumer ever parked: the sleep path was not exercised")
	}
}
