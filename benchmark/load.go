package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mutps/internal/netserver"
	"mutps/internal/workload"
)

// failures counts failed operations and prints the first few with their op
// and key; every later one is only counted.
type failures struct {
	n atomic.Int64
}

const maxPrintedFailures = 10

func (f *failures) add(o op, err error) {
	if f.n.Add(1) <= maxPrintedFailures {
		fmt.Fprintf(os.Stderr, "FAILED %s key=%d: %v\n", o, o.key, err)
	}
}

// inflight is a request sent and not yet answered. start is what its
// latency is measured from: the instant before Send in a closed loop, the
// instant it was due in an open loop.
type inflight struct {
	fut   *netserver.Future
	op    op
	start time.Time
	ts    *opTimes // non-nil when this request is traced
}

// finish waits for the response, verifies it and returns when it arrived.
func (x *inflight) finish(fails *failures) time.Time {
	if x.ts != nil {
		x.ts.wait0 = time.Now()
	}
	status, body, err := x.fut.Wait()
	done := time.Now()
	if err := x.op.check(status, body, err); err != nil {
		fails.add(x.op, err)
	}
	x.fut.Release()
	if x.ts != nil {
		x.ts.wait1 = done
		x.ts.verify1 = time.Now()
	}
	return done
}

// preload writes every key of the keyspace once, version 0, with sizes
// drawn from the workload's own distribution. Connection c loads keys
// c, c+conns, ... with preloadDepth requests in flight.
func preload(pcs []*netserver.PipelineClient, s spec, seed uint64) error {
	var fails failures
	var wg sync.WaitGroup
	errs := make([]error, len(pcs))
	for c, pc := range pcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := workload.NewRNG(seed*7_919 + uint64(c) + 1)
			q := make([]inflight, 0, preloadDepth)
			var val []byte
			for key := uint64(c); key < s.keys; key += uint64(len(pcs)) {
				if len(q) == cap(q) {
					if errs[c] = pc.Flush(); errs[c] != nil {
						return
					}
					q[0].finish(&fails)
					q = append(q[:0], q[1:]...)
				}
				val = encodeValue(val, key, 0, s.sizes.Sample(rng))
				f, err := pc.Send(netserver.OpPut, key, val)
				if err != nil {
					errs[c] = err
					return
				}
				q = append(q, inflight{fut: f, op: op{code: netserver.OpPut, key: key}})
			}
			if errs[c] = pc.Flush(); errs[c] != nil {
				return
			}
			for i := range q {
				q[i].finish(&fails)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if n := fails.n.Load(); n > 0 {
		return fmt.Errorf("%d of %d preload puts failed", n, s.keys)
	}
	return nil
}

// A closed-loop window's latencies are kept in slices of latSlice; p50_us
// and p99_us are medians over the slices and tput_ops_s over their counts.
// An open-loop window is cut into turns of openTurn, one rate each.
const (
	latSlice = time.Second
	openTurn = 500 * time.Millisecond
)

// tally is what one connection measured.
type tally struct {
	lat       [][]int64 // ns per op completed inside the measured window, by latSlice of completion
	attempted int       // every op sent, warm-up included
	err       error     // the connection broke
}

// closedLoop keeps window requests in flight on pc from start until
// start+warm+measure and records the ones that complete after the warm-up.
// Latency runs from the instant before Send to the return of Future.Wait.
func closedLoop(pc *netserver.PipelineClient, gen *opGen, window int, start time.Time,
	warm, measure time.Duration, fails *failures, tr *connTrace) tally {
	m0 := start.Add(warm)
	m1 := m0.Add(measure)
	t := tally{lat: make([][]int64, int(measure/latSlice))}
	for i := range t.lat {
		t.lat[i] = make([]int64, 0, 1<<16)
	}
	q := make([]inflight, window) // ring: head is the oldest
	head, n := 0, 0
	complete := func() time.Time {
		x := &q[head]
		done := x.finish(fails)
		if i := int(done.Sub(m0) / latSlice); !done.Before(m0) && i < len(t.lat) {
			t.lat[i] = append(t.lat[i], int64(done.Sub(x.start)))
			if x.ts != nil {
				tr.record(x)
			}
		}
		head = (head + 1) % window
		n--
		return done
	}
	for now := time.Now(); now.Before(m1); {
		for n < window {
			x := &q[(head+n)%window]
			*x = inflight{ts: tr.sample(t.attempted)}
			if x.ts != nil {
				x.ts.gen0 = time.Now()
			}
			var payload []byte
			x.op, payload = gen.next()
			x.start = time.Now()
			if x.ts != nil {
				x.ts.send0 = x.start
			}
			f, err := pc.Send(x.op.code, x.op.key, payload)
			if err != nil {
				t.err = err
				return t
			}
			if x.ts != nil {
				x.ts.send1 = time.Now()
			}
			x.fut = f
			t.attempted++
			n++
		}
		if t.err = pc.Flush(); t.err != nil {
			return t
		}
		now = complete()
	}
	for n > 0 {
		complete()
	}
	return t
}

// step is what one open-loop turn at one offered rate measured.
type step struct {
	lat       []int64 // ns from due time to response, every op of the turn
	lag       []int64 // ns from due time to the return of Send
	attempted int
	midFlight int64 // requests in flight when half the schedule was sent
	endFlight int64 // and when all of it was
	err       error
}

// openLoop offers rate ops/s for dur, request i due at start + i/rate and
// sent on connection i mod len(pcs), whatever the server does: one
// scheduler, one receiver per connection. Latency runs from the due time,
// so a stall is charged to every request scheduled during it, and lag says
// how late the scheduler itself ran. Between due times the scheduler sleeps
// in nanosleep: time.Sleep rounds up to a millisecond here, and a loop of
// runtime.Gosched is preempted for whole timeslices by the server's polling
// workers, which made it later still.
func openLoop(pcs []*netserver.PipelineClient, gen *opGen, rate int, dur time.Duration,
	fails *failures, tr *connTrace) step {
	var st step
	total := int(float64(rate) * dur.Seconds())
	st.lag = make([]int64, 0, total)
	var completed atomic.Int64

	// A receiver's channel must never be what blocks the scheduler: it holds
	// more than the connection's own in-flight limit.
	chans := make([]chan inflight, len(pcs))
	lats := make([][]int64, len(pcs))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range pcs {
		chans[c] = make(chan inflight, openDepth+1)
		lats[c] = make([]int64, 0, total/len(pcs)+1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for x := range chans[c] {
				done := x.finish(fails)
				lats[c] = append(lats[c], int64(done.Sub(x.start)))
				completed.Add(1)
				if x.ts != nil {
					tr.record(&x)
				}
			}
		}()
	}

	dirty := make([]bool, len(pcs)) // sent since the last flush
	flush := func() {
		for c, pc := range pcs {
			if dirty[c] {
				dirty[c] = false
				if err := pc.Flush(); err != nil && st.err == nil {
					st.err = err
				}
			}
		}
	}
	for i := 0; i < total && st.err == nil; i++ {
		due := start.Add(time.Duration(float64(i) / float64(rate) * float64(time.Second)))
		for d := time.Until(due); d > 0; d = time.Until(due) {
			flush() // nothing waits in a client buffer while the scheduler idles
			ts := syscall.NsecToTimespec(int64(d))
			syscall.Nanosleep(&ts, nil)
		}
		c := i % len(pcs)
		x := inflight{start: due, ts: tr.sample(i)}
		if x.ts != nil {
			x.ts.gen0 = time.Now()
		}
		var payload []byte
		x.op, payload = gen.next()
		if x.ts != nil {
			x.ts.send0 = time.Now()
		}
		f, err := pcs[c].Send(x.op.code, x.op.key, payload)
		if err != nil {
			st.err = err
			break
		}
		now := time.Now()
		if x.ts != nil {
			x.ts.send1 = now
		}
		x.fut = f
		st.lag = append(st.lag, int64(now.Sub(due)))
		dirty[c] = true
		chans[c] <- x
		st.attempted++
		switch i + 1 {
		case total / 2:
			st.midFlight = int64(i+1) - completed.Load()
		case total:
			st.endFlight = int64(i+1) - completed.Load()
		}
	}
	flush()
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	for _, l := range lats {
		st.lat = append(st.lat, l...)
	}
	return st
}
