// Package rpc implements reconfigurable RPC (§3.2.1): a single shared
// receive ring at the server into which all clients append requests, with
// worker threads claiming slots by index — worker i fetches the request at
// slot m exactly when m mod n = i, where n is the number of active workers.
// Changing n is therefore a server-local update: no coordination with
// clients is needed, which is the property that makes μTPS's thread
// reassignment cheap.
//
// The transport here is in-process (clients are goroutines); the simulated
// RDMA path lives in internal/simhw and internal/simkv. The reconfiguration
// protocol is the paper's: the manager publishes a switch index S, workers
// keep using the old n for slots below S and the new n from S on, so every
// slot has exactly one owner at all times and no request is lost or
// duplicated.
package rpc

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mutps/internal/bell"
	"mutps/internal/workload"
)

// Message is one client request as it sits in a receive-ring slot.
type Message struct {
	Op        workload.OpType
	Key       uint64
	Value     []byte // put payload; not retained after the call completes
	ScanCount int

	// Expire is a put's absolute expiry deadline in Unix nanoseconds
	// (0 = the item never expires). The facade converts relative TTLs to
	// absolute deadlines at Send time so every layer below is clock-free.
	Expire uint64

	// Dst is an optional caller-owned destination buffer for get results:
	// the server appends the value into Dst[:0] when its capacity suffices,
	// so a correctly sized buffer makes the whole get path allocation-free.
	// The caller must not touch Dst between Send and Wait.
	Dst []byte

	// Notify is an optional bell Complete rings after the call is done. A
	// caller with many calls in flight (a connection's completion stage)
	// parks once on its own bell until any of them completes, instead of
	// blocking in Wait call by call. The bell must outlive the call.
	Notify *bell.Bell

	call *Call
}

// Call state machine. A call is pending from Send until Complete; a waiter
// that finds it pending CASes pending→parked and blocks on the park
// channel, which Complete signals. done is terminal until the call is
// recycled.
const (
	callPending uint32 = iota
	callParked
	callDone
)

// Call is the client-side future for a response. Calls are pooled: Send
// draws from a sync.Pool and Release returns the call for reuse, making
// the steady-state request lifecycle allocation-free.
//
// Protocol rules (violations corrupt the pool):
//   - exactly one goroutine Waits on a call (Wait may be called again
//     after it has returned, but never concurrently);
//   - the server Completes each call exactly once per Send;
//   - Release may be called at most once, only after Wait has returned,
//     and the call and its result fields must not be touched afterwards.
//
// Release is optional — an unreleased call is simply collected by the GC.
type Call struct {
	state  atomic.Uint32
	park   chan struct{}  // cap 1; reused across recycles
	notify *bell.Bell     // Message.Notify, rung by Complete
	parks  *atomic.Uint64 // the owning server's Wait-park counter

	// Results, valid after Wait returns and until Release.
	Value    []byte   // get result (nil if missing); aliases Dst when it fit
	Found    bool     // get/delete outcome
	Expiry   uint64   // get result: absolute expiry deadline (0 = none)
	Expired  bool     // get outcome: key existed but passed its TTL deadline
	ScanKeys []uint64 // keys returned by a scan, ascending
	ScanVals [][]byte // values parallel to ScanKeys
	Err      error

	// ScanBuf is the backing store for ScanVals: scan servers append every
	// value into it and slice ScanVals out of it, so a whole scan costs no
	// per-entry allocation once the buffer has grown to the scan's working
	// size. Like ScanKeys/ScanVals its capacity survives Release, and like
	// them its contents are only valid until Release — callers that keep
	// values past Release must copy them out.
	ScanBuf []byte

	// Dst is the caller's destination buffer, copied from Message.Dst by
	// Send; servers read values with it.Read(call.Dst[:0]).
	Dst []byte
}

var callPool = sync.Pool{New: func() any {
	return &Call{park: make(chan struct{}, 1)}
}}

// newCall draws a recycled (or fresh) pending call from the pool.
func newCall() *Call {
	c := callPool.Get().(*Call)
	c.state.Store(callPending)
	return c
}

// Wait blocks until the server completes the call: check, then park. An
// already-completed call costs one atomic load; a pending one sleeps on
// the park channel until Complete's token arrives — no yielding in between.
func (c *Call) Wait() {
	if c.state.Load() == callDone {
		return
	}
	if c.state.CompareAndSwap(callPending, callParked) {
		c.parks.Add(1)
		<-c.park
	}
	// CAS failed: Complete won the race and the state is already done.
}

// WaitTimeout waits like Wait but gives up after d, reporting whether the
// call completed. A false return leaves the call pending: the server may
// still complete it later, so the caller must not Release a timed-out call
// (and must not reuse its Dst buffer) until it eventually completes. The
// same single-waiter rule as Wait applies.
func (c *Call) WaitTimeout(d time.Duration) bool {
	if c.state.Load() == callDone {
		return true
	}
	if !c.state.CompareAndSwap(callPending, callParked) {
		return true // Complete won the race
	}
	c.parks.Add(1)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-c.park:
		return true
	case <-t.C:
		// Un-park so a late Complete does not write to the channel with no
		// reader. If the CAS fails, Complete is already committed to sending
		// the token: consume it and report success.
		if c.state.CompareAndSwap(callParked, callPending) {
			return false
		}
		<-c.park
		return true
	}
}

// Done is the non-blocking completion poll: it reports whether the call
// has completed, without ever parking or consuming the park token. It may
// be called from any goroutine and any number of times; a true return
// means the result fields are valid (the completing store sequences them
// before the state swap Done observes). Pipelined executors use it to
// decide whether retiring the window head will block — e.g. to flush
// buffered responses before waiting — while Wait remains the only way to
// block for the result.
func (c *Call) Done() bool { return c.state.Load() == callDone }

// Complete finishes the call; servers call it exactly once per Send. The
// notify bell is read before the state swap: once the call is done its
// waiter may Release it, and a recycled call's fields belong to the next
// Send.
func (c *Call) Complete() {
	n := c.notify
	if c.state.Swap(callDone) == callParked {
		c.park <- struct{}{}
	}
	if n != nil {
		n.Ring()
	}
}

// Fail completes the call with an error; it counts as the call's one
// Complete. The drain path uses it to resolve calls the server will never
// execute.
func (c *Call) Fail(err error) {
	c.Err = err
	c.Complete()
}

// Release recycles the call into the pool. Call it after Wait, once, and
// only if no other goroutine still holds the call; see the type comment.
// ScanKeys/ScanVals capacity is retained so scans reuse result slices.
func (c *Call) Release() {
	c.Value = nil
	c.Dst = nil
	c.notify = nil
	c.parks = nil
	c.Found = false
	c.Expiry = 0
	c.Expired = false
	c.Err = nil
	c.ScanKeys = c.ScanKeys[:0]
	for i := range c.ScanVals {
		c.ScanVals[i] = nil // drop value refs; keep the slice's capacity
	}
	c.ScanVals = c.ScanVals[:0]
	c.ScanBuf = c.ScanBuf[:0]
	callPool.Put(c)
}

// ErrClosed is reported by Send after Close, and is the error every call
// caught by the shutdown drain completes with: a caller that sees it knows
// the request was not executed.
var ErrClosed = errors.New("rpc: server closed")

// ErrBacklogged is reported by Send when the receive ring stays full for
// the whole backpressure budget: the server is not consuming fast enough.
// The request was never enqueued, so it is safe to retry after backing off.
var ErrBacklogged = errors.New("rpc: receive ring backlogged")

type slot struct {
	seq atomic.Uint64
	msg Message
}

// phase is one segment of the worker-count schedule: slots in
// [start, nextPhase.start) are owned by worker (slot mod n).
type phase struct {
	start uint64
	n     int
}

type schedule struct {
	phases []phase // ascending by start; at least one
}

// nextOwned returns the smallest slot index >= from owned by worker, or
// false if the worker owns no further slots (it has been retired by a
// shrink and has passed the switch index).
func (s *schedule) nextOwned(from uint64, worker int) (uint64, bool) {
	for i := 0; i < len(s.phases); i++ {
		p := s.phases[i]
		end := ^uint64(0)
		if i+1 < len(s.phases) {
			end = s.phases[i+1].start
		}
		if end <= from {
			continue
		}
		lo := from
		if p.start > lo {
			lo = p.start
		}
		if worker >= p.n {
			continue // retired within this phase
		}
		// First index >= lo with index mod p.n == worker.
		rem := lo % uint64(p.n)
		idx := lo + (uint64(worker)+uint64(p.n)-rem)%uint64(p.n)
		if idx < end {
			return idx, true
		}
	}
	return 0, false
}

// Server is the in-process reconfigurable RPC endpoint.
type Server struct {
	capMask uint64
	slots   []slot

	ticket atomic.Uint64 // client producer tickets
	sched  atomic.Pointer[schedule]
	closed atomic.Bool

	// inflight counts senders between their closed check and the point
	// where their claim is either published or abandoned. Close spins until
	// it reads zero, after which the ticket frontier is final: every claim
	// below it is published and no claim at or above it will ever be made.
	inflight   atomic.Int64
	closeOnce  sync.Once
	backlogged atomic.Uint64 // Sends failed with ErrBacklogged (observability)

	reconfigs atomic.Uint64 // schedule changes applied (observability)
	waitParks atomic.Uint64 // Call.Wait/WaitTimeout calls that had to park

	cursors    []cursorPad // per-worker base: all slots below are consumed or disowned
	maxWorkers int

	// bells[w] is worker w's doorbell (DESIGN.md "Hand-offs"): Send rings
	// the owner of the slot it published; Reconfigure and Close ring every
	// worker, since they change what each worker owns.
	bells []*bell.Bell
}

type cursorPad struct {
	v atomic.Uint64
	_ [7]uint64
}

// NewServer creates a receive ring with the given capacity (rounded up to a
// power of two, minimum 4 — the slot state machine reserves seq offsets 0..2
// within a lap) serving up to maxWorkers workers, initially n of them
// active.
func NewServer(capacity, maxWorkers, n int) *Server {
	if n < 1 || n > maxWorkers {
		panic("rpc: initial worker count out of range")
	}
	c := 4
	for c < capacity {
		c <<= 1
	}
	s := &Server{
		capMask:    uint64(c - 1),
		slots:      make([]slot, c),
		cursors:    make([]cursorPad, maxWorkers),
		maxWorkers: maxWorkers,
		bells:      make([]*bell.Bell, maxWorkers),
	}
	for i := range s.slots {
		s.slots[i].seq.Store(uint64(i))
	}
	for w := range s.bells {
		s.bells[w] = bell.New()
	}
	s.sched.Store(&schedule{phases: []phase{{0, n}}})
	// Cursors start at base 0; each worker derives its owned slots from the
	// schedule on every poll.
	return s
}

// Cap returns the ring capacity in slots.
func (s *Server) Cap() int { return len(s.slots) }

// Workers returns the currently scheduled worker count (the n of the
// latest phase).
func (s *Server) Workers() int {
	ph := s.sched.Load().phases
	return ph[len(ph)-1].n
}

// Bell returns worker w's doorbell. A worker that finds Poll empty arms it,
// polls once more, and sleeps; anything else the worker waits for (its
// CR-MR column, shutdown progress) must ring the same bell.
func (s *Server) Bell(w int) *bell.Bell { return s.bells[w] }

// RingAll rings every worker's bell: the wake-up for conditions that are
// not tied to one slot (schedule changes, shutdown progress).
func (s *Server) RingAll() {
	for _, b := range s.bells {
		b.Ring()
	}
}

// ringOwner rings the worker that owns the just-published slot pos under
// the live schedule. The phase governing a published, unconsumed slot never
// changes (Reconfigure only appends beyond every claimed ticket and prunes
// below every worker's next owned slot), so the owner derived here is the
// worker whose Poll will find it; if pruning has already dropped that
// phase, the slot has been consumed and nobody needs waking.
func (s *Server) ringOwner(pos uint64) {
	ph := s.sched.Load().phases
	for i := len(ph) - 1; i >= 0; i-- {
		if ph[i].start <= pos {
			if n := uint64(ph[i].n); n > 0 {
				s.bells[pos%n].Ring()
			}
			return
		}
	}
}

// WaitParks returns how many Call.Wait/WaitTimeout calls found their call
// still pending and parked.
func (s *Server) WaitParks() uint64 { return s.waitParks.Load() }

// Backpressure budget for a Send that finds the ring full (§3.4): first a
// run of scheduler yields (cheap; absorbs transient consumer hiccups),
// then a run of short naps (absorbs a descheduled consumer), then give
// up with ErrBacklogged. The worst case is roughly sendFullNaps×sendFullNap
// ≈ 20ms plus scheduling noise — generous enough that a live-but-busy
// server never trips it, and bounded so a stalled server fails fast
// instead of burning a core forever.
const (
	sendFullSpins = 1024
	sendFullNaps  = 200
	sendFullNap   = 100 * time.Microsecond
)

// Send appends a request to the shared receive ring and returns the call
// future. It fails with ErrClosed after Close and with ErrBacklogged when
// the ring stays full for the whole backpressure budget; in both cases the
// request was not enqueued. Safe for any number of concurrent client
// goroutines.
func (s *Server) Send(m Message) (*Call, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	// Enter the inflight window before re-checking closed: Close sets the
	// flag and then waits for inflight to hit zero, so either this sender
	// sees closed here, or Close waits for it to publish/abandon. Either
	// way no publication can land at or beyond the frontier Close reads.
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.closed.Load() {
		return nil, ErrClosed
	}
	call := newCall()
	call.Dst = m.Dst
	call.notify = m.Notify
	call.parks = &s.waitParks
	m.call = call
	full := 0
	for {
		pos := s.ticket.Load()
		sl := &s.slots[pos&s.capMask]
		seq := sl.seq.Load()
		if seq == pos {
			// Slot free: claim the ticket, then publish unconditionally.
			// Claim-before-publish (rather than an up-front fetch-add) means
			// a Send that gives up never owns a ticket, so it cannot wedge
			// the ring behind a permanently unpublished slot.
			if s.ticket.CompareAndSwap(pos, pos+1) {
				sl.msg = m
				sl.seq.Store(pos + 1)
				s.ringOwner(pos)
				return call, nil
			}
			continue // lost the claim race; reload the ticket
		}
		if seq > pos {
			continue // stale ticket read: another producer advanced it
		}
		// seq < pos: the slot still holds an unconsumed request from the
		// previous lap — the ring is full. Wait within budget, then fail.
		if s.closed.Load() {
			call.Release()
			return nil, ErrClosed
		}
		full++
		switch {
		case full < sendFullSpins:
			runtime.Gosched()
		case full < sendFullSpins+sendFullNaps:
			time.Sleep(sendFullNap)
		default:
			call.Release()
			s.backlogged.Add(1)
			return nil, ErrBacklogged
		}
	}
}

// Poll is worker w's non-blocking one-shot check of its next owned slot.
// It returns the message and its completion future when one is ready. ok
// is false when nothing is ready; retired is true when the current
// schedule gives worker w no further slots (after a shrink) — the worker
// may switch to the memory-resident layer, and will automatically resume
// here if a later grow re-activates it.
//
// The cursor holds only a base position: every index below it has been
// consumed or disowned by this worker. Ownership of the next slot is
// re-derived from the live schedule on every call, never cached — a cached
// claim on a future slot can go stale when a later Reconfigure supersedes
// the phase it was derived under, which would leave two workers believing
// they own the same slot (and the loser camped forever on a slot whose
// seq has already advanced past it).
//
// Slot seq states within a lap, for slot index idx:
//
//	idx        free (producers may claim)
//	idx+1      published, unconsumed
//	idx+2      claimed by a consumer (transient; ring capacity ≥ 4 keeps
//	           this distinct from the next-lap free value idx+cap)
//	idx+cap    consumed — the next lap's free value
//
// Consumption claims the slot by CAS(idx+1 → idx+2), so even a worker
// acting on a superseded schedule snapshot can never double-consume; the
// rightful owner that loses such a race observes seq > idx+1 and skips
// past the slot instead of waiting on it forever.
func (s *Server) Poll(w int) (m Message, ok bool, retired bool) {
	for {
		base := s.cursors[w].v.Load()
		idx, okN := s.sched.Load().nextOwned(base, w)
		if !okN {
			return Message{}, false, true
		}
		sl := &s.slots[idx&s.capMask]
		seq := sl.seq.Load()
		switch {
		case seq == idx+1:
			if !sl.seq.CompareAndSwap(idx+1, idx+2) {
				continue // lost a claim race; re-derive and retry
			}
			m = sl.msg
			sl.msg = Message{} // drop references for GC
			sl.seq.Store(idx + s.capMask + 1)
			s.cursors[w].v.Store(idx + 1)
			return m, true, false
		case seq > idx+1:
			// Already claimed or consumed this lap (by a worker that derived
			// ownership under a schedule since superseded): nothing left to
			// do here, release the index and look further.
			s.cursors[w].v.Store(idx + 1)
		default:
			// seq <= idx: not yet published (possibly still holding the
			// previous lap's state). Wait without advancing the base.
			return Message{}, false, false
		}
	}
}

// Call returns the future attached to a polled message.
func (m *Message) Call() *Call { return m.call }

// Reconfigure schedules a change of the active worker count to newN and
// returns the switch slot index S: slots below S keep the old mapping,
// slots at or above S use the new one. Workers discover the change as
// their cursors cross S; grown workers (w >= old n) start receiving work
// automatically once S is reached.
func (s *Server) Reconfigure(newN int) uint64 {
	if newN < 1 || newN > s.maxWorkers {
		panic("rpc: worker count out of range")
	}
	for {
		if s.closed.Load() {
			// The terminal phase is final; a reconfiguration racing with
			// Close must not resurrect workers. (If our CAS below were to
			// land first instead, Close drops the new phase: its start is at
			// or beyond the frontier.)
			return 0
		}
		old := s.sched.Load()
		// S must be beyond every slot any worker could already have
		// consumed; published slots are < ticket, and cursors never run
		// ahead of published slots, so ticket + capacity is safe even
		// against in-flight producers.
		sw := s.ticket.Load() + uint64(len(s.slots))
		phases := make([]phase, 0, len(old.phases)+1)
		phases = append(phases, old.phases...)
		// A trailing phase with start >= sw governs only slots that cannot
		// have been published or consumed yet (sw never decreases), so the
		// new phase supersedes it entirely. Dropping it keeps a burst of
		// reconfigurations with no traffic in between — the auto-tuner's
		// probe pattern — from accumulating zero-width phases.
		for len(phases) > 0 && phases[len(phases)-1].start >= sw {
			phases = phases[:len(phases)-1]
		}
		phases = append(phases, phase{start: sw, n: newN})
		// Prune history: phases entirely below every worker's next owned
		// slot can never be consulted again (cursors only move forward), so
		// keep only the newest phase at or below that frontier. Without
		// this a long-lived server being auto-tuned would accumulate phases
		// without bound and Poll's ownership walk would slow down.
		frontier := s.frontier(old)
		if frontier > sw {
			frontier = sw
		}
		keepFrom := 0
		for i := 1; i < len(phases); i++ {
			if phases[i].start <= frontier {
				keepFrom = i
			}
		}
		phases = phases[keepFrom:]
		if s.sched.CompareAndSwap(old, &schedule{phases: phases}) {
			// Parked workers re-derive their position from the new
			// schedule on their next Poll: wake them all, the change may
			// retire or activate any of them.
			s.reconfigs.Add(1)
			s.RingAll()
			return sw
		}
	}
}

// frontier returns the smallest slot index any worker may still consume
// under the given schedule: the minimum of the workers' derived next owned
// positions. Workers the schedule retires are excluded — their frozen bases
// say nothing about pending work, and any future phase that re-activates
// them starts beyond every slot the pruned history governed. Cursors only
// move forward, so a concurrent poll can only make the result conservative.
func (s *Server) frontier(sched *schedule) uint64 {
	min := ^uint64(0)
	for w := range s.cursors {
		next, ok := sched.nextOwned(s.cursors[w].v.Load(), w)
		if !ok {
			continue
		}
		if next < min {
			min = next
		}
	}
	return min
}

// PhaseCount reports the live schedule length (for tests and diagnostics).
func (s *Server) PhaseCount() int { return len(s.sched.Load().phases) }

// Reconfigurations returns how many schedule changes have been applied.
func (s *Server) Reconfigurations() uint64 { return s.reconfigs.Load() }

// Depth estimates the receive ring's occupancy: published requests not
// yet consumed by the slowest worker that will still consume. Each worker
// counts at its derived next owned position under the current schedule;
// workers the schedule retired are excluded — their frozen bases say
// nothing about pending work. It is a scrape-time diagnostic — cursors
// move while it reads, so the value is approximate — clamped to
// [0, capacity].
func (s *Server) Depth() int {
	ticket := s.ticket.Load()
	f := s.frontier(s.sched.Load())
	if f == ^uint64(0) || ticket <= f {
		return 0
	}
	d := ticket - f
	if d > uint64(len(s.slots)) {
		d = uint64(len(s.slots))
	}
	return int(d)
}

// Close initiates the shutdown drain; it is idempotent and safe against
// concurrent Sends and Reconfigures. It (1) fails all subsequent Sends
// with ErrClosed, (2) waits for in-flight Sends to publish or abandon,
// freezing the ticket frontier F, and (3) installs a terminal schedule
// phase {start: F, n: 0}: workers keep consuming every published slot
// below F under the pre-close schedule and then retire, so the drain
// completes every accepted request. Pending phases at or beyond F are
// dropped — they would only ever govern slots that can no longer be
// published.
//
// Close returns as soon as the terminal phase is installed; consumption of
// the remaining slots is the workers' job. Callers that stop their workers
// must run DrainStranded afterwards to fail anything left.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		for s.inflight.Load() != 0 {
			runtime.Gosched() // producer quiesce: bounded by Send's budget
		}
		term := s.ticket.Load()
		for {
			old := s.sched.Load()
			phases := make([]phase, 0, len(old.phases)+1)
			for _, p := range old.phases {
				if p.start < term {
					phases = append(phases, p)
				}
			}
			phases = append(phases, phase{start: term, n: 0})
			if s.sched.CompareAndSwap(old, &schedule{phases: phases}) {
				break
			}
		}
		s.RingAll() // parked workers must see the terminal phase and retire
	})
}

// Closed reports whether Close has been called.
func (s *Server) Closed() bool { return s.closed.Load() }

// Backlogged returns how many Sends failed with ErrBacklogged.
func (s *Server) Backlogged() uint64 { return s.backlogged.Load() }

// DrainStranded sweeps the ring for published-but-unconsumed slots and
// fails their calls with ErrClosed, returning how many it resolved. Under
// the graceful drain (Close, then let workers retire) it finds nothing:
// every published slot has an owner that consumes it. It is the safety net
// for callers that stop workers out-of-band, and must only be called after
// Close has returned and every worker has exited — it touches slots
// without claiming them.
func (s *Server) DrainStranded() int {
	n := 0
	for j := range s.slots {
		sl := &s.slots[j]
		seq := sl.seq.Load()
		if (seq-uint64(j))&s.capMask != 1 {
			continue // free or already consumed, not published
		}
		if c := sl.msg.call; c != nil {
			c.Fail(ErrClosed)
		}
		sl.msg = Message{}
		sl.seq.Store(seq + s.capMask) // same advance a consuming Poll applies
		n++
	}
	return n
}
