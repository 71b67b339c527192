package kvcore

import (
	"mutps/internal/seqitem"
)

// This file is the store half of the GC-quiet write path: epoch-based
// retirement of replaced and deleted items, so their arena slots and
// headers recycle without ever waiting on the hot path. The full
// ownership and ordering argument is DESIGN.md §11; the shape here:
//
// An item leaves the index (putMR replacement, deleteMR, Preload
// overwrite) and is retired by the unlinking worker into that worker's
// private queues, stamped with the then-current epoch e0. Reclamation
// runs amortized on the same worker, off the request path:
//
//   stage 0 (q0, FIFO): wait Frontier() > e0. That grace period covers
//     every reader section that could have obtained the item from the
//     index or a hot-set view, and — because the hot-set refresher runs
//     inside its own epoch reader slot — every in-flight refresh that
//     could still publish the item into a view. After it, the item's
//     viewGen is final: 0 means no view ever held it (or its chain), and
//     it recycles immediately; otherwise it must outlive the view that
//     holds it.
//   parked (qv, unordered): viewGen g is the *current* view
//     (Installs() == g). Wait for supersession; rescanned each pass.
//   stage 1 (q1, FIFO): a newer view is installed (Installs() > g). The
//     item was re-stamped e1 at that observation; wait Frontier() > e1 to
//     cover readers still inside sections that loaded the old view
//     pointer, then recycle.
//
// Queues are slice+head FIFOs (crState's pattern): drained backing arrays
// are reused, so steady-state retirement allocates nothing.

// retiredItem is one parked item and the epoch stamp its current stage
// waits on (unused while parked in qv).
type retiredItem struct {
	it *seqitem.Item
	e  uint64
}

// retireFIFO is an allocation-recycling FIFO of retired items.
type retireFIFO struct {
	q    []retiredItem
	head int
}

func (f *retireFIFO) push(r retiredItem) { f.q = append(f.q, r) }

func (f *retireFIFO) peek() (retiredItem, bool) {
	if f.head == len(f.q) {
		return retiredItem{}, false
	}
	return f.q[f.head], true
}

func (f *retireFIFO) pop() retiredItem {
	r := f.q[f.head]
	f.q[f.head].it = nil
	f.head++
	if f.head == len(f.q) {
		f.q = f.q[:0]
		f.head = 0
	}
	return r
}

func (f *retireFIFO) len() int { return len(f.q) - f.head }

// retireQ is one worker's retirement state. Single-owner: only the worker
// goroutine (in either role) touches it; the preload queue is owned by
// the preload mutex instead.
type retireQ struct {
	q0  retireFIFO    // awaiting the stage-0 grace period
	qv  []retiredItem // in the current view, awaiting supersession
	q1  retireFIFO    // view superseded, awaiting the stage-1 grace period
	ops int           // put/delete ops since the last reclaim pass
}

func (q *retireQ) pending() int { return q.q0.len() + len(q.qv) + q.q1.len() }

// reclaimEvery and reclaimBudget bound a reclaim pass: at most one pass
// per reclaimEvery retiring ops (plus every idle tick), recycling at most
// reclaimBudget items, so reclamation never adds a latency spike to the
// request path it shares a goroutine with.
const (
	reclaimEvery  = 64
	reclaimBudget = 256
)

// retire hands the just-unlinked item to worker w's queue. Caller must
// have already made the item unreachable to new index readers (index
// pointer swapped or deleted) — the epoch stamp must postdate the unlink.
// Safe inside an epoch section; the reclaim pass itself runs later, from
// maybeReclaim or reclaimTick, outside any section.
func (s *Store) retire(w int, it *seqitem.Item) {
	rq := s.retq[w]
	rq.q0.push(retiredItem{it: it, e: s.dom.Epoch()})
	s.retiredPend.Add(1)
	s.retiredBytes.Add(int64(it.SlotBytes()))
	s.met.retired.Inc(w)
	rq.ops++
}

// maybeReclaim runs a pass once per reclaimEvery retirements. Called on
// the request path right after the epoch section closes, so the pass
// observes a frontier its own reader slot no longer pins.
func (s *Store) maybeReclaim(w int) {
	if rq := s.retq[w]; rq.ops >= reclaimEvery {
		rq.ops = 0
		s.reclaim(w)
	}
}

// reclaim runs one budget-bounded reclamation pass over worker w's
// queues. It must be called outside any epoch read-section (a worker's
// own active section would not deadlock — the frontier ignores epochs
// newer than a stamp — but items retired within the section could never
// clear it). It reports whether any item moved a stage forward.
func (s *Store) reclaim(w int) bool {
	rq := s.retq[w]
	if rq.pending() == 0 {
		return false
	}
	s.dom.Advance()
	f := s.dom.Frontier()
	installs := s.cache.Installs()
	budget := reclaimBudget

	// Stage 0: q0 is FIFO by e0, so stop at the first unexpired stamp.
	for budget > 0 {
		r, ok := rq.q0.peek()
		if !ok || f <= r.e {
			break
		}
		rq.q0.pop()
		budget--
		vg := r.it.ViewGen() // final once the stage-0 grace period passed
		switch {
		case vg == 0:
			s.recycle(w, r.it)
		case installs > vg:
			rq.q1.push(retiredItem{it: r.it, e: s.dom.Epoch()})
		default:
			rq.qv = append(rq.qv, retiredItem{it: r.it})
		}
	}

	// Parked: move items whose view has been superseded to stage 1.
	for i := 0; i < len(rq.qv) && budget > 0; {
		if installs > rq.qv[i].it.ViewGen() {
			rq.q1.push(retiredItem{it: rq.qv[i].it, e: s.dom.Epoch()})
			last := len(rq.qv) - 1
			rq.qv[i] = rq.qv[last]
			rq.qv[last].it = nil
			rq.qv = rq.qv[:last]
			budget--
			continue
		}
		i++
	}

	// Stage 1: FIFO by e1.
	for budget > 0 {
		r, ok := rq.q1.peek()
		if !ok || f <= r.e {
			break
		}
		rq.q1.pop()
		s.recycle(w, r.it)
		budget--
	}
	return budget < reclaimBudget
}

// recycle returns a fully quiesced item to worker w's pool (and its value
// slot to the arena).
func (s *Store) recycle(w int, it *seqitem.Item) {
	s.retiredBytes.Add(-int64(it.SlotBytes())) // before Recycle drops the words
	s.pools[w].Recycle(it)
	s.retiredPend.Add(-1)
	s.met.recycled.Inc(w)
}

// reclaimTick is the idle/periodic hook: cheap when there is nothing to
// do, a bounded pass otherwise. It reports whether the pass made progress:
// an idle worker keeps passing while it does and parks when it does not —
// what is left then waits on a reader section elsewhere or on the next
// hot-set install, and the worker's next wake-up (RefreshHotSet rings every
// worker after an install) retries.
func (s *Store) reclaimTick(w int) bool {
	s.retq[w].ops = 0
	return s.reclaim(w)
}

// drainRetired force-recycles every queued retirement. Only Close may
// call it, after the workers and the refresher have exited: with no
// readers left, every grace period is trivially satisfied, so a closed
// store leaks no arena slots.
func (s *Store) drainRetired() {
	for w, rq := range s.retq {
		for rq.q0.len() > 0 {
			s.recycle(w, rq.q0.pop().it)
		}
		for _, r := range rq.qv {
			s.recycle(w, r.it)
		}
		rq.qv = rq.qv[:0]
		for rq.q1.len() > 0 {
			s.recycle(w, rq.q1.pop().it)
		}
	}
	s.preMu.Lock()
	for i, r := range s.preRet {
		s.retiredBytes.Add(-int64(r.it.SlotBytes()))
		s.prePool.Recycle(r.it)
		s.retiredPend.Add(-1)
		s.met.recycled.Inc(0)
		s.preRet[i].it = nil
	}
	s.preRet = s.preRet[:0]
	s.preMu.Unlock()
}

// newItem allocates an item for worker w from its pool.
func (s *Store) newItem(w int, val []byte) *seqitem.Item {
	return seqitem.NewIn(s.pools[w], val)
}

// RetiredPending reports items retired and not yet recycled (also
// exported as a gauge; the chaos tests assert it reaches zero after
// Close).
func (s *Store) RetiredPending() int64 { return s.retiredPend.Load() }
