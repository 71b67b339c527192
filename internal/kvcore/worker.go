package kvcore

import (
	"runtime"
	"time"

	"mutps/internal/bell"
	"mutps/internal/obs"
	"mutps/internal/ring"
	"mutps/internal/rpc"
	"mutps/internal/seqitem"
	"mutps/internal/workload"
)

// parker drives a worker loop's idle path (DESIGN.md "Hand-offs", H1). The
// first empty pass arms the worker's bell; the next pass of the loop is the
// re-check of everything the loop waits for, and only if it is empty too
// does the worker sleep. A pass that finds work calls busy, which cancels a
// pending arm — so a loop with work never sleeps, never yields and pays
// nothing beyond the pass it was making anyway. There is no spin phase in
// between: parking after 0, 1, 4, 16 or 64 extra yielding polls measured
// the same end to end (EXPERIMENTS.md, PR 13), so none stay and nothing is
// left to tune.
type parker struct {
	bell  *bell.Bell
	parks *obs.Counter // sleeps, counted on shard w
	w     int
	armed bool
}

func (p *parker) busy() {
	if p.armed {
		p.bell.Disarm()
		p.armed = false
	}
}

// idle ends an empty pass.
func (p *parker) idle() {
	if !p.armed {
		p.bell.Arm()
		p.armed = true
		return
	}
	p.parks.Inc(p.w)
	p.bell.Sleep()
	p.armed = false
}

// slab holds in-flight request contexts for one CR worker — the in-process
// analog of the network receive-buffer slots the paper's 16-byte CR-MR
// requests point into with their Buf field. Slots are allocated by the CR
// worker when forwarding and recycled when the owning batch's ring reports
// completion (the piggybacked tail advance).
type slab struct {
	msgs []rpc.Message
	free []uint32
}

func newSlab(size int) *slab {
	s := &slab{msgs: make([]rpc.Message, size), free: make([]uint32, size)}
	for i := range s.free {
		s.free[i] = uint32(size - 1 - i)
	}
	return s
}

func (s *slab) get() (uint32, bool) {
	if len(s.free) == 0 {
		return 0, false
	}
	slot := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	return slot, true
}

func (s *slab) put(slot uint32) {
	s.msgs[slot] = rpc.Message{}
	s.free = append(s.free, slot)
}

// worker is the body of every store goroutine. A worker has a fixed
// identity usable in either layer: RPC slot owner i at the CR layer, CR-MR
// column i at the MR layer.
//
// Role transitions follow §3.5, and crucially the *RPC schedule* — not the
// nCR snapshot — decides when the CR role ends: the worker always enters
// the CR loop, which retires immediately if the schedule assigns it no
// slots, and otherwise keeps consuming until every slot the schedule ever
// assigned it (including those below a pending switch index) is drained.
// Dispatching on nCR alone would race with SetSplit: a worker could jump
// to the MR role while the old schedule still routes requests to it,
// stranding them forever.
func (s *Store) worker(id int) {
	defer s.wg.Done()
	for !s.stop.Load() {
		s.runCR(id)
		if s.drainExit(id) || s.stop.Load() {
			return
		}
		s.met.roleSwap.Inc(id) // CR stint over, moving to the MR layer
		s.runMR(id)
		if s.drainExit(id) {
			return
		}
		if !s.stop.Load() {
			s.met.roleSwap.Inc(id) // reassigned back to the CR layer
		}
	}
}

// drainExit reports whether worker id may exit under the shutdown drain:
// every worker has retired from the terminal RPC schedule with its final
// batch pushed (crDone), and this worker's own CR-MR column — which only it
// may consume — is empty. Together these mean no call this worker could
// ever complete is still pending.
func (s *Store) drainExit(id int) bool {
	return s.rpc.Closed() &&
		s.crDone.Load() >= int32(s.cfg.Workers) &&
		s.crmr.ColumnEmpty(id)
}

// crState tracks per-destination in-flight batches so slab slots can be
// recycled in FIFO order as the MR side commits them. The FIFO is a
// slice + head index rather than a re-sliced slice so that, once drained,
// the backing array is reused instead of reallocated — steady-state
// forwarding never grows it.
type crState struct {
	batches [][]uint32 // FIFO of slot lists per MR column; live from head on
	head    int
	done    uint64 // batches known completed per column
}

func (c *crState) push(b []uint32) { c.batches = append(c.batches, b) }

func (c *crState) pop() []uint32 {
	b := c.batches[c.head]
	c.batches[c.head] = nil
	c.head++
	if c.head == len(c.batches) {
		c.batches = c.batches[:0]
		c.head = 0
	}
	return b
}

func (c *crState) pending() int { return len(c.batches) - c.head }

// crPersist is a worker's CR-side bookkeeping. It lives in the Store (not
// on the runCR stack) because batches can still be in flight when the
// worker switches to the MR role — possibly consumed by the worker itself
// once it gets there — and their slab slots must be recycled on the next
// CR stint rather than leaked or (worse) recycled prematurely.
type crPersist struct {
	prod     *ring.Producer
	cols     []crState
	curBatch []uint32
	inflight int        // batches pushed but not yet recycled, across all columns
	spare    [][]uint32 // retired batch slot-lists, reused for curBatch

	// terminalDone is set (once, by the owning worker) when the worker has
	// consumed every RPC slot the terminal shutdown schedule assigns it and
	// pushed its final batch; the store-wide crDone counter mirrors it. It
	// is never reset: the terminal phase is final.
	terminalDone bool
}

// newBatch returns an empty slot list, recycling a retired one when
// possible so steady-state forwarding allocates nothing.
func (p *crPersist) newBatch() []uint32 {
	if n := len(p.spare); n > 0 {
		b := p.spare[n-1]
		p.spare[n-1] = nil
		p.spare = p.spare[:n-1]
		return b
	}
	return nil
}

func (p *crPersist) retireBatch(b []uint32) {
	p.spare = append(p.spare, b[:0])
}

// runCR is the cache-resident layer FSM (§3.2.3). It returns when the
// worker is retired from the RPC schedule (role moves to MR) or the store
// stops.
func (s *Store) runCR(id int) {
	st := s.crp[id]
	sl := s.slabs[id]
	served := 0
	pk := parker{bell: s.rpc.Bell(id), parks: s.met.parksCR, w: id}
	defer pk.busy() // never leave the bell armed behind a return

	recycle := func() bool {
		if st.inflight == 0 {
			// Pure hit-path traffic: skip the O(nMR) column sweep entirely.
			return false
		}
		progress := false
		for m := range st.cols {
			r := s.crmr.Ring(id, m)
			d := r.Done()
			for st.cols[m].done < d && st.cols[m].pending() > 0 {
				b := st.cols[m].pop()
				for _, slot := range b {
					sl.put(slot)
				}
				st.retireBatch(b)
				st.inflight--
				st.cols[m].done++
				progress = true
			}
		}
		return progress
	}

	flush := func() {
		nCR := int(s.nCR.Load())
		nMR := s.cfg.Workers - nCR
		n := st.prod.PendingLocal()
		if mr, fl := st.prod.Flush(nCR, nMR); fl {
			s.met.batchSize.Record(id, uint64(n))
			st.cols[mr].push(st.curBatch)
			st.inflight++
			st.curBatch = st.newBatch()
		}
	}

	for !s.stop.Load() {
		recycle()
		m, ok, retired := s.rpc.Poll(id)
		if retired {
			// Push any partial batch before switching roles (it may land
			// on our own MR column — we will consume it ourselves there).
			// In-flight batches keep their slab slots until our next CR
			// stint recycles them; the MR side completes the calls.
			flush()
			recycle()
			if s.rpc.Closed() && !st.terminalDone {
				// Retired under the terminal shutdown schedule: every RPC
				// slot this worker will ever own has been consumed and its
				// final batch pushed. Count it towards the drain barrier,
				// which the workers already retired are parked behind.
				st.terminalDone = true
				s.crDone.Add(1)
				s.rpc.RingAll()
			}
			return
		}
		if !ok {
			// Idle: don't strand a partial batch behind the batching
			// threshold; push it now so MR can make progress.
			flush()
			// Consumer identity is per *worker*, not per role: a producer
			// with a momentarily stale view of the split can push a batch
			// to this worker's MR column just after it switched to the CR
			// role. Nobody else may consume an SPSC ring, so drain our own
			// column here; this only fires on reassignment stragglers.
			if s.drainOwnColumn(id) || s.reclaimTick(id) {
				pk.busy()
				continue
			}
			// Nothing to do. Everything this pass checked has a ring behind
			// it: Send for an owned slot, Flush for our column, Reconfigure
			// and Close for the schedule, RefreshHotSet for the retire queue.
			pk.idle()
			continue
		}
		pk.busy()
		served++
		if served%256 == 0 {
			// Under saturation the idle branch may never run; still check
			// for reassignment stragglers on our own column periodically
			// (draining may execute puts, so retirements accrue at the CR
			// role too — let their reclaim keep pace).
			s.drainOwnColumn(id)
			s.reclaimTick(id)
		}
		s.tracker.Record(id, m.Key)
		if s.tryServeHot(id, &m) {
			continue
		}
		if m.Op == workload.OpGet || m.Op == workload.OpPut {
			s.met.crMiss.Inc(id) // consulted the hot set, wasn't there
		} else {
			s.met.crBypass.Inc(id) // deletes/scans never serve hot
		}
		// Miss path: forward over the CR-MR queue.
		slot, okSlot := sl.get()
		for !okSlot {
			// All contexts in flight; recycle completions until one frees.
			if !recycle() {
				// No commits to harvest: some in-flight batches may sit in
				// our own MR column, which only we may consume — drain it or
				// this loop can never make progress.
				s.drainOwnColumn(id)
				runtime.Gosched()
			}
			if s.stop.Load() {
				// Hard stop while holding a polled message: complete it and
				// the partial batch with ErrClosed rather than stranding
				// their callers (the graceful drain never reaches here — stop
				// is set only after workers exit — but tests and embedders
				// may flip stop directly).
				m.Call().Fail(rpc.ErrClosed)
				s.failPartial(st, sl)
				return
			}
			slot, okSlot = sl.get()
		}
		sl.msgs[slot] = m
		req := encodeRequest(&m, slot)
		st.curBatch = append(st.curBatch, slot)
		s.met.forwarded.Inc(id)
		nCR := int(s.nCR.Load())
		if mr, fl := st.prod.Add(req, nCR, s.cfg.Workers-nCR); fl {
			s.met.batchSize.Record(id, uint64(len(st.curBatch)))
			st.cols[mr].push(st.curBatch)
			st.inflight++
			st.curBatch = st.newBatch()
		}
	}
	// Hard-stop exit (stop observed at the loop head): the MR side may be
	// gone too, so fail the partial batch locally instead of pushing it.
	s.failPartial(st, sl)
}

// failPartial completes every request in the worker's not-yet-pushed
// partial batch with ErrClosed and recycles its slab slots and the
// producer's local queue. Only the hard-stop path needs it: the graceful
// drain flushes partial batches to the (still live) MR side instead.
func (s *Store) failPartial(st *crPersist, sl *slab) {
	for _, slot := range st.curBatch {
		if c := sl.msgs[slot].Call(); c != nil {
			c.Fail(rpc.ErrClosed)
		}
		sl.put(slot)
	}
	st.curBatch = st.curBatch[:0]
	st.prod.DropLocal()
}

// encodeRequest builds the compact 16-byte CR-MR representation (Fig. 6).
// Scan counts are validated against [0, MaxScanCount] at the facade
// (Store.Scan) before they reach this encoding; the clamp below is a
// backstop for raw SendAsync callers: a negative count must not wrap
// through uint16 into a 65 535-entry scan. (Put sizes are informational —
// processMR reads the value through the slab message, not through Size.)
func encodeRequest(m *rpc.Message, slot uint32) ring.Request {
	size := len(m.Value)
	if m.Op == workload.OpScan {
		size = m.ScanCount
	}
	size = min(max(size, 0), MaxScanCount)
	return ring.Request{
		Key:  m.Key,
		Type: uint8(m.Op),
		Size: uint16(size),
		Buf:  slot,
	}
}

// tryServeHot serves the request entirely at the CR layer when the key is
// in the hot-set view: the hit path of the FSM. Deletes and scans always
// take the miss path (they mutate or traverse the full index). The view
// lookup and the item read happen inside worker w's epoch section —
// that's what lets reclamation wait out readers of superseded views.
//
// Here and on the MR side the op is counted before its call completes: a
// parked waiter resumes the moment Complete runs, and a caller that has
// seen its request complete must find it in the counters.
func (s *Store) tryServeHot(w int, m *rpc.Message) bool {
	s.dom.Enter(w)
	defer s.dom.Exit(w)
	switch m.Op {
	case workload.OpGet:
		it, ok := s.cache.Lookup(m.Key)
		if !ok || it.Dead() {
			return false
		}
		e := it.Expire()
		if e != 0 && uint64(time.Now().UnixNano()) >= e {
			// Expired: forward so the MR layer unlinks it (lazy expiry).
			// TTL-free items never pay the clock read here.
			return false
		}
		call := m.Call()
		call.Value = it.Read(call.Dst[:0])
		call.Found = true
		call.Expiry = e
		s.countHit(w, m.Op)
		call.Complete()
		return true
	case workload.OpPut:
		it, ok := s.cache.Lookup(m.Key)
		if !ok || it.Dead() {
			return false
		}
		if e := it.Expire(); e != 0 && uint64(time.Now().UnixNano()) >= e {
			// Writing an expired item in place would resurrect it raceably;
			// the MR replacement path serializes with lazy expiry instead.
			return false
		}
		if !it.Write(m.Value) {
			// Size change: must be an item replacement at the MR layer.
			return false
		}
		it.SetExpire(m.Expire)
		s.countHit(w, m.Op)
		m.Call().Complete()
		return true
	default:
		return false
	}
}

// countHit records one request served entirely at the CR layer.
func (s *Store) countHit(w int, op workload.OpType) {
	s.met.crHit.Inc(w)
	s.met.ops[opIndex(op)].Inc(w)
}

// drainOwnColumn processes any batches sitting in worker id's MR column —
// the §3.5 residual-request guarantee, enforced from the CR role — and
// reports whether there were any.
func (s *Store) drainOwnColumn(id int) (drained bool) {
	for {
		cr, reqs, rg := s.mrcons[id].Poll(s.cfg.Workers)
		if cr == -1 {
			return drained
		}
		for i := range reqs {
			s.processMR(id, cr, &reqs[i])
		}
		rg.Commit()
		drained = true
	}
}

// mrScratch is a worker's persistent MR-side scratch state: the
// batched-indexing buffers live in the Store (like crPersist) so role
// switches reuse them instead of regrowing them on every runMR entry.
type mrScratch struct {
	keys  []uint64
	pos   []int
	items []*seqitem.Item
	found []bool

	// Scan state. The tree-scan callback closes over the scratch pointer
	// and is built once per worker: a per-call closure (and the boxing of
	// every variable it captures) would cost four allocations per scan.
	scanKeys []uint64
	scanBuf  []byte
	scanOffs []int
	scanFn   func(k uint64, it *seqitem.Item) bool
}

// scanVisit accumulates one live entry into the scratch buffers; see
// scanMR for the layout.
func (scr *mrScratch) scanVisit(k uint64, it *seqitem.Item) bool {
	if it.Dead() {
		return true
	}
	buf := scr.scanBuf
	n := len(buf)
	sz := it.Size()
	if cap(buf) < n+sz {
		nb := make([]byte, n, 2*(n+sz))
		copy(nb, buf)
		buf = nb
	}
	v := it.Read(buf[n : n : n+sz])
	if len(v) <= sz {
		buf = buf[:n+len(v)] // v aliases buf (Read had the capacity)
	} else {
		// A replacement between Size and Read grew the value, so Read
		// returned a fresh slice; fold it back into the buffer.
		buf = append(buf[:n], v...)
	}
	scr.scanBuf = buf
	scr.scanKeys = append(scr.scanKeys, k)
	scr.scanOffs = append(scr.scanOffs, len(buf))
	return true
}

// runMR is the memory-resident layer loop: it drains batches from the
// CR-MR queue and processes them against the full index. It returns when
// the split moves this worker to the CR layer (after draining its column)
// or the store stops.
func (s *Store) runMR(id int) {
	cons := s.mrcons[id]
	batched, _ := s.idx.(BatchIndex)
	scr := s.mrscr[id]
	pk := parker{bell: s.rpc.Bell(id), parks: s.met.parksMR, w: id}
	defer pk.busy() // never leave the bell armed behind a return
	for !s.stop.Load() {
		// Scan all rows: residual batches may exist from workers that have
		// since changed role.
		cr, reqs, rg := cons.Poll(s.cfg.Workers)
		if cr == -1 {
			reclaimed := s.reclaimTick(id)
			if s.rpc.Closed() {
				st := s.crp[id]
				if !st.terminalDone {
					// Shutdown drain: bounce through runCR once to consume
					// the RPC slots the terminal schedule still assigns us
					// and mark our retirement.
					return
				}
				if s.drainExit(id) {
					return
				}
				// Retired but other workers are still pushing their final
				// batches; keep consuming until the drain barrier clears
				// (each push rings our column, each retirement rings all).
			} else if id < int(s.nCR.Load()) && s.crmr.ColumnEmpty(id) {
				// Reassigned to the CR layer and fully drained: switch.
				return
			}
			if reclaimed {
				pk.busy()
				continue
			}
			// Nothing to do; see runCR for who rings what. SetSplit reaches
			// us through Reconfigure.
			pk.idle()
			continue
		}
		pk.busy()
		if batched != nil && len(reqs) > 1 {
			// Batched indexing (§3.3): serve the batch's gets with one
			// shared index traversal; other ops take the per-request path.
			scr.keys, scr.pos = scr.keys[:0], scr.pos[:0]
			for i := range reqs {
				if workload.OpType(reqs[i].Type) == workload.OpGet {
					scr.keys = append(scr.keys, reqs[i].Key)
					scr.pos = append(scr.pos, i)
				}
			}
			if len(scr.keys) > 1 {
				// One epoch section covers the shared traversal and every
				// item read; it closes before the non-get requests run
				// (processMR opens its own — sections must not nest).
				s.met.ops[workload.OpGet].Add(id, uint64(len(scr.pos)))
				s.dom.Enter(id)
				scr.items, scr.found = batched.GetBatch(scr.keys, scr.items, scr.found)
				for j, i := range scr.pos {
					call := s.slabs[cr].msgs[reqs[i].Buf].Call()
					s.serveGet(id, scr.keys[j], scr.items[j], scr.found[j], call)
					call.Complete()
				}
				s.dom.Exit(id)
				for i := range reqs {
					if workload.OpType(reqs[i].Type) != workload.OpGet {
						s.processMR(id, cr, &reqs[i])
					}
				}
				rg.Commit()
				continue
			}
		}
		for i := range reqs {
			s.processMR(id, cr, &reqs[i])
		}
		rg.Commit() // piggybacked completion: slab slots recyclable
	}
}

// processMR executes one forwarded request against the full index and
// completes its call; w is the executing worker (the completion-counter
// shard, the item pool, the epoch reader slot). The slab entry is
// read-only here; the owning CR worker recycles it after the ring commit.
func (s *Store) processMR(w, cr int, req *ring.Request) {
	m := &s.slabs[cr].msgs[req.Buf]
	call := m.Call()
	s.dom.Enter(w)
	switch workload.OpType(req.Type) {
	case workload.OpGet:
		it, ok := s.idx.Get(req.Key)
		s.serveGet(w, req.Key, it, ok, call)
	case workload.OpPut:
		s.putMR(w, req.Key, m.Value, m.Expire)
	case workload.OpDelete:
		call.Found = s.deleteMR(w, req.Key)
	case workload.OpScan:
		s.scanMR(w, req, call)
	}
	s.dom.Exit(w)
	s.met.ops[opIndex(workload.OpType(req.Type))].Inc(w)
	call.Complete()
	s.maybeReclaim(w)
}

// putMR first tries the in-place same-size write (no locks beyond the
// item's own bits), then falls back to item replacement under a key-stripe
// lock so concurrent replacements serialize; w is the executing worker,
// whose pool the new item comes from and whose queue the old one retires
// to. exp is the absolute expiry deadline to stamp (0 = never): the
// in-place path writes the value first, then moves the deadline — a reader
// in the gap sees the new value under the old deadline, which lazy expiry
// re-verifies under the key lock before acting on. Expired items are never
// written in place (that would resurrect them raceably); they take the
// replacement path, which serializes with lazy expiry on the lock.
func (s *Store) putMR(w int, key uint64, val []byte, exp uint64) {
	if it, ok := s.idx.Get(key); ok && !it.Dead() &&
		!it.Expired(time.Now().UnixNano()) && it.Write(val) {
		it.SetExpire(exp)
		return
	}
	mu := &s.keyLocks[key&s.lockMask]
	mu.Lock()
	defer mu.Unlock()
	if it, ok := s.idx.Get(key); ok {
		if !it.Dead() && !it.Expired(time.Now().UnixNano()) && it.Write(val) {
			it.SetExpire(exp)
			return
		}
		n := s.newItem(w, val)
		if exp != 0 {
			n.SetExpire(exp)
		}
		s.idx.Put(key, n)
		it.MoveTo(n) // stale holders (hot views) converge on the new record
		// Propagate view reachability: a view that holds it can reach n
		// through the chain. Reading ViewGen after MoveTo ensures either
		// this read sees a concurrent marker's generation, or that
		// marker's chain walk sees n and marks it directly (§11).
		n.MarkViewed(it.ViewGen())
		s.retire(w, it)
		return
	}
	// New-key insert. Retire any cold shadow first: this put supersedes
	// whatever generation the SSD holds, and RAM writes never flow back to
	// it, so leaving it would hand out a stale value after a crash. Ordered
	// before idx.Put so a crash in the gap yields a miss, never staleness.
	if s.cold != nil {
		s.cold.Delete(key)
	}
	n := s.newItem(w, val)
	if exp != 0 {
		n.SetExpire(exp)
	}
	s.idx.Put(key, n)
}

func (s *Store) deleteMR(w int, key uint64) bool {
	mu := &s.keyLocks[key&s.lockMask]
	mu.Lock()
	defer mu.Unlock()
	it, ok := s.idx.Get(key)
	if !ok {
		// The key may still live (only) in the cold tier; deleting there
		// reports whether it did.
		if s.cold != nil {
			return s.cold.Delete(key)
		}
		return false
	}
	expired := it.Expired(time.Now().UnixNano())
	s.idx.Delete(key)
	it.Kill()
	s.retire(w, it)
	if s.cold != nil {
		s.cold.Delete(key) // clear any stale shadow
	}
	return !expired // deleting an already-expired key reports not-found
}

// scanMR fills the call's scan result slices. Every value is read into
// call.ScanBuf (one shared byte buffer whose capacity, like ScanKeys' and
// ScanVals', survives call recycling), so a warmed-up scan performs no
// per-entry allocation at all — the result values are slices into ScanBuf
// and are only valid until Release; the synchronous Scan facade copies
// them out before releasing. Values are sliced out of the buffer after
// the traversal (via the offs scratch) because growth during the scan
// can move the backing array.
func (s *Store) scanMR(w int, req *ring.Request, call *rpc.Call) {
	if s.scanIdx == nil {
		return
	}
	scr := s.mrscr[w]
	if scr.scanFn == nil {
		scr.scanFn = scr.scanVisit
	}
	scr.scanKeys = call.ScanKeys[:0]
	scr.scanBuf = call.ScanBuf[:0]
	scr.scanOffs = scr.scanOffs[:0]
	s.scanIdx.Scan(req.Key, int(req.Size), scr.scanFn)
	buf := scr.scanBuf
	vals := call.ScanVals[:0]
	start := 0
	for _, end := range scr.scanOffs {
		vals = append(vals, buf[start:end:end])
		start = end
	}
	call.ScanKeys = scr.scanKeys
	call.ScanVals = vals
	call.ScanBuf = buf
	scr.scanKeys = nil // the slices belong to the call until its Release
	scr.scanBuf = nil
}
