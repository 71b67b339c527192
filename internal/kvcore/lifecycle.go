package kvcore

import (
	"time"

	"mutps/internal/coldtier"
	"mutps/internal/rpc"
	"mutps/internal/seqitem"
)

// This file is the store half of the bounded-memory lifecycle (DESIGN.md
// §13): the lifecycle.Store surface the evictor drives (BudgetedBytes,
// WalkItems, EvictKey, EvictorMaintain), lazy TTL expiry on the read
// path, and the cold-tier miss path with promotion. The state machine:
//
//   live ──expire──▶ expired ──lazy read / evictor──▶ reclaimed (cold entry deleted)
//    │
//    └──evict──▶ spilled (value in the SSD log) ──get──▶ promoted (live again)
//                                              └─delete─▶ gone
//
// Invariant: RAM shadows cold. A key present in the index is always
// served from RAM, so the cold tier may hold a stale older value for it;
// every path that unlinks a key from RAM therefore either re-spills the
// final value (eviction) or deletes the cold entry (delete, lazy expiry),
// keeping stale shadows unreachable.

// evictorQ is the evictor goroutine's pool/retire-queue index; its epoch
// reader slot is evictorSlot. Workers use their own ids for both; the
// refresher owns slot cfg.Workers.
func (s *Store) evictorQ() int    { return s.cfg.Workers }
func (s *Store) evictorSlot() int { return s.cfg.Workers + 1 }

// spillFixup closes the last write-vs-spill race for ≤8-byte items. Their
// in-place puts are single atomic stores with no lock or dead-check, so a
// writer that obtained the item before the eviction unlinked it can land a
// store after the evictor read the value for spilling. The fixup keeps the
// evicted item alive past the stage-0 grace period (retiring it only
// afterwards), then re-reads the word: if it changed, the late write is
// re-spilled conditionally (PutIf on the original location, so a newer
// generation that promote→put→evict cycled through the key is never
// clobbered). >8-byte items need none of this: their writes hold the
// seqlock, which the spill read waits out, and post-Kill lockers abort.
type spillFixup struct {
	it   *seqitem.Item
	key  uint64
	loc  coldtier.Loc
	word uint64 // the word the spill wrote
	exp  uint64
	size int
	e    uint64 // epoch stamp; process once Frontier() > e
}

// BudgetedBytes implements lifecycle.Store: live arena bytes minus bytes
// already retired and merely waiting out grace periods.
func (s *Store) BudgetedBytes() uint64 {
	live := s.arena.LiveBytes()
	ret := s.retiredBytes.Load()
	if ret < 0 {
		ret = 0 // racy collection-time reads can transiently invert
	}
	if uint64(ret) >= live {
		return 0
	}
	return live - uint64(ret)
}

// WalkItems implements lifecycle.Store: it visits live arena-backed items
// with their slot size, hot-set sketch estimate, and expiry state. The
// walk is a best-effort snapshot (concurrent writers may be missed or
// doubled — the evictor re-resolves every victim under its key lock) and
// runs inside the evictor's epoch reader slot so no visited item's slot
// can recycle mid-read.
func (s *Store) WalkItems(f func(key uint64, bytes int, hot uint32, expired bool) bool) {
	now := time.Now().UnixNano()
	visit := func(key uint64, it *seqitem.Item) bool {
		if it.Dead() {
			return true
		}
		b := it.Latest().SlotBytes()
		if b == 0 {
			return true // heap-backed fallback value: not in the arena budget
		}
		return f(key, b, s.cms.Estimate(key), it.Expired(now))
	}
	s.dom.Enter(s.evictorSlot())
	defer s.dom.Exit(s.evictorSlot())
	if r, ok := s.idx.(interface {
		Range(func(uint64, *seqitem.Item) bool)
	}); ok {
		r.Range(visit)
		return
	}
	if s.scanIdx != nil {
		s.scanIdx.Scan(0, s.idx.Len(), visit)
	}
}

// EvictKey implements lifecycle.Store. Under the key-stripe lock — which
// excludes replacement puts, deletes, lazy expiry, and promotion for this
// key — it kills the item (diverting racing writers to the replacement
// path, where they will block on the same lock and reinsert), reads the
// final value through the seqlock, spills it to the cold tier, unlinks
// the key, and retires the item through the epoch path. Expired victims
// are dropped rather than spilled, and their stale cold shadow is deleted.
func (s *Store) EvictKey(key uint64) (uint64, bool) {
	mu := &s.keyLocks[key&s.lockMask]
	mu.Lock()
	defer mu.Unlock()
	it, ok := s.idx.Get(key)
	if !ok || it.Dead() {
		return 0, false
	}
	it = it.Latest()
	freed := uint64(it.SlotBytes())
	if freed == 0 {
		return 0, false // heap-backed: evicting it frees no arena bytes
	}
	exp := it.Expire()
	expired := exp != 0 && uint64(time.Now().UnixNano()) >= exp
	it.Kill()
	// Veto hot-set admission for the next refresh cycles: the tracker's
	// sketch may still rank this key hot, and re-admitting the victim
	// would pin its chain and defeat the eviction.
	s.recent.Note(key)

	spilled := false
	var loc coldtier.Loc
	var word uint64
	if s.cold != nil && !expired {
		if it.Size() <= 8 {
			// Single-word value: capture the word once and spill exactly it,
			// so the fixup has the precise byte pattern to compare against.
			word = it.ReadUint64()
			s.evScratch = appendWord(s.evScratch[:0], word, it.Size())
		} else {
			// Read waits out a writer holding the seqlock; later lockers see
			// dead and abort, so this is the value's final state.
			s.evScratch = it.Read(s.evScratch[:0])
		}
		l, err := s.cold.Put(key, exp, s.evScratch)
		if err == nil {
			spilled = true
			loc = l
			s.met.spills.Inc(0)
			s.met.spilledBytes.Add(0, uint64(len(s.evScratch)))
		} else {
			// Disk failure: the value is dropped (this is a cache tier).
			// Delete any stale cold shadow so the key reads as missing
			// rather than resurrecting an older generation.
			s.cold.Delete(key)
			s.met.spillErrors.Inc(0)
		}
	} else if s.cold != nil {
		s.cold.Delete(key) // expired: clear the shadow too
	}

	s.idx.Delete(key)
	if spilled && it.Size() <= 8 {
		// Defer retirement to the fixup pass: the item's slot must stay
		// intact until the grace period lets us re-check the word.
		s.fixups = append(s.fixups, spillFixup{
			it: it, key: key, loc: loc, word: word,
			exp: exp, size: it.Size(), e: s.dom.Epoch(),
		})
	} else {
		s.retire(s.evictorQ(), it)
	}
	return freed, true
}

// appendWord serializes the low size bytes of a value word (the inverse
// of seqitem's ≤8-byte packing).
func appendWord(dst []byte, word uint64, size int) []byte {
	for b := 0; b < size; b++ {
		dst = append(dst, byte(word>>(8*b)))
	}
	return dst
}

// EvictorMaintain implements lifecycle.Store: called only from the
// evictor goroutine, it processes due spill fixups and runs a bounded
// reclamation pass over the evictor's retirement queue.
func (s *Store) EvictorMaintain() {
	s.runFixups(false)
	s.reclaimTick(s.evictorQ())
}

// runFixups processes spill fixups whose grace period has passed: re-read
// the evicted item's word and, when a late write changed it, re-spill the
// final value conditionally on the original cold location. force (Close
// only, with all workers joined) processes everything unconditionally.
// The item is retired here, not at eviction — see spillFixup.
func (s *Store) runFixups(force bool) {
	if len(s.fixups) == 0 {
		return
	}
	var f uint64
	if !force {
		s.dom.Advance()
		f = s.dom.Frontier()
	}
	old := s.fixups
	kept := old[:0]
	for _, fx := range old {
		if !force && f <= fx.e {
			kept = append(kept, fx)
			continue
		}
		if cur := fx.it.ReadUint64(); cur != fx.word {
			s.evScratch = appendWord(s.evScratch[:0], cur, fx.size)
			if ok, err := s.cold.PutIf(fx.key, fx.exp, s.evScratch, fx.loc); err == nil && ok {
				s.met.spillFixups.Inc(0)
			}
		}
		s.retire(s.evictorQ(), fx.it)
	}
	for i := len(kept); i < len(old); i++ {
		old[i] = spillFixup{}
	}
	s.fixups = kept
}

// serveGet completes a get against the full index: live item → value and
// expiry deadline; expired item → lazy unlink, not-found; RAM miss → cold
// tier, promoting a hit back into RAM. Runs inside worker w's epoch
// section; the caller Completes the call.
func (s *Store) serveGet(w int, key uint64, it *seqitem.Item, ok bool, call *rpc.Call) {
	if ok && it.Dead() {
		// Dead but still indexed: an eviction is mid-flight between Kill and
		// unlink. Its keylock spans the whole protocol (including the cold
		// write), so re-resolving under the lock observes the final state —
		// without this, the get could miss RAM and cold both.
		mu := &s.keyLocks[key&s.lockMask]
		mu.Lock()
		it, ok = s.idx.Get(key)
		mu.Unlock()
	}
	if ok && !it.Dead() {
		if e := it.Expire(); e != 0 && uint64(time.Now().UnixNano()) >= e {
			s.lazyExpire(w, key, it)
			call.Expired = true
			return
		} else {
			call.Value = it.Read(call.Dst[:0])
			call.Found = true
			call.Expiry = e
			return
		}
	}
	s.coldGet(w, key, call)
}

// lazyExpire unlinks an item whose TTL deadline has passed, re-verifying
// under the key-stripe lock (a racing put may have replaced or revived
// it). The cold shadow is deleted so the key cannot resurrect from the
// SSD. Runs inside worker w's epoch section.
func (s *Store) lazyExpire(w int, key uint64, it *seqitem.Item) {
	mu := &s.keyLocks[key&s.lockMask]
	mu.Lock()
	defer mu.Unlock()
	cur, ok := s.idx.Get(key)
	if !ok || cur.Latest() != it.Latest() {
		return // replaced or already unlinked
	}
	cur = cur.Latest()
	now := uint64(time.Now().UnixNano())
	if e := cur.Expire(); e == 0 || now < e {
		return // a racing put refreshed the deadline
	}
	cur.Kill()
	if e := cur.Expire(); e == 0 || now < e {
		// An in-flight lock-free put moved the deadline between the check
		// and the Kill; undo. (A SetExpire still in flight past this second
		// read is the one residual: that put's TTL refresh loses to expiry.)
		cur.Revive()
		return
	}
	s.idx.Delete(key)
	s.retire(w, cur)
	if s.cold != nil {
		s.cold.Delete(key)
	}
	s.met.expired.Inc(w)
}

// coldGet serves a RAM miss from the cold tier and promotes the hit back
// into the index, so the next get for the key is a RAM (or even hot-set)
// hit — the MR worker is the promotion path, exactly like any other write.
func (s *Store) coldGet(w int, key uint64, call *rpc.Call) {
	if s.cold == nil {
		return
	}
	v, exp, loc, ok := s.cold.Get(key, call.Dst[:0], time.Now().UnixNano())
	if !ok {
		s.met.coldMisses.Inc(w)
		return
	}
	s.met.coldHits.Inc(w)
	call.Value = v
	call.Found = true
	call.Expiry = exp
	s.promote(w, key, v, exp, loc)
}

// promote inserts a cold-tier value back into RAM. Under the key-stripe
// lock it re-verifies both sides: the key must still be absent from the
// index (a racing put wins) and the cold entry must still live at the
// location the value was read from (a racing delete or newer spill wins —
// the location compare defeats the promote→put→evict ABA).
func (s *Store) promote(w int, key uint64, val []byte, exp uint64, loc coldtier.Loc) {
	mu := &s.keyLocks[key&s.lockMask]
	mu.Lock()
	defer mu.Unlock()
	if _, ok := s.idx.Get(key); ok {
		return
	}
	if l, ok := s.cold.Locate(key); !ok || l != loc {
		return
	}
	// Crash contract: retire the cold copy BEFORE the key goes back into
	// RAM. In-place writes to the RAM item never reach the SSD, so a
	// surviving cold entry would serve a stale generation after a crash; a
	// tombstone instead turns that crash into a clean miss. If the tombstone
	// cannot be appended, skip promotion — the value was still served.
	if !s.cold.Delete(key) {
		return
	}
	n := s.newItem(w, val)
	if exp != 0 {
		n.SetExpire(exp)
	}
	s.idx.Put(key, n)
	s.met.promotes.Inc(w)
	s.met.promotedBytes.Add(w, uint64(len(val)))
}
