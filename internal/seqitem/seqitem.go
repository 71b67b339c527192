// Package seqitem implements the paper's per-item concurrency control
// (§3.3): each KV item embeds lock and version bits. Updates of 8 bytes or
// less are performed directly with a single atomic store; larger updates
// take the lock bit with CAS, copy the value in place, and bump the version
// before and after. Reads are lock-free: the version is read before and
// after the copy and the read retries if it changed (a seqlock).
//
// An Item's size is fixed at creation. A size-changing update is performed
// by the index layer as an item replacement (allocate a new Item, swap the
// index pointer), which keeps the in-place protocol exact: 8-byte items
// never need the lock at all, and larger items are only ever overwritten
// with same-length values under the lock. The value payload is stored as
// 64-bit words accessed atomically, so the protocol is precise under the
// Go memory model while preserving the paper's cache behaviour — an
// in-place update touches only the item's own cache lines.
package seqitem

import (
	"encoding/binary"
	"runtime"
	"sync/atomic"

	"mutps/internal/arena"
)

// meta layout: bit 0 = lock, remaining bits = version.
const (
	lockBit uint64 = 1
	verOne  uint64 = 2
)

// Item is a fixed-size mutable KV value with embedded lock/version bits.
// Create items with New.
//
// The header is 64 bytes with no padding — one cache line when it sits on
// a 64-byte boundary, as it does in a Pool's header chunks. Size and slab
// flag share one 32-bit field and dead fills the other half of the last
// word, which caps a value at maxSize bytes.
type Item struct {
	meta  atomic.Uint64
	words []atomic.Uint64

	// moved points to the item's replacement after a size-changing update
	// swapped the index pointer; stale holders (e.g. the CR layer's hot-set
	// view) transparently follow it.
	moved atomic.Pointer[Item]

	// exp is the item's absolute expiry deadline in Unix nanoseconds
	// (0 = never expires). It lives in the header — not the value words —
	// so TTL stamping and expiry checks never interact with the seqlock.
	exp atomic.Uint64

	// viewGen is the hot-set install generation that most recently
	// published this item in a CR-layer view (0 = never installed). The
	// store's reclamation protocol (DESIGN.md §11) uses it to decide when a
	// retired item can no longer be reached through a stale view.
	viewGen atomic.Uint64

	// sizeSlab is the value size in bytes shifted left by one, with bit 0
	// set when words was carved from the arena and must be returned on
	// Recycle. Written once at allocation, like the words it describes.
	sizeSlab uint32

	// dead marks a deleted item so stale holders treat lookups as misses.
	dead atomic.Bool
}

// maxSize is the largest value an Item holds (2 GiB − 1): the size shares
// its 32-bit header field with the slab flag. The wire protocol caps
// values at 16 MiB, so only an embedder can reach it.
const maxSize = 1<<31 - 1

// sizeSlabOf packs a value size and the slab flag into Item.sizeSlab.
func sizeSlabOf(n int, slab bool) uint32 {
	if n > maxSize {
		panic("seqitem: value larger than maxSize")
	}
	v := uint32(n) << 1
	if slab {
		v |= 1
	}
	return v
}

// size returns the record's own value size in bytes.
func (it *Item) size() int { return int(it.sizeSlab >> 1) }

// slab reports whether the record's words are an arena slot.
func (it *Item) slab() bool { return it.sizeSlab&1 != 0 }

// Latest follows the replacement chain to the current item record.
func (it *Item) Latest() *Item {
	for {
		n := it.moved.Load()
		if n == nil {
			return it
		}
		it = n
	}
}

// MoveTo publishes n as the item's replacement. Callers swap the index
// pointer first, then MoveTo, so every path converges on the new record.
func (it *Item) MoveTo(n *Item) { it.moved.Store(n) }

// Kill marks the item (and anything that still points at it) deleted.
func (it *Item) Kill() { it.dead.Store(true) }

// Dead reports whether the latest record in the chain has been deleted.
func (it *Item) Dead() bool { return it.Latest().dead.Load() }

// Revive clears the dead mark. Only the lazy-expiry path may call it, under
// the item's key-stripe lock and only while the item is still indexed: it
// undoes a Kill whose justification (a passed TTL deadline) a racing put
// invalidated before the unlink completed. Readers that observed the
// transient dead mark reported a miss, which linearizes between the expiry
// and the reviving put.
func (it *Item) Revive() { it.Latest().dead.Store(false) }

// SetExpire stamps the current record's absolute expiry deadline in Unix
// nanoseconds; 0 clears it (the item never expires).
func (it *Item) SetExpire(at uint64) { it.Latest().exp.Store(at) }

// Expire returns the current record's absolute expiry deadline (0 = none).
func (it *Item) Expire() uint64 { return it.Latest().exp.Load() }

// Expired reports whether the current record has passed its deadline at
// time now (Unix nanoseconds). Items without a deadline never expire.
func (it *Item) Expired(now int64) bool {
	e := it.Latest().exp.Load()
	return e != 0 && uint64(now) >= e
}

// New creates an item holding exactly val (whose length becomes the item's
// immutable size).
func New(val []byte) *Item {
	n := len(val)
	nw := (n + 7) / 8
	if nw == 0 {
		nw = 1
	}
	it := &Item{sizeSlab: sizeSlabOf(n, false), words: make([]atomic.Uint64, nw)}
	it.storeWords(val)
	return it
}

// Size returns the current record's fixed value size in bytes (following
// any replacement chain).
func (it *Item) Size() int { return it.Latest().size() }

// storeWords copies val into the item's words, whole little-endian words
// first and a zero-padded tail word last. Every word is one atomic store:
// the seqlock protocol needs no more, and the race detector sees no less.
func (it *Item) storeWords(val []byte) {
	words := it.words[:(len(val)+7)/8]
	w := 0
	for ; len(val) >= 8; w++ {
		words[w].Store(binary.LittleEndian.Uint64(val))
		val = val[8:]
	}
	if len(val) > 0 {
		var chunk uint64
		for i, c := range val {
			chunk |= uint64(c) << (8 * i)
		}
		words[w].Store(chunk)
	}
}

// loadWords copies the item's value into dst[:size()], the mirror of
// storeWords: whole words, then the tail word's low bytes.
func (it *Item) loadWords(dst []byte) {
	dst = dst[:it.size()]
	words := it.words[:(len(dst)+7)/8]
	w := 0
	for ; len(dst) >= 8; w++ {
		binary.LittleEndian.PutUint64(dst, words[w].Load())
		dst = dst[8:]
	}
	if len(dst) > 0 {
		chunk := words[w].Load()
		for i := range dst {
			dst[i] = byte(chunk >> (8 * i))
		}
	}
}

// Write replaces the value in place. It returns false (leaving the item
// unchanged) when len(val) differs from the item's fixed size — the caller
// must then allocate a replacement item and swap the index pointer — or
// when the item was killed before the write could take the lock, so a
// racing unlink (delete or eviction) cannot silently swallow the update.
func (it *Item) Write(val []byte) bool {
	it = it.Latest()
	n := it.size()
	if len(val) != n {
		return false
	}
	if n <= 8 {
		// The paper's fast path: the whole value is one word, so a single
		// atomic store is a complete, untearable update.
		it.storeWords(val)
		return true
	}
	// Lock bit via CAS, copy, unlock with a second version bump.
	for {
		old := it.meta.Load()
		if old&lockBit != 0 {
			runtime.Gosched()
			continue
		}
		if it.meta.CompareAndSwap(old, (old+verOne)|lockBit) {
			break
		}
	}
	// Holding the lock: an evictor kills the item, then reads the value
	// through the seqlock (waiting this lock out), so refusing here
	// guarantees the spilled copy is the final value and sends this write
	// down the replacement path instead of into a dead record.
	if it.dead.Load() {
		it.meta.Store((it.meta.Load() + verOne) &^ lockBit)
		return false
	}
	it.storeWords(val)
	it.meta.Store((it.meta.Load() + verOne) &^ lockBit)
	return true
}

// Read copies the current value into buf (growing it if needed) and returns
// the filled slice: the paper's lock-free read protocol.
//
// The contract is append-style and is what makes the store's zero-alloc
// get path possible: when cap(buf) >= Size the returned slice is
// buf[:Size] — same backing array, no allocation — so callers that thread
// a caller-owned buffer through (rpc.Call.Dst, Store.GetInto) read values
// without touching the allocator. Read never retains buf and never
// returns a slice longer than Size.
func (it *Item) Read(buf []byte) []byte {
	it = it.Latest()
	n := it.size()
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if n <= 8 {
		// One atomic load: always consistent, no seqlock needed.
		it.loadWords(buf)
		return buf
	}
	for {
		m1 := it.meta.Load()
		if m1&lockBit != 0 {
			runtime.Gosched()
			continue
		}
		it.loadWords(buf)
		if it.meta.Load() == m1 {
			return buf
		}
	}
}

// ReadUint64 returns the first payload word; it is the zero-copy fast path
// for ≤8-byte items (always consistent because such items are updated with
// a single store).
func (it *Item) ReadUint64() uint64 { return it.Latest().words[0].Load() }

// MarkViewed records that the item was published in hot-set install
// generation gen, walking the whole replacement chain: a view that can
// reach this item can reach every successor through Latest, so each must
// carry the mark. Successors linked after the walk are covered by the
// replacer, which re-reads the predecessor's viewGen after publishing the
// link (MoveTo before the read, so in the SC total order either the read
// sees this walk's mark, or the walk's chain load sees the new link and
// marks the successor itself). CAS-max keeps the field monotonic against
// stale concurrent markers.
func (it *Item) MarkViewed(gen uint64) {
	for n := it; n != nil; n = n.moved.Load() {
		for {
			old := n.viewGen.Load()
			if gen <= old || n.viewGen.CompareAndSwap(old, gen) {
				break
			}
		}
	}
}

// ViewGen returns the last hot-set install generation that published this
// item, 0 if it was never installed in a view.
func (it *Item) ViewGen() uint64 { return it.viewGen.Load() }

// SlotBytes returns the arena bytes this record (not its chain successors)
// pins: the capacity of its slab slot, or 0 for heap-backed values. The
// store's budget accounting uses it to project how much memory a retired
// item will release once recycled.
func (it *Item) SlotBytes() int {
	if !it.slab() {
		return 0
	}
	return cap(it.words) * 8
}

// headerChunk is how many Item headers a pool carves per heap allocation.
const headerChunk = 256

// Pool allocates Items whose headers come from carved chunks and whose
// value words come from a worker's arena cache: the GC-quiet allocation
// path. Like arena.Cache it is single-owner — exactly one goroutine calls
// NewIn and Recycle — and recycled headers and slots are reused in LIFO
// order, so a warmed-up pool allocates nothing.
//
// The caller owns the reclamation protocol: an Item must only be Recycled
// once no concurrent reader (seqlock readers, stale hot-set views) can
// still reach it. Recycling too early is a use-after-free in every way
// that matters — a later NewIn rewrites size and words in plain (checked
// by the race detector) and reuses the value slot (silent data
// corruption).
type Pool struct {
	cache *arena.Cache
	free  []*Item // recycled headers, LIFO
	chunk []Item  // current header chunk being carved
	next  int
}

// NewPool creates a pool drawing value words from cache. A nil cache is
// allowed and means every value falls back to the Go allocator (items are
// still header-pooled).
func NewPool(cache *arena.Cache) *Pool { return &Pool{cache: cache} }

// NewIn creates an item holding exactly val, reusing a recycled header
// and an arena value slot when available.
func NewIn(p *Pool, val []byte) *Item {
	var it *Item
	if n := len(p.free); n > 0 {
		it = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	} else {
		if p.next == len(p.chunk) {
			p.chunk = make([]Item, headerChunk)
			p.next = 0
		}
		it = &p.chunk[p.next]
		p.next++
	}
	n := len(val)
	nw := (n + 7) / 8
	if nw == 0 {
		nw = 1
	}
	// Reset every header field: recycled headers carry a dead item's state.
	it.meta.Store(0)
	it.moved.Store(nil)
	it.dead.Store(false)
	it.exp.Store(0)
	it.viewGen.Store(0)
	slab := false
	if p.cache != nil {
		it.words, slab = p.cache.Get(n)
	} else {
		it.words = make([]atomic.Uint64, nw)
	}
	it.sizeSlab = sizeSlabOf(n, slab)
	it.storeWords(val)
	return it
}

// Recycle returns an item's value slot to the arena and its header to the
// pool's free list. See the Pool comment for the reachability contract.
func (p *Pool) Recycle(it *Item) {
	if it.slab() {
		p.cache.Put(it.words)
	}
	it.words = nil
	it.moved.Store(nil) // don't pin the replacement chain in memory
	p.free = append(p.free, it)
}
