// Package arena is a size-classed slab allocator for item value storage:
// the GC-quiet backing store for the write path. Values live as word
// arrays ([]atomic.Uint64, the representation internal/seqitem reads and
// writes) carved from large backing chunks, in 28 size classes from 16
// bytes to 4 KiB — 16-byte steps to 64 B, then four classes per doubling,
// so a slot wastes under a quarter of any value above 64 B; anything larger
// falls back to the Go allocator (counted, so the dashboard shows when a
// workload outgrows the classes).
//
// The concurrency structure mirrors the store's thread model. Each worker
// owns a Cache of per-class free lists and allocates and frees against it
// with no synchronization at all; caches refill from and flush to a
// per-class central free list in fixed-size batches, so the central mutex
// is touched once per batchSlots operations, not once per op. Slots are
// never returned to the operating system — a store's arena footprint is
// its high-water mark — which is the same policy the Go runtime's own
// mcache/mcentral spans follow and what keeps steady-state allocation
// allocation-free: after warm-up every Get is a pop from a slice the
// worker already owns.
//
// The arena does not know about item lifetimes. Callers must guarantee a
// slot is unreachable before Put returns it — in the store that guarantee
// is the epoch-based retirement protocol (DESIGN.md §11): an item's slot
// recycles only after a grace period covers every concurrent reader and
// every hot-set view that could still hold the item.
package arena

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

const (
	// MinClassBytes .. MaxClassBytes bound the size classes. NumClasses
	// classes span them: 16-byte steps up to 64 B (16, 32, 48, 64), then
	// four per doubling (80, 96, 112, 128, 160, ..., 3584, 4096), so a value
	// over 64 B wastes less than a quarter of its size and every slot is a
	// multiple of 16 B.
	MinClassBytes = 16
	MaxClassBytes = 4096
	NumClasses    = 28

	// smallClasses are the 16-byte steps up to smallMaxBytes (1<<smallLog2);
	// each doubling above that is split into 1<<stepsLog2 classes.
	smallClasses  = 4
	smallLog2     = 6
	smallMaxBytes = 1 << smallLog2
	stepsLog2     = 2

	// batchSlots is the refill/flush transfer unit between a worker cache
	// and the central free list, and localCap (2×) the local free-list
	// bound: a cache holds at most one batch beyond what it hands back.
	batchSlots = 32
	localCap   = 2 * batchSlots

	// DefaultChunkBytes is the default backing-chunk size per class.
	DefaultChunkBytes = 256 << 10
)

// classFor maps a byte size in (0, MaxClassBytes] to its class index.
func classFor(n int) int {
	if n <= smallMaxBytes {
		return (n - 1) / MinClassBytes // n == 0 (Get's one-word minimum) truncates to 0 too
	}
	// 2^k < n ≤ 2^(k+1): the doubling above 2^k, cut into steps of
	// 2^(k-stepsLog2) bytes.
	k := bits.Len(uint(n-1)) - 1
	step := (n - 1 - 1<<k) >> (k - stepsLog2)
	return smallClasses + (k-smallLog2)<<stepsLog2 + step
}

// classBytes returns class c's slot size in bytes.
func classBytes(c int) int {
	if c < smallClasses {
		return (c + 1) * MinClassBytes
	}
	c -= smallClasses
	base := smallMaxBytes << (c >> stepsLog2)
	return base + (c&(1<<stepsLog2-1)+1)*(base>>stepsLog2)
}

// classWords returns class c's slot size in 8-byte words.
func classWords(c int) int { return classBytes(c) / 8 }

// central is one size class's shared state: the free list plus the
// carving cursor into the class's current backing chunk. Padded so
// adjacent classes' mutexes never share a cache line.
type central struct {
	mu    sync.Mutex
	free  [][]atomic.Uint64 // flushed-back slots
	chunk []atomic.Uint64   // current backing chunk being carved
	next  int               // carve cursor into chunk, in words

	carved atomic.Uint64 // slots ever carved from chunks (monotonic)
	nfree  atomic.Uint64 // len(free) mirror for lock-free scraping
	_      [4]uint64
}

// Arena is the shared allocator: central free lists, chunk carving, and
// the cache registry the collectors sum live counts over.
type Arena struct {
	chunkWords int // per-class chunk size, in words
	classes    [NumClasses]central

	mu     sync.Mutex
	caches []*Cache

	chunks    atomic.Uint64 // backing chunks allocated
	refills   atomic.Uint64 // cache refills from a central list
	flushes   atomic.Uint64 // cache flushes back to a central list
	fallbacks atomic.Uint64 // allocations beyond MaxClassBytes

	// Pressure hook: refill calls presFn when live bytes reach presAt.
	// Set once before allocation traffic starts (SetPressureHook).
	presAt uint64
	presFn func()
}

// New creates an arena whose classes carve chunkBytes-sized backing
// chunks (0 means DefaultChunkBytes; tiny values are clamped so a chunk
// always holds at least one largest-class slot).
func New(chunkBytes int) *Arena {
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunkBytes
	}
	if chunkBytes < MaxClassBytes {
		chunkBytes = MaxClassBytes
	}
	return &Arena{chunkWords: chunkBytes / 8}
}

// ChunkBytes returns the per-class backing chunk size.
func (a *Arena) ChunkBytes() int { return a.chunkWords * 8 }

// LiveBytes returns the bytes of value storage currently held by items
// (slot-size granularity; a collection-time sum over every cache).
func (a *Arena) LiveBytes() uint64 { return a.Snapshot().LiveBytes }

// SetPressureHook arranges for fn to be called from allocation slow paths
// (cache refills — roughly once per batch of allocations) whenever live
// bytes are at or above threshold. fn must be cheap and non-blocking; the
// store points it at the evictor's coalescing Notify. Must be called
// before allocation traffic starts: the fields are written plainly and
// published by the goroutine starts that follow.
func (a *Arena) SetPressureHook(threshold uint64, fn func()) {
	a.presAt = threshold
	a.presFn = fn
}

// NewCache creates a worker-owned allocation cache. Caches are registered
// with the arena so live-slot accounting can sum them at collection time;
// they are never unregistered (workers live as long as the store).
func (a *Arena) NewCache() *Cache {
	c := &Cache{a: a}
	a.mu.Lock()
	a.caches = append(a.caches, c)
	a.mu.Unlock()
	return c
}

// localClass is one size class's worker-local state. allocs/frees are
// written only by the owning worker but read by collectors, so they are
// atomics; the pad keeps neighbouring classes (and neighbouring caches)
// off each other's cache lines.
type localClass struct {
	free   [][]atomic.Uint64
	allocs atomic.Uint64 // slots handed to items by this cache
	frees  atomic.Uint64 // slots taken back from items by this cache
	_      [3]uint64
}

// Cache is a single-owner allocation cache: exactly one goroutine may
// call Get and Put (the store gives every worker its own, plus one, mutex
// guarded, for bulk preloading).
type Cache struct {
	a   *Arena
	cls [NumClasses]localClass
}

// Get returns a word array with capacity for n bytes (n > 0), and whether
// it came from the arena. Slots have capacity exactly their class size so
// Put can re-derive the class; len is the exact word count for n. When
// n > MaxClassBytes the array comes from the Go allocator (pooled=false)
// and must not be Put back.
func (c *Cache) Get(n int) (slot []atomic.Uint64, pooled bool) {
	nw := (n + 7) / 8
	if nw == 0 {
		nw = 1
	}
	if n > MaxClassBytes {
		c.a.fallbacks.Add(1)
		return make([]atomic.Uint64, nw), false
	}
	cl := classFor(n)
	lc := &c.cls[cl]
	if len(lc.free) == 0 {
		c.refill(cl)
	}
	s := lc.free[len(lc.free)-1]
	lc.free[len(lc.free)-1] = nil
	lc.free = lc.free[:len(lc.free)-1]
	lc.allocs.Add(1)
	return s[:nw], true
}

// Put recycles a slot previously returned by Get with pooled=true. The
// caller must guarantee no reader can still reach the slot (the store's
// epoch retirement protocol). The slot's contents need not be zeroed:
// seqitem writes every word it will read.
func (c *Cache) Put(slot []atomic.Uint64) {
	cl := classFor(cap(slot) * 8)
	lc := &c.cls[cl]
	lc.free = append(lc.free, slot[:cap(slot):cap(slot)])
	lc.frees.Add(1)
	if len(lc.free) >= localCap {
		c.flush(cl)
	}
}

// refill moves up to batchSlots free slots from the central list (carving
// fresh ones from the class chunk when the list runs dry) into the local
// list. Called with the local list empty; guarantees at least one slot.
func (c *Cache) refill(cl int) {
	ce := &c.a.classes[cl]
	lc := &c.cls[cl]
	cw := classWords(cl)
	ce.mu.Lock()
	n := batchSlots
	if ln := len(ce.free); ln < n {
		n = ln
	}
	for i := 0; i < n; i++ {
		s := ce.free[len(ce.free)-1]
		ce.free[len(ce.free)-1] = nil
		ce.free = ce.free[:len(ce.free)-1]
		lc.free = append(lc.free, s)
	}
	ce.nfree.Store(uint64(len(ce.free)))
	carved := 0
	for len(lc.free) < batchSlots {
		if ce.next+cw > len(ce.chunk) {
			ce.chunk = make([]atomic.Uint64, c.a.chunkWords)
			ce.next = 0
			c.a.chunks.Add(1)
		}
		s := ce.chunk[ce.next : ce.next+cw : ce.next+cw]
		ce.next += cw
		lc.free = append(lc.free, s)
		carved++
	}
	if carved > 0 {
		ce.carved.Add(uint64(carved))
	}
	ce.mu.Unlock()
	c.a.refills.Add(1)
	if c.a.presFn != nil && c.a.LiveBytes() >= c.a.presAt {
		c.a.presFn()
	}
}

// flush returns batchSlots slots from the local list to the central list,
// leaving one batch locally so the next Get stays local.
func (c *Cache) flush(cl int) {
	ce := &c.a.classes[cl]
	lc := &c.cls[cl]
	ce.mu.Lock()
	for i := 0; i < batchSlots; i++ {
		s := lc.free[len(lc.free)-1]
		lc.free[len(lc.free)-1] = nil
		lc.free = lc.free[:len(lc.free)-1]
		ce.free = append(ce.free, s)
	}
	ce.nfree.Store(uint64(len(ce.free)))
	ce.mu.Unlock()
	c.a.flushes.Add(1)
}

// Stats is a point-in-time accounting snapshot (collection-time reads of
// the lock-free counters; per-class live counts sum every cache, so under
// load the snapshot is approximate but never drifts).
type Stats struct {
	LiveSlots [NumClasses]uint64 // slots currently held by items, per class
	Carved    [NumClasses]uint64 // slots ever carved, per class
	Central   [NumClasses]uint64 // slots free in the central lists
	LiveBytes uint64             // Σ LiveSlots × class size
	Chunks    uint64
	Refills   uint64
	Flushes   uint64
	Fallbacks uint64
}

// Snapshot sums the arena's counters.
func (a *Arena) Snapshot() Stats {
	var st Stats
	a.mu.Lock()
	caches := a.caches
	a.mu.Unlock()
	for cl := 0; cl < NumClasses; cl++ {
		var allocs, frees uint64
		for _, c := range caches {
			allocs += c.cls[cl].allocs.Load()
			frees += c.cls[cl].frees.Load()
		}
		if allocs > frees { // racy reads can transiently invert
			st.LiveSlots[cl] = allocs - frees
		}
		st.Carved[cl] = a.classes[cl].carved.Load()
		st.Central[cl] = a.classes[cl].nfree.Load()
		st.LiveBytes += st.LiveSlots[cl] * uint64(classBytes(cl))
	}
	st.Chunks = a.chunks.Load()
	st.Refills = a.refills.Load()
	st.Flushes = a.flushes.Load()
	st.Fallbacks = a.fallbacks.Load()
	return st
}
