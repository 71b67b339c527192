// Buffer leasing: short-lived byte buffers for the network transports.
//
// The slab arena (arena.go) backs item VALUES — word arrays owned by the
// store for an item's whole lifetime. The Leaser backs the transient
// buffers around a request: decoded put payloads and get destination
// buffers. Their lifetime is the inverse of an item's: microseconds while
// a request is in flight, then back to the pool — and, critically, an
// idle connection holds none at all. That inversion is what makes a
// million mostly-idle connections affordable: buffer memory is
// proportional to the number of requests in flight, not the number of
// sockets open.
//
// The design mirrors the arena's size-classed central lists without the
// per-worker caches: leases happen once per request burst (not once per
// op), so a mutex per class is cheap. Each class retains at most
// classRetain free buffers; beyond that, returned buffers are dropped to
// the garbage collector, so a burst of activity cannot permanently inflate
// the pool (the arena's grow-only policy is right for items, wrong for
// connection buffers).
package arena

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

const (
	// LeaseMinBytes .. LeaseMaxBytes bound the lease size classes
	// (power-of-two: 512 B, 1 KiB, ..., 64 KiB). Larger requests fall back
	// to the Go allocator and are never pooled.
	LeaseMinBytes = 512
	LeaseMaxBytes = 64 << 10
	leaseClasses  = 8
	leaseMinShift = 9 // log2(LeaseMinBytes)

	// classRetain caps the free buffers kept per class: the pool holds at
	// most classRetain × classBytes resident per class when fully idle.
	classRetain = 128
)

// leaseClassFor maps a byte size in (0, LeaseMaxBytes] to its class.
func leaseClassFor(n int) int {
	if n <= LeaseMinBytes {
		return 0
	}
	return bits.Len(uint(n-1)) - leaseMinShift
}

// leaseClassBytes returns class c's buffer size.
func leaseClassBytes(c int) int { return LeaseMinBytes << c }

// leaseCentral is one class's free list. Padded like the arena's central
// so adjacent class mutexes stay off each other's cache lines.
type leaseCentral struct {
	mu   sync.Mutex
	free [][]byte
	_    [6]uint64
}

// Leaser is a concurrent size-classed []byte pool with live-lease
// accounting. Get returns a zero-length buffer whose capacity is the
// class size (≥ the requested bytes); Put returns it. The leased-bytes
// gauge counts class-size bytes currently out on lease — the resident
// buffer cost of all in-flight requests — and held bytes counts what the
// free lists retain for reuse.
type Leaser struct {
	classes [leaseClasses]leaseCentral

	leased    atomic.Int64  // class-size bytes currently on lease
	held      atomic.Int64  // class-size bytes sitting in free lists
	leases    atomic.Uint64 // Get calls served from a class
	fallbacks atomic.Uint64 // Get calls beyond LeaseMaxBytes (unpooled)
}

// NewLeaser creates an empty lease pool.
func NewLeaser() *Leaser { return &Leaser{} }

// Get leases a buffer with capacity for at least n bytes (n > 0),
// returned with length zero. Buffers up to LeaseMaxBytes come from the
// size-classed pool and must be handed back with Put; larger ones come
// from the Go allocator and are simply dropped when done (Put ignores
// them). The contents are unspecified — callers overwrite what they read.
func (l *Leaser) Get(n int) []byte {
	if n > LeaseMaxBytes {
		l.fallbacks.Add(1)
		return make([]byte, 0, n)
	}
	cl := leaseClassFor(n)
	cb := leaseClassBytes(cl)
	ce := &l.classes[cl]
	ce.mu.Lock()
	var b []byte
	if ln := len(ce.free); ln > 0 {
		b = ce.free[ln-1]
		ce.free[ln-1] = nil
		ce.free = ce.free[:ln-1]
	}
	ce.mu.Unlock()
	if b == nil {
		b = make([]byte, 0, cb)
	} else {
		l.held.Add(-int64(cb))
	}
	l.leased.Add(int64(cb))
	l.leases.Add(1)
	return b
}

// Put returns a buffer previously vended by a pooled Get. Leased buffers
// keep their class capacity for life (append-growth replaces the backing
// array, it never resizes it in place), so callers must return exactly
// the slice Get handed out — a buffer that was replaced by growth is no
// longer the lease and must not come back here. Buffers whose capacity is
// not a class size (fallback allocations past LeaseMaxBytes, which Get
// did not count as leased) are dropped to the GC. Put(nil) is a no-op, so
// callers can unconditionally return-and-clear buffer fields.
func (l *Leaser) Put(b []byte) {
	cb := cap(b)
	if cb == 0 {
		return
	}
	cl := leaseClassFor(cb)
	if cl < 0 || cl >= leaseClasses || leaseClassBytes(cl) != cb {
		return // fallback allocation: never counted, nothing to settle
	}
	l.leased.Add(-int64(cb))
	ce := &l.classes[cl]
	ce.mu.Lock()
	if len(ce.free) < classRetain {
		ce.free = append(ce.free, b[:0:cb])
		ce.mu.Unlock()
		l.held.Add(int64(cb))
		return
	}
	ce.mu.Unlock()
	// Over the retain cap: drop to the GC.
}

// LeasedBytes returns the class-size bytes currently out on lease: the
// resident buffer footprint of every in-flight request across the
// transports that share this pool.
func (l *Leaser) LeasedBytes() int64 { return l.leased.Load() }

// HeldBytes returns the bytes retained in the free lists for reuse.
func (l *Leaser) HeldBytes() int64 { return l.held.Load() }

// Leases returns the cumulative pooled Get count.
func (l *Leaser) Leases() uint64 { return l.leases.Load() }

// LeaseFallbacks returns the cumulative beyond-class Get count.
func (l *Leaser) LeaseFallbacks() uint64 { return l.fallbacks.Load() }
