// Package cuckoo implements a concurrent bucketized cuckoo hash table with
// lock-free reads, the stand-in for libcuckoo used by μTPS-H. Each key maps
// to two buckets of slotsPerBucket slots; inserts displace entries along a
// bounded cuckoo path when both buckets are full, and the table doubles
// when a path cannot be found.
//
// The layout is libcuckoo's: a bucket holds its four keys and its four
// value pointers inline, one 64 B cache line, so a lookup touches the two
// bucket lines and nothing else before it reaches the value. Values must
// be pointers; a slot is occupied exactly when its pointer is non-nil.
//
// Writers serialize per bucket on striped mutexes. Readers never lock:
// each stripe also carries a MemC3-style version counter that a writer
// makes odd while it changes which key a slot holds (insert, delete, a
// displacement move), and a reader rescans when either of its buckets'
// versions was odd or moved under it. Replacing the value of a present
// key is one atomic pointer store and leaves the versions alone.
// Displacement paths and resizing serialize on dedicated locks since they
// are rare.
package cuckoo

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

const slotsPerBucket = 4

// maxKickDepth bounds the displacement path length before a resize is
// forced, matching libcuckoo's bounded search.
const maxKickDepth = 128

// maxStripes caps the lock-and-version stripes of one table.
const maxStripes = 4096

// bucket is one cache line. vals are only accessed through
// atomic.LoadPointer and atomic.StorePointer; keys[s] is meaningful only
// while vals[s] is non-nil.
type bucket struct {
	keys [slotsPerBucket]atomic.Uint64
	vals [slotsPerBucket]unsafe.Pointer
}

// stripe guards the buckets whose index maps to it. Writers hold mu; ver
// is odd while a held writer changes a slot's key, and padding keeps each
// stripe on its own cache line.
type stripe struct {
	mu  sync.Mutex
	ver atomic.Uint64
	_   [64 - 16]byte
}

type table struct {
	buckets    []bucket
	mask       uint64
	stripes    []stripe
	stripeMask uint64
}

// Map is a concurrent cuckoo hash table keyed by uint64 storing pointer
// values of type V.
type Map[V any] struct {
	resizeMu sync.RWMutex // held shared by all writers, exclusive by resize
	kickMu   sync.Mutex   // serializes displacement paths
	t        atomic.Pointer[table]
	count    atomic.Int64
}

// New creates a table sized for at least capacityHint items. It panics
// unless V is a pointer type: slots hold values as bare pointers.
func New[V any](capacityHint int) *Map[V] {
	if reflect.TypeFor[V]().Kind() != reflect.Pointer {
		panic("cuckoo: value type " + reflect.TypeFor[V]().String() + " is not a pointer")
	}
	if capacityHint < slotsPerBucket {
		capacityHint = slotsPerBucket
	}
	nBuckets := 1
	// Target ≤50% load at the hint so the cuckoo paths stay short.
	for nBuckets*slotsPerBucket < capacityHint*2 {
		nBuckets <<= 1
	}
	m := &Map[V]{}
	m.t.Store(newTable(nBuckets))
	return m
}

func newTable(nBuckets int) *table {
	nStripes := min(nBuckets, maxStripes)
	return &table{
		buckets:    make([]bucket, nBuckets),
		mask:       uint64(nBuckets - 1),
		stripes:    make([]stripe, nStripes),
		stripeMask: uint64(nStripes - 1),
	}
}

func toPtr[V any](v V) unsafe.Pointer { return *(*unsafe.Pointer)(unsafe.Pointer(&v)) }

func fromPtr[V any](p unsafe.Pointer) V { return *(*V)(unsafe.Pointer(&p)) }

func mix1(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xFF51AFD7ED558CCD
	k ^= k >> 33
	k *= 0xC4CEB9FE1A85EC53
	k ^= k >> 33
	return k
}

func mix2(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xBF58476D1CE4E5B9
	k ^= k >> 27
	k *= 0x94D049BB133111EB
	k ^= k >> 31
	return k
}

func (t *table) indexes(key uint64) (uint64, uint64) {
	i1 := mix1(key) & t.mask
	i2 := mix2(key) & t.mask
	if i1 == i2 {
		i2 = (i2 + 1) & t.mask
	}
	return i1, i2
}

// alt returns key's other bucket, given the one it is in.
func (t *table) alt(key, cur uint64) uint64 {
	i1, i2 := t.indexes(key)
	if cur == i1 {
		return i2
	}
	return i1
}

// find returns the value stored for key in b, or nil.
func (b *bucket) find(key uint64) unsafe.Pointer {
	for s := range b.keys {
		if b.keys[s].Load() == key {
			if p := atomic.LoadPointer(&b.vals[s]); p != nil {
				return p
			}
		}
	}
	return nil
}

// slotOf returns the slot holding key, or -1. Callers hold b's stripe.
func (b *bucket) slotOf(key uint64) int {
	for s := range b.keys {
		if atomic.LoadPointer(&b.vals[s]) != nil && b.keys[s].Load() == key {
			return s
		}
	}
	return -1
}

// free returns an empty slot of b, or -1.
func (b *bucket) free() int {
	for s := range b.vals {
		if atomic.LoadPointer(&b.vals[s]) == nil {
			return s
		}
	}
	return -1
}

func (b *bucket) set(s int, key uint64, p unsafe.Pointer) {
	b.keys[s].Store(key)
	atomic.StorePointer(&b.vals[s], p)
}

// stripePair is the stripes of two buckets, in lock order; b is nil when
// both buckets share one stripe.
type stripePair struct{ a, b *stripe }

func (t *table) stripesOf(i1, i2 uint64) stripePair {
	l1, l2 := i1&t.stripeMask, i2&t.stripeMask
	if l1 == l2 {
		return stripePair{a: &t.stripes[l1]}
	}
	if l1 > l2 {
		l1, l2 = l2, l1
	}
	return stripePair{a: &t.stripes[l1], b: &t.stripes[l2]}
}

func (s stripePair) lock() {
	s.a.mu.Lock()
	if s.b != nil {
		s.b.mu.Lock()
	}
}

func (s stripePair) unlock() {
	if s.b != nil {
		s.b.mu.Unlock()
	}
	s.a.mu.Unlock()
}

// bump advances both versions by one: called in pairs around a change of
// which key a slot holds, so the versions are odd in between.
func (s stripePair) bump() {
	s.a.ver.Add(1)
	if s.b != nil {
		s.b.ver.Add(1)
	}
}

// Get returns the value stored for key.
func (m *Map[V]) Get(key uint64) (V, bool) {
	p := m.t.Load().get(key)
	return fromPtr[V](p), p != nil
}

func (t *table) get(key uint64) unsafe.Pointer {
	i1, i2 := t.indexes(key)
	s1, s2 := &t.stripes[i1&t.stripeMask], &t.stripes[i2&t.stripeMask]
	for {
		v1, v2 := s1.ver.Load(), s2.ver.Load()
		if (v1|v2)&1 != 0 {
			runtime.Gosched()
			continue
		}
		p := t.buckets[i1].find(key)
		if p == nil {
			p = t.buckets[i2].find(key)
		}
		// A slot can be emptied and refilled with another key between
		// the key compare and the pointer load; the versions say so.
		if s1.ver.Load() == v1 && s2.ver.Load() == v2 {
			return p
		}
	}
}

// Put inserts or replaces the value for key. It panics on a nil value,
// which would read as an empty slot.
func (m *Map[V]) Put(key uint64, val V) {
	p := toPtr(val)
	if p == nil {
		panic("cuckoo: Put of a nil value")
	}
	for {
		t, ok := m.tryPut(key, p)
		if ok {
			return
		}
		m.grow(t)
	}
}

// tryPut attempts an insert or update against the current table, which it
// returns; false means that table must grow.
func (m *Map[V]) tryPut(key uint64, p unsafe.Pointer) (*table, bool) {
	m.resizeMu.RLock()
	defer m.resizeMu.RUnlock()
	t := m.t.Load()
	i1, i2 := t.indexes(key)
	if m.place(t, key, p, i1, i2) {
		return t, true
	}
	// Both buckets full: displacement path under the kick lock.
	return t, m.insertWithKick(t, key, p, i1, i2)
}

// place stores p for key in bucket i1 or i2 under both stripes: over the
// key's own slot when present — one pointer store, so a reader sees the
// old value or the new one — else in a free slot. It reports false when
// both buckets are full.
func (m *Map[V]) place(t *table, key uint64, p unsafe.Pointer, i1, i2 uint64) bool {
	st := t.stripesOf(i1, i2)
	st.lock()
	defer st.unlock()
	bs := [2]*bucket{&t.buckets[i1], &t.buckets[i2]}
	for _, b := range bs {
		if s := b.slotOf(key); s >= 0 {
			atomic.StorePointer(&b.vals[s], p)
			return true
		}
	}
	for _, b := range bs {
		if s := b.free(); s >= 0 {
			st.bump()
			b.set(s, key, p)
			st.bump()
			m.count.Add(1)
			return true
		}
	}
	return false
}

type kickStep struct {
	bucket uint64
	slot   int
}

// insertWithKick frees a slot in bucket i1 by walking a cuckoo path, then
// places key. At each bucket on the walk it first looks for a slot whose
// key's other bucket has room, and otherwise moves on through a slot whose
// other bucket is not on the path yet. Items are then copied to their
// alternate bucket leaf-first so that a concurrent reader always finds
// every key in at least one of its buckets. The path lives on the stack:
// a kick allocates nothing.
func (m *Map[V]) insertWithKick(t *table, key uint64, p unsafe.Pointer, i1, i2 uint64) bool {
	m.kickMu.Lock()
	defer m.kickMu.Unlock()

	var path [maxKickDepth]kickStep
	cur := i1
	for depth := 0; depth < maxKickDepth; depth++ {
		b := &t.buckets[cur]
		next := -1
		var nextAlt uint64
		for i := 0; i < slotsPerBucket; i++ {
			// Start the scan at a depth-dependent slot, for spread.
			s := (depth + i) % slotsPerBucket
			if atomic.LoadPointer(&b.vals[s]) == nil {
				// The slot emptied meanwhile: the path ends here.
				return t.shiftPath(path[:depth], cur) && m.place(t, key, p, i1, i2)
			}
			alt := t.alt(b.keys[s].Load(), cur)
			if t.buckets[alt].free() >= 0 {
				path[depth] = kickStep{cur, s}
				return t.shiftPath(path[:depth+1], alt) && m.place(t, key, p, i1, i2)
			}
			if next < 0 && !onPath(path[:depth], alt) {
				next, nextAlt = s, alt
			}
		}
		if next < 0 {
			return false // every way on leads back into the path → resize
		}
		path[depth] = kickStep{cur, next}
		cur = nextAlt
	}
	return false
}

func onPath(path []kickStep, bucket uint64) bool {
	for _, st := range path {
		if st.bucket == bucket {
			return true
		}
	}
	return false
}

// shiftPath moves the entry at each path step into the next bucket,
// starting from the deepest step, whose destination is dst. The path was
// planned without locks, so every move is revalidated under its stripes.
func (t *table) shiftPath(path []kickStep, dst uint64) bool {
	for i := len(path) - 1; i >= 0; i-- {
		src := path[i]
		if !t.move(src, dst) {
			return false
		}
		dst = src.bucket
	}
	return true
}

// move moves the entry in slot src to a free slot of bucket dst. An
// emptied src counts as moved; a victim replaced by a key that does not
// live in dst, or a full dst, aborts the path.
func (t *table) move(src kickStep, dst uint64) bool {
	st := t.stripesOf(src.bucket, dst)
	st.lock()
	defer st.unlock()
	sb, db := &t.buckets[src.bucket], &t.buckets[dst]
	p := atomic.LoadPointer(&sb.vals[src.slot])
	if p == nil {
		return true
	}
	key := sb.keys[src.slot].Load()
	if t.alt(key, src.bucket) != dst {
		return false
	}
	s := db.free()
	if s < 0 {
		return false
	}
	st.bump()
	db.set(s, key, p)
	atomic.StorePointer(&sb.vals[src.slot], nil)
	st.bump()
	return true
}

// grow doubles the table seen by a failed put and rehashes every entry,
// unless another put has grown it already.
func (m *Map[V]) grow(seen *table) {
	m.resizeMu.Lock()
	defer m.resizeMu.Unlock()
	old := m.t.Load()
	if old != seen {
		return
	}
	for n := 2 * len(old.buckets); ; n *= 2 {
		if nt := old.rehash(n); nt != nil {
			m.t.Store(nt)
			return
		}
	}
}

// rehash copies t into a new table of nBuckets, or returns nil if an
// entry found no place. Writers are excluded; t itself is left untouched,
// so readers still on it see a consistent table.
func (t *table) rehash(nBuckets int) *table {
	nt := newTable(nBuckets)
	for bi := range t.buckets {
		b := &t.buckets[bi]
		for s := range b.vals {
			if p := atomic.LoadPointer(&b.vals[s]); p != nil && !nt.insertInto(b.keys[s].Load(), p) {
				return nil
			}
		}
	}
	return nt
}

// insertInto places an entry into an unpublished table, kicking along a
// random-walk path.
func (t *table) insertInto(key uint64, p unsafe.Pointer) bool {
	i1, i2 := t.indexes(key)
	for _, bi := range [2]uint64{i1, i2} {
		if s := t.buckets[bi].free(); s >= 0 {
			t.buckets[bi].set(s, key, p)
			return true
		}
	}
	cur := i1
	for depth := 0; depth < maxKickDepth; depth++ {
		victim := depth % slotsPerBucket
		b := &t.buckets[cur]
		vk, vp := b.keys[victim].Load(), atomic.LoadPointer(&b.vals[victim])
		b.set(victim, key, p)
		key, p = vk, vp
		cur = t.alt(key, cur)
		if s := t.buckets[cur].free(); s >= 0 {
			t.buckets[cur].set(s, key, p)
			return true
		}
	}
	return false
}

// Delete removes key, reporting whether it was present.
func (m *Map[V]) Delete(key uint64) bool {
	m.resizeMu.RLock()
	defer m.resizeMu.RUnlock()
	t := m.t.Load()
	i1, i2 := t.indexes(key)
	st := t.stripesOf(i1, i2)
	st.lock()
	defer st.unlock()
	for _, b := range [2]*bucket{&t.buckets[i1], &t.buckets[i2]} {
		if s := b.slotOf(key); s >= 0 {
			st.bump()
			atomic.StorePointer(&b.vals[s], nil)
			st.bump()
			m.count.Add(-1)
			return true
		}
	}
	return false
}

// Len returns the number of stored items.
func (m *Map[V]) Len() int { return int(m.count.Load()) }

// Capacity returns the current slot capacity (buckets × slots).
func (m *Map[V]) Capacity() int { return len(m.t.Load().buckets) * slotsPerBucket }

// Range calls f for every entry until f returns false. Each bucket is read
// consistently, but the iteration as a whole is a best-effort snapshot
// under concurrent writes: an entry moved by a kick may be seen twice or
// not at all.
func (m *Map[V]) Range(f func(key uint64, val V) bool) {
	t := m.t.Load()
	for bi := range t.buckets {
		keys, vals := t.snapshot(uint64(bi))
		for s, p := range vals {
			if p != nil && !f(keys[s], fromPtr[V](p)) {
				return
			}
		}
	}
}

// snapshot reads bucket bi's slots under its stripe's version.
func (t *table) snapshot(bi uint64) (keys [slotsPerBucket]uint64, vals [slotsPerBucket]unsafe.Pointer) {
	st, b := &t.stripes[bi&t.stripeMask], &t.buckets[bi]
	for {
		v := st.ver.Load()
		if v&1 != 0 {
			runtime.Gosched()
			continue
		}
		for s := range b.vals {
			keys[s], vals[s] = b.keys[s].Load(), atomic.LoadPointer(&b.vals[s])
		}
		if st.ver.Load() == v {
			return keys, vals
		}
	}
}
