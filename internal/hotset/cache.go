package hotset

import (
	"sort"
	"sync/atomic"

	"mutps/internal/seqitem"
)

// Entry binds a hot key to its item record in the main store. The cache
// never copies item data — per the paper, the CPU caches the data
// automatically once the CR layer's dedicated threads access it.
type Entry struct {
	Key  uint64
	Item *seqitem.Item
}

// View is an immutable hot-set snapshot the CR-layer workers look keys up
// in. Implementations must be safe for concurrent readers.
type View interface {
	Lookup(key uint64) (*seqitem.Item, bool)
	Len() int
}

// SortedView is the tree-engine view: an ordered array of index entries,
// eliminating the intermediate pointers of a tree while supporting binary
// search (and range-prefix lookups for scans).
type SortedView struct {
	keys  []uint64
	items []*seqitem.Item
}

// NewSortedView builds a view from entries (which it sorts by key;
// duplicate keys keep the last occurrence).
func NewSortedView(entries []Entry) *SortedView {
	es := make([]Entry, len(entries))
	copy(es, entries)
	sort.Slice(es, func(i, j int) bool { return es[i].Key < es[j].Key })
	v := &SortedView{
		keys:  make([]uint64, 0, len(es)),
		items: make([]*seqitem.Item, 0, len(es)),
	}
	for i, e := range es {
		if i > 0 && e.Key == v.keys[len(v.keys)-1] {
			v.items[len(v.items)-1] = e.Item
			continue
		}
		v.keys = append(v.keys, e.Key)
		v.items = append(v.items, e.Item)
	}
	return v
}

// Lookup implements View by binary search.
func (v *SortedView) Lookup(key uint64) (*seqitem.Item, bool) {
	i := sort.Search(len(v.keys), func(i int) bool { return v.keys[i] >= key })
	if i < len(v.keys) && v.keys[i] == key {
		return v.items[i], true
	}
	return nil, false
}

// Len implements View.
func (v *SortedView) Len() int { return len(v.keys) }

// HashView is the hash-engine view: a compact open-addressed table mirroring
// the main index's layout (the paper reuses the main hash structure; a
// dedicated compact table gives the CR layer the same O(1) probe with a
// footprint proportional to the hot set).
type HashView struct {
	mask  uint64
	slots []hashSlot
	n     int
}

// hashSlot keeps a key beside its item: a hit reads one cache line, and a
// view is one array, so a refresh allocates the view, its slots and the box
// Install publishes it in, nothing more.
type hashSlot struct {
	key  uint64 // key+1; 0 = empty
	item *seqitem.Item
}

// NewHashView builds a view with ≤50% load.
func NewHashView(entries []Entry) *HashView {
	size := uint64(16)
	for size < uint64(len(entries))*2 {
		size <<= 1
	}
	v := &HashView{
		mask:  size - 1,
		slots: make([]hashSlot, size),
	}
	for _, e := range entries {
		v.insert(e.Key, e.Item)
	}
	return v
}

func hvMix(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xFF51AFD7ED558CCD
	k ^= k >> 33
	return k
}

func (v *HashView) insert(key uint64, it *seqitem.Item) {
	i := hvMix(key) & v.mask
	for {
		s := &v.slots[i]
		switch s.key {
		case 0:
			s.key, s.item = key+1, it
			v.n++
			return
		case key + 1:
			s.item = it
			return
		}
		i = (i + 1) & v.mask
	}
}

// Lookup implements View by linear probing.
func (v *HashView) Lookup(key uint64) (*seqitem.Item, bool) {
	i := hvMix(key) & v.mask
	for {
		s := &v.slots[i]
		switch s.key {
		case 0:
			return nil, false
		case key + 1:
			return s.item, true
		}
		i = (i + 1) & v.mask
	}
}

// Len implements View.
func (v *HashView) Len() int { return v.n }

// emptyView serves lookups before the first refresh.
type emptyView struct{}

func (emptyView) Lookup(uint64) (*seqitem.Item, bool) { return nil, false }
func (emptyView) Len() int                            { return 0 }

// Cache is the worker-facing handle: an atomically swappable View. The
// refresher builds a new view off the hot path and Installs it; workers see
// either the old or the new snapshot, never a mix — the paper's epoch-based
// atomic switch (the epoch domain additionally lets the refresher wait for
// all workers to leave the old view when it must be quiesced, e.g. during
// thread reassignment).
type Cache struct {
	v        atomic.Pointer[viewBox]
	installs atomic.Uint64
}

type viewBox struct{ View }

// NewCache returns a cache that misses everything until a view is installed.
func NewCache() *Cache {
	c := &Cache{}
	c.v.Store(&viewBox{emptyView{}})
	return c
}

// Lookup consults the current view.
func (c *Cache) Lookup(key uint64) (*seqitem.Item, bool) {
	return c.v.Load().Lookup(key)
}

// View returns the current snapshot (for range queries and stats).
func (c *Cache) View() View { return c.v.Load().View }

// Install atomically publishes a new snapshot.
func (c *Cache) Install(v View) {
	c.v.Store(&viewBox{v})
	c.installs.Add(1)
}

// Installs returns how many views have been published — the epoch-switch
// count the observability layer exports.
func (c *Cache) Installs() uint64 { return c.installs.Load() }

// Len returns the current snapshot's size.
func (c *Cache) Len() int { return c.v.Load().Len() }
