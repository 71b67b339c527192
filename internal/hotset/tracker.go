package hotset

import "sync/atomic"

// Tracker records a sampled stream of accessed keys per worker with no
// cross-worker synchronization: each worker owns a fixed ring it overwrites,
// and the background refresher drains all rings into a CMS + TopK to
// produce the next hot-set candidates.
type Tracker struct {
	sampleEvery uint32
	ringSize    int
	rings       [][]atomic.Uint64 // per-worker sampled keys (key+1; 0 = empty)
	pos         []counterPad
	snapshots   atomic.Uint64

	// Snapshot's scratch, reused so a steady-state refresh makes no garbage.
	top *TopK
	hot []HotKey
}

type counterPad struct {
	n atomic.Uint32
	_ [15]uint32
}

// NewTracker creates a tracker for workers [0, n). Every sampleEvery-th
// recorded access is kept (1 keeps all), in a per-worker ring of ringSize
// samples.
func NewTracker(workers, sampleEvery, ringSize int) *Tracker {
	if workers <= 0 || sampleEvery <= 0 || ringSize <= 0 {
		panic("hotset: NewTracker arguments must be positive")
	}
	t := &Tracker{
		sampleEvery: uint32(sampleEvery),
		ringSize:    ringSize,
		rings:       make([][]atomic.Uint64, workers),
		pos:         make([]counterPad, workers),
		top:         &TopK{index: make(map[uint64]int)},
	}
	for i := range t.rings {
		t.rings[i] = make([]atomic.Uint64, ringSize)
	}
	return t
}

// Record notes that worker w accessed key. It is wait-free and costs one
// increment plus, on sampled accesses, one store.
func (t *Tracker) Record(w int, key uint64) {
	n := t.pos[w].n.Add(1)
	if n%t.sampleEvery != 0 {
		return
	}
	slot := int(n/t.sampleEvery) % t.ringSize
	t.rings[w][slot].Store(key + 1)
}

// Snapshot drains all rings into the sketch and returns the k hottest
// sampled keys. The sketch is reset first, so each snapshot reflects only
// the most recent window of samples. Snapshots must not run concurrently
// with each other (Record may), and the returned slice is the tracker's:
// it is valid until the next Snapshot.
func (t *Tracker) Snapshot(cms *CMS, k int) []HotKey {
	t.snapshots.Add(1)
	cms.Reset()
	top := t.top
	top.Reset(k)
	for w := range t.rings {
		for i := range t.rings[w] {
			v := t.rings[w][i].Load()
			if v == 0 {
				continue
			}
			key := v - 1
			cms.Add(key)
			top.Offer(key, cms.Estimate(key))
		}
	}
	t.hot = top.Hottest(t.hot)
	return t.hot
}

// Snapshots returns how many sketch refreshes have run.
func (t *Tracker) Snapshots() uint64 { return t.snapshots.Load() }
