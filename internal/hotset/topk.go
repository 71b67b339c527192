package hotset

import (
	"cmp"
	"slices"
)

// HotKey is a key with its estimated access count.
type HotKey struct {
	Key   uint64
	Count uint32
}

// TopK keeps the k keys with the largest counts using a min-heap plus a
// membership map, as the paper's hot-set refresher does.
type TopK struct {
	k     int
	heap  []HotKey       // min-heap by Count
	index map[uint64]int // key → heap position
}

// NewTopK creates a tracker for the k hottest keys; k must be positive.
func NewTopK(k int) *TopK {
	t := &TopK{index: make(map[uint64]int)}
	t.Reset(k)
	return t
}

// Reset empties the tracker and sets its capacity to k (positive), keeping
// the heap's and the index's storage for reuse.
func (t *TopK) Reset(k int) {
	if k <= 0 {
		panic("hotset: TopK needs k > 0")
	}
	t.k = k
	t.heap = t.heap[:0]
	clear(t.index)
}

// Len returns the number of tracked keys (≤ k).
func (t *TopK) Len() int { return len(t.heap) }

// Min returns the smallest tracked count (0 when not yet full).
func (t *TopK) Min() uint32 {
	if len(t.heap) < t.k {
		return 0
	}
	return t.heap[0].Count
}

// Offer considers key with the given count estimate.
func (t *TopK) Offer(key uint64, count uint32) {
	if i, ok := t.index[key]; ok {
		if count > t.heap[i].Count {
			t.heap[i].Count = count
			t.siftDown(i)
		}
		return
	}
	if len(t.heap) < t.k {
		t.heap = append(t.heap, HotKey{key, count})
		t.index[key] = len(t.heap) - 1
		t.siftUp(len(t.heap) - 1)
		return
	}
	if count <= t.heap[0].Count {
		return
	}
	delete(t.index, t.heap[0].Key)
	t.heap[0] = HotKey{key, count}
	t.index[key] = 0
	t.siftDown(0)
}

func (t *TopK) less(i, j int) bool { return t.heap[i].Count < t.heap[j].Count }

func (t *TopK) swap(i, j int) {
	t.heap[i], t.heap[j] = t.heap[j], t.heap[i]
	t.index[t.heap[i].Key] = i
	t.index[t.heap[j].Key] = j
}

func (t *TopK) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !t.less(i, p) {
			return
		}
		t.swap(i, p)
		i = p
	}
}

func (t *TopK) siftDown(i int) {
	n := len(t.heap)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && t.less(l, min) {
			min = l
		}
		if r < n && t.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		t.swap(i, min)
		i = min
	}
}

// Hottest returns the tracked keys sorted by descending count (ties broken
// by key for determinism), in dst's storage when it is large enough.
func (t *TopK) Hottest(dst []HotKey) []HotKey {
	out := append(dst[:0], t.heap...)
	slices.SortFunc(out, func(a, b HotKey) int {
		if c := cmp.Compare(b.Count, a.Count); c != 0 {
			return c
		}
		return cmp.Compare(a.Key, b.Key)
	})
	return out
}
