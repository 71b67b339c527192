// Package kvcore is the real (non-simulated) μTPS key-value store: the
// paper's two-layer thread architecture running on goroutine workers. The
// cache-resident layer polls the reconfigurable RPC ring, serves hot items
// from the hot-set view, and forwards misses over the CR-MR queue; the
// memory-resident layer owns the full index (libcuckoo-style hash table for
// μTPS-H, B+-tree for μTPS-T) and the item records, processing forwarded
// requests in batches. An auto-tunable manager reassigns workers between
// the layers and refreshes the hot set without stopping request processing.
package kvcore

import (
	"mutps/internal/btree"
	"mutps/internal/cuckoo"
	"mutps/internal/seqitem"
)

// Engine selects the full-index structure.
type Engine int

// Available engines, matching the paper's two stores.
const (
	Hash Engine = iota // μTPS-H: cuckoo hash, point queries only
	Tree               // μTPS-T: B+-tree, point and range queries
)

func (e Engine) String() string {
	if e == Hash {
		return "hash"
	}
	return "tree"
}

// Index is the memory-resident layer's view of the full index, mapping
// keys to shared item records.
type Index interface {
	Get(key uint64) (*seqitem.Item, bool)
	Put(key uint64, it *seqitem.Item)
	Delete(key uint64) bool
	Len() int
}

// RangeIndex additionally supports ordered scans (tree engines).
type RangeIndex interface {
	Index
	Scan(start uint64, count int, f func(key uint64, it *seqitem.Item) bool) int
}

// BatchIndex is implemented by indexes that can serve several lookups in
// one shared traversal — the real-execution counterpart of the paper's
// batched indexing at the memory-resident layer.
type BatchIndex interface {
	GetBatch(keys []uint64, vals []*seqitem.Item, found []bool) ([]*seqitem.Item, []bool)
}

// newHashIndex is μTPS-H's index: the cuckoo map itself. Its buckets
// hold item pointers inline, so a same-key replacement is one atomic
// store into the key's slot and allocates nothing, and its Range (which
// WalkItems finds by assertion) reads each bucket consistently.
func newHashIndex(capacityHint int) Index {
	return cuckoo.New[*seqitem.Item](capacityHint)
}

type treeIndex struct {
	t *btree.Tree[*seqitem.Item]
}

func newTreeIndex() RangeIndex {
	return &treeIndex{t: btree.New[*seqitem.Item]()}
}

func (x *treeIndex) Get(key uint64) (*seqitem.Item, bool) { return x.t.Get(key) }
func (x *treeIndex) Put(key uint64, it *seqitem.Item)     { x.t.Put(key, it) }
func (x *treeIndex) Delete(key uint64) bool               { return x.t.Delete(key) }
func (x *treeIndex) Len() int                             { return x.t.Len() }

func (x *treeIndex) Scan(start uint64, count int, f func(uint64, *seqitem.Item) bool) int {
	return x.t.Scan(start, count, f)
}

func (x *treeIndex) GetBatch(keys []uint64, vals []*seqitem.Item, found []bool) ([]*seqitem.Item, []bool) {
	return x.t.GetBatch(keys, vals, found)
}
