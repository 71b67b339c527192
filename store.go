// Package mutps is a Go implementation of μTPS (SOSP 2025), a thread
// architecture for in-memory key-value stores that splits request
// processing into a cache-resident layer (request polling, hot-item
// serving) and a memory-resident layer (full index and data), connected by
// lock-free all-to-all rings, with reconfigurable RPC, a resizable hot-set
// cache, and an auto-tuner.
//
// The package exposes two artifacts:
//
//   - a real, runnable key-value store (Open) built on goroutine worker
//     pools arranged exactly as the paper describes — μTPS-H over a
//     concurrent cuckoo hash table, μTPS-T over a concurrent B+-tree;
//   - a deterministic evaluation substrate (internal/simkv, internal/bench,
//     cmd/mutps-bench) that regenerates every table and figure of the
//     paper's evaluation on a simulated cache hierarchy.
package mutps

import (
	"io"
	"net/http"
	"time"

	"mutps/internal/kvcore"
	"mutps/internal/obs"
	"mutps/internal/rpc"
	"mutps/internal/tuner"
	"mutps/internal/workload"
)

// Engine selects the index structure.
type Engine int

// Available engines, matching the paper's two stores.
const (
	// Hash is μTPS-H: a libcuckoo-style concurrent cuckoo hash table.
	// Point queries only.
	Hash Engine = iota
	// Tree is μTPS-T: a concurrent B+-tree (the MassTree role). Point and
	// range queries.
	Tree
)

// Options configures a Store. The zero value of every optional field takes
// a sensible default.
type Options struct {
	// Engine selects μTPS-H (Hash, default) or μTPS-T (Tree).
	Engine Engine
	// Workers is the total worker-goroutine count (default 4, minimum 2:
	// at least one per layer).
	Workers int
	// CRWorkers is the initial cache-resident layer size (default
	// Workers/4, at least 1). Adjust at runtime with SetSplit.
	CRWorkers int
	// HotItems is the hot-set cache target (default 4096; 0 disables the
	// cache-resident hot path).
	HotItems int
	// BatchSize is the CR-MR queue batch (default 8, max 32).
	BatchSize int
	// RefreshInterval is the hot-set refresh period (default 100ms; set
	// negative to disable the background refresher and drive
	// RefreshHotSet manually).
	RefreshInterval time.Duration
	// CapacityHint pre-sizes the hash index.
	CapacityHint int
	// ArenaOff disables the size-classed slab arena: item records and
	// their value words come from the Go allocator instead, as they did
	// before the arena existed. Escape hatch for debugging (heap profiles
	// attribute values to call sites again) and for A/B measurement.
	ArenaOff bool
	// ArenaChunk is the backing-slab chunk size in bytes per size class
	// (default 256 KiB). Larger chunks amortize carving further at the
	// cost of coarser reservation granularity.
	ArenaChunk int

	// MemoryBudget caps arena live bytes: when crossed, a background
	// evictor unlinks the coldest items (by hot-set sketch estimate) until
	// occupancy falls to EvictLowWater of the budget. 0 disables eviction.
	// Requires the arena (incompatible with ArenaOff).
	MemoryBudget int64
	// EvictLowWater is the fraction of MemoryBudget an eviction pass
	// drains to (default 0.9).
	EvictLowWater float64
	// EvictInterval is the evictor's polling period (default 5ms);
	// allocation pressure wakes it early.
	EvictInterval time.Duration
	// ColdDir, when set, attaches an SSD-backed cold tier at that
	// directory: evicted values spill to an append-only log and gets
	// missing RAM are served from it (and promoted back).
	ColdDir string
	// ColdSegmentBytes is the cold log's segment size (default 64 MiB).
	ColdSegmentBytes int64
	// DefaultTTL, when positive, applies to every put that does not carry
	// its own TTL. 0 means items never expire by default.
	DefaultTTL time.Duration
}

// KV is one scan result entry.
type KV struct {
	Key   uint64
	Value []byte
}

// MaxScanCount is the largest count accepted by Scan; larger requests are
// rejected with an error (the inter-layer request encoding carries scan
// counts in 16 bits).
const MaxScanCount = kvcore.MaxScanCount

// Stats is a snapshot of store counters.
type Stats struct {
	Ops       uint64 // completed operations
	CRHits    uint64 // served entirely at the cache-resident layer
	Forwarded uint64 // forwarded over the CR-MR queue
	Items     int    // indexed items
	HotSize   int    // current hot-set view size
}

// Store is a running μTPS key-value store.
type Store struct {
	s *kvcore.Store
}

// Open starts a store with the given options.
func Open(o Options) (*Store, error) {
	if o.Workers == 0 {
		o.Workers = 4
	}
	if o.CRWorkers == 0 {
		o.CRWorkers = o.Workers / 4
		if o.CRWorkers < 1 {
			o.CRWorkers = 1
		}
	}
	if o.HotItems == 0 {
		o.HotItems = 4096
	}
	engine := kvcore.Hash
	if o.Engine == Tree {
		engine = kvcore.Tree
	}
	s, err := kvcore.Open(kvcore.Config{
		Engine:       engine,
		Workers:      o.Workers,
		CRWorkers:    o.CRWorkers,
		BatchSize:    o.BatchSize,
		HotItems:     o.HotItems,
		CapacityHint: o.CapacityHint,
		ArenaOff:     o.ArenaOff,
		ArenaChunk:   o.ArenaChunk,

		MemoryBudget:     o.MemoryBudget,
		EvictLowWater:    o.EvictLowWater,
		EvictInterval:    o.EvictInterval,
		ColdDir:          o.ColdDir,
		ColdSegmentBytes: o.ColdSegmentBytes,
		DefaultTTL:       o.DefaultTTL,
	})
	if err != nil {
		return nil, err
	}
	st := &Store{s: s}
	if o.RefreshInterval >= 0 && o.HotItems > 0 {
		iv := o.RefreshInterval
		if iv == 0 {
			iv = 100 * time.Millisecond
		}
		s.StartRefresher(iv)
	}
	return st, nil
}

// ErrClosed is returned by operations issued after (or racing with) Close:
// the request did not execute.
var ErrClosed = rpc.ErrClosed

// ErrBacklogged is returned when the store sheds a request because its
// receive ring stayed full for the whole backpressure budget. The request
// did not execute and may be retried after backing off.
var ErrBacklogged = rpc.ErrBacklogged

// Close drains and stops the store; it is idempotent and safe to call
// under concurrent load. Requests accepted before Close complete normally;
// concurrent and later requests fail with ErrClosed — no caller is ever
// left hanging.
func (st *Store) Close() { st.s.Close() }

// Get fetches the value stored under key. The returned slice is freshly
// allocated; use GetInto on hot paths to reuse a caller-owned buffer.
func (st *Store) Get(key uint64) ([]byte, bool, error) { return st.s.Get(key) }

// GetInto fetches the value stored under key, appending it into buf[:0].
// When buf has enough capacity the returned value aliases it and the
// request completes without allocating; otherwise a fresh slice is
// returned. On a miss (and on error) it returns buf[:0] and false. buf
// must not be touched while the request is in flight, and the typical
// calling pattern reuses the returned slice:
//
//	buf, _, _ = st.GetInto(key, buf)
func (st *Store) GetInto(key uint64, buf []byte) ([]byte, bool, error) {
	return st.s.GetInto(key, buf)
}

// Put stores val under key. The value bytes are copied into the store
// before Put returns, so the caller may immediately reuse val. A non-nil
// error (ErrClosed, ErrBacklogged) means the put did not execute.
func (st *Store) Put(key uint64, val []byte) error { return st.s.Put(key, val) }

// PutTTL stores val under key with a per-item TTL; ttl <= 0 selects
// Options.DefaultTTL (and "never" when that is unset too). After the
// deadline the key reads as missing on every path and its memory is
// reclaimed lazily.
func (st *Store) PutTTL(key uint64, val []byte, ttl time.Duration) error {
	return st.s.PutTTL(key, val, ttl)
}

// GetTTL fetches the value for key together with its remaining TTL
// (0 = no expiry set). Expired keys report found=false.
func (st *Store) GetTTL(key uint64) (val []byte, ttl time.Duration, found bool, err error) {
	return st.s.GetTTL(key)
}

// Delete removes key, reporting whether it existed.
func (st *Store) Delete(key uint64) (bool, error) { return st.s.Delete(key) }

// GetBatch fetches several keys with one pipelined round trip: all
// requests are in flight together, so the memory-resident layer can serve
// them with a shared batched index traversal (the paper's batched
// indexing). Results are positional; a key whose send failed (store
// closed or backlogged) reports not-found.
func (st *Store) GetBatch(keys []uint64) (vals [][]byte, found []bool) {
	calls := make([]*rpc.Call, len(keys))
	for i, k := range keys {
		calls[i], _ = st.s.SendAsync(rpc.Message{Op: workload.OpGet, Key: k})
	}
	vals = make([][]byte, len(keys))
	found = make([]bool, len(keys))
	for i, c := range calls {
		if c == nil {
			continue
		}
		c.Wait()
		if c.Err == nil {
			vals[i], found[i] = c.Value, c.Found
		}
		c.Release() // values are freshly allocated, safe to keep past release
	}
	return vals, found
}

// Scan returns up to count entries with keys >= start in ascending order.
// Requires the Tree engine and count ≤ MaxScanCount.
func (st *Store) Scan(start uint64, count int) ([]KV, error) {
	kvs, err := st.s.Scan(start, count)
	if err != nil {
		return nil, err
	}
	out := make([]KV, len(kvs))
	for i, kv := range kvs {
		out[i] = KV{Key: kv.Key, Value: kv.Value}
	}
	return out, nil
}

// Preload inserts directly into the index, bypassing the RPC path; use it
// for bulk population before serving.
func (st *Store) Preload(key uint64, val []byte) {
	v := make([]byte, len(val))
	copy(v, val)
	st.s.Preload(key, v)
}

// Split returns the current (cache-resident, memory-resident) worker
// allocation.
func (st *Store) Split() (nCR, nMR int) { return st.s.Split() }

// SetSplit reassigns workers between the layers without blocking request
// processing (§3.5's thread-reassignment protocol).
func (st *Store) SetSplit(nCR int) error { return st.s.SetSplit(nCR) }

// SetHotItems adjusts the hot-set cache target; it takes effect at the
// next refresh.
func (st *Store) SetHotItems(k int) { st.s.SetHotItems(k) }

// RefreshHotSet rebuilds the hot-set view immediately and returns the
// number of cached entries.
func (st *Store) RefreshHotSet() int { return st.s.RefreshHotSet() }

// TuneResult reports an Autotune run.
type TuneResult struct {
	CRWorkers int     // chosen cache-resident worker count
	MRWorkers int     // chosen memory-resident worker count
	HotItems  int     // chosen hot-set target
	OpsPerSec float64 // throughput at the chosen configuration
	Probes    int     // measurement windows spent searching
}

// Autotune runs the paper's hierarchical auto-tuner against the live store:
// it explores worker splits (trisection) and hot-set sizes (linear probe),
// measuring each candidate for the given window while the store keeps
// serving, and leaves the best configuration applied — or the incumbent,
// when no candidate beats it by the controller's 5% minimum gain. Call it
// under representative load; with no traffic every configuration measures
// zero and the result is arbitrary.
func (st *Store) Autotune(window time.Duration, maxHotItems int) TuneResult {
	tn := &kvcore.Tunable{S: st.s, Window: window, MaxCache: maxHotItems}
	res := tuner.NewController(tn, tuner.ControllerConfig{Rate: st.s.Ops, Trace: st.s.Trace()}).Retune()
	nCR, nMR := st.s.Split()
	return TuneResult{
		CRWorkers: nCR,
		MRWorkers: nMR,
		HotItems:  st.s.HotItems(),
		OpsPerSec: res.Score,
		Probes:    res.Probes,
	}
}

// Stats returns a snapshot of the store's counters.
func (st *Store) Stats() Stats {
	s := st.s.Stats()
	return Stats{
		Ops:       s.Ops,
		CRHits:    s.CRHits,
		Forwarded: s.Forwarded,
		Items:     s.Items,
		HotSize:   s.HotSize,
	}
}

// WriteMetrics writes every registered metric — per-op throughput and
// latency histograms, CR hit/miss counters, ring and queue health, hot-set
// state — in Prometheus text exposition format.
func (st *Store) WriteMetrics(w io.Writer) error {
	return st.s.Metrics().WritePrometheus(w)
}

// MetricsHandler returns an http.Handler serving WriteMetrics — mount it
// at /metrics to scrape an embedded store.
func (st *Store) MetricsHandler() http.Handler { return obs.Handler(st.s.Metrics()) }

// Decision is one reconfiguration event: a manual SetSplit/SetHotItems, a
// tuner trigger, or a completed Autotune, oldest first in Decisions.
// Negative ints mean "not applicable to this event".
type Decision = obs.Decision

// Decisions returns the retained reconfiguration history (a bounded ring;
// older entries are evicted).
func (st *Store) Decisions() []Decision { return st.s.Trace().Snapshot() }
