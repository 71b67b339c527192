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
type Engine = kvcore.Engine

// Available engines, matching the paper's two stores.
const (
	// Hash is μTPS-H: a libcuckoo-style concurrent cuckoo hash table.
	// Point queries only.
	Hash = kvcore.Hash
	// Tree is μTPS-T: a concurrent B+-tree (the MassTree role). Point and
	// range queries.
	Tree = kvcore.Tree
)

// Options configures a Store: it is the store's one configuration struct,
// and every field is documented there. Open fills in what an embedder
// leaves zero.
type Options = kvcore.Config

// KV is one scan result entry.
type KV = kvcore.KV

// MaxScanCount is the largest count accepted by Scan; larger requests are
// rejected with an error (the inter-layer request encoding carries scan
// counts in 16 bits).
const MaxScanCount = kvcore.MaxScanCount

// Stats is a snapshot of store counters.
type Stats = kvcore.Stats

// Store is a running μTPS key-value store. The data path (Get, GetInto,
// Put, PutTTL, GetTTL, Delete, Scan, Preload), the controls (Split,
// SetSplit, SetHotItems, RefreshHotSet), Stats and Close are the embedded
// store's own methods; this type adds what only an embedder needs.
type Store struct {
	*kvcore.Store
}

// Open starts a store, reading zero fields as "pick for me": Workers 0 → 4,
// CRWorkers 0 → Workers/4 (at least 1), and HotItems 0 → 4096 — so the
// zero Options serves with the cache-resident layer on and its refresher
// running. This is the one place 0 hot items does not mean "off": pass a
// negative HotItems to open without the hot-set cache. Everything else is
// kvcore.Open's: its defaults, its validation, its refresher.
func Open(o Options) (*Store, error) {
	if o.Workers == 0 {
		o.Workers = 4
	}
	if o.CRWorkers == 0 {
		o.CRWorkers = max(1, o.Workers/4)
	}
	if o.HotItems == 0 {
		o.HotItems = 4096
	}
	s, err := kvcore.Open(o)
	if err != nil {
		return nil, err
	}
	return &Store{s}, nil
}

// ErrClosed is returned by operations issued after (or racing with) Close:
// the request did not execute.
var ErrClosed = rpc.ErrClosed

// ErrBacklogged is returned when the store sheds a request because its
// receive ring stayed full for the whole backpressure budget. The request
// did not execute and may be retried after backing off.
var ErrBacklogged = rpc.ErrBacklogged

// GetBatch fetches several keys with one pipelined round trip: all
// requests are in flight together, so the memory-resident layer can serve
// them with a shared batched index traversal (the paper's batched
// indexing). Results are positional; a key whose send failed (store
// closed or backlogged) reports not-found.
func (st *Store) GetBatch(keys []uint64) (vals [][]byte, found []bool) {
	calls := make([]*rpc.Call, len(keys))
	for i, k := range keys {
		calls[i], _ = st.SendAsync(rpc.Message{Op: workload.OpGet, Key: k})
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
	tn := &kvcore.Tunable{S: st.Store, Window: window, MaxCache: maxHotItems}
	res := tuner.NewController(tn, tuner.ControllerConfig{Rate: st.Ops, Trace: st.Trace()}).Retune()
	nCR, nMR := st.Split()
	return TuneResult{
		CRWorkers: nCR,
		MRWorkers: nMR,
		HotItems:  st.HotItems(),
		OpsPerSec: res.Score,
		Probes:    res.Probes,
	}
}

// WriteMetrics writes every registered metric — per-op throughput and
// latency histograms, CR hit/miss counters, ring and queue health, hot-set
// state — in Prometheus text exposition format.
func (st *Store) WriteMetrics(w io.Writer) error {
	return st.Metrics().WritePrometheus(w)
}

// MetricsHandler returns an http.Handler serving WriteMetrics — mount it
// at /metrics to scrape an embedded store.
func (st *Store) MetricsHandler() http.Handler { return obs.Handler(st.Metrics()) }

// Decision is one reconfiguration event: a manual SetSplit/SetHotItems, a
// tuner trigger, or a completed Autotune, oldest first in Decisions.
// Negative ints mean "not applicable to this event".
type Decision = obs.Decision

// Decisions returns the retained reconfiguration history (a bounded ring;
// older entries are evicted).
func (st *Store) Decisions() []Decision { return st.Trace().Snapshot() }
