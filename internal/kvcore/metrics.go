package kvcore

import (
	"mutps/internal/obs"
	"mutps/internal/workload"
)

// HandoffParksMetric counts sleeps on a hand-off bell by site: "cr" and
// "mr" are worker loops that ran dry, "wait" a Call.Wait that found its
// call pending, "conn" (registered by netserver) a connection's completion
// stage waiting on its window head. Only the sleep path increments it; a
// loop that finds work, or a Ring nobody is armed for, counts nothing.
const (
	HandoffParksMetric = "mutps_handoff_parks_total"
	handoffParksHelp   = "Sleeps on a hand-off bell, by site (cr/mr worker loops, conn completion stages, wait = rpc.Call.Wait)."
)

// opNames renders operation labels in workload.OpType order.
var opNames = [4]string{`op="get"`, `op="put"`, `op="delete"`, `op="scan"`}

// storeMetrics is the store's instrument set. Hot-path instruments are
// sharded per worker (or, at the client-facing facade, by key) so no
// request ever bounces a shared cache line; everything derived from state
// lower layers already keep (ring stalls, queue depth, hot-set epochs) is
// registered as a collection-time func metric instead of being counted
// twice.
type storeMetrics struct {
	reg *obs.Registry

	ops       [4]*obs.Counter // completed operations by op type
	crHit     *obs.Counter    // served entirely at the CR layer
	crMiss    *obs.Counter    // consulted the hot set and missed
	crBypass  *obs.Counter    // never eligible for the hot set (delete/scan)
	forwarded *obs.Counter    // crossed the CR-MR queue
	roleSwap  *obs.Counter    // worker layer transitions (§3.5)

	batchSize *obs.Histogram    // CR→MR requests per flushed batch
	lat       [4]*obs.Histogram // facade-observed latency by op type, ns
	hotVeto   *obs.Counter      // hot-set admissions skipped by the eviction veto

	retired  *obs.Counter // items unlinked and queued for reclamation
	recycled *obs.Counter // retired items whose slots returned to the arena

	// Worker-loop sleeps on the hand-off bell, by role. Exported through
	// CounterFuncs so the family can also carry the sites other layers count
	// (rpc's Wait parks, netserver's completion-stage parks).
	parksCR *obs.Counter
	parksMR *obs.Counter

	// Bounded-memory lifecycle (§13). The spill counters are written only
	// by the evictor goroutine (shard 0); the rest are sharded per worker.
	spills        *obs.Counter // values written to the cold tier by eviction
	spillErrors   *obs.Counter // evictions whose cold write failed (value dropped)
	spillFixups   *obs.Counter // late ≤8-byte writes re-spilled after the grace period
	spilledBytes  *obs.Counter // value bytes spilled
	promotes      *obs.Counter // cold-tier hits promoted back into RAM
	promotedBytes *obs.Counter // value bytes promoted
	coldHits      *obs.Counter // RAM-miss gets served from the cold tier
	coldMisses    *obs.Counter // RAM-miss gets the cold tier missed too
	expired       *obs.Counter // items unlinked by lazy TTL expiry
}

func newStoreMetrics(workers int) *storeMetrics {
	r := obs.NewRegistry()
	m := &storeMetrics{reg: r}
	for op, l := range opNames {
		m.ops[op] = r.Counter("mutps_ops_total", l,
			"Completed operations by type.", workers)
		m.lat[op] = r.Histogram("mutps_op_latency_nanoseconds", l,
			"Request latency observed at the store facade, in nanoseconds.", workers)
	}
	m.crHit = r.Counter("mutps_cr_requests_total", `result="hit"`,
		"Cache-resident layer outcomes: hit = served from the hot set, miss = looked up and forwarded, bypass = op type never served hot (delete/scan).", workers)
	m.crMiss = r.Counter("mutps_cr_requests_total", `result="miss"`, "", workers)
	m.crBypass = r.Counter("mutps_cr_requests_total", `result="bypass"`, "", workers)
	m.forwarded = r.Counter("mutps_forwarded_total", "",
		"Requests forwarded over the CR-MR queue.", workers)
	m.roleSwap = r.Counter("mutps_role_switches_total", "",
		"Worker layer transitions (including each worker's initial role settling).", workers)
	m.batchSize = r.Histogram("mutps_crmr_batch_size", "",
		"Requests per flushed CR-MR batch.", workers)
	m.hotVeto = r.Counter("mutps_hotset_vetoed_total", "",
		"Hot-set admissions skipped because the key was recently evicted.", 1)
	m.retired = r.Counter("mutps_items_retired_total", "",
		"Items unlinked from the index and queued for epoch-based reclamation.", workers)
	m.recycled = r.Counter("mutps_items_recycled_total", "",
		"Retired items whose headers and arena slots have been recycled.", workers)
	m.parksCR = obs.NewCounter(workers)
	m.parksMR = obs.NewCounter(workers)
	m.spills = r.Counter("mutps_cold_spills_total", "",
		"Evicted values written to the cold-tier log.", 1)
	m.spillErrors = r.Counter("mutps_cold_spill_errors_total", "",
		"Evictions whose cold-tier write failed; the value was dropped.", 1)
	m.spillFixups = r.Counter("mutps_cold_spill_fixups_total", "",
		"Late single-word writes re-spilled after the eviction grace period.", 1)
	m.spilledBytes = r.Counter("mutps_cold_spilled_bytes_total", "",
		"Value bytes spilled to the cold tier by eviction.", 1)
	m.promotes = r.Counter("mutps_cold_promotes_total", "",
		"Cold-tier hits promoted back into the in-memory index.", workers)
	m.promotedBytes = r.Counter("mutps_cold_promoted_bytes_total", "",
		"Value bytes promoted back into the in-memory index.", workers)
	m.coldHits = r.Counter("mutps_cold_gets_total", `result="hit"`,
		"RAM-miss gets that consulted the cold tier, by outcome.", workers)
	m.coldMisses = r.Counter("mutps_cold_gets_total", `result="miss"`, "", workers)
	m.expired = r.Counter("mutps_expired_total", "",
		"Items unlinked by lazy TTL expiry on the read path.", workers)
	return m
}

// opsTotal merges the per-op completion counters — the monotonic feedback
// signal the auto-tuner's monitor differentiates.
func (m *storeMetrics) opsTotal() uint64 {
	var t uint64
	for _, c := range m.ops {
		t += c.Value()
	}
	return t
}

// registerDerived exposes the state lower layers already track — receive
// ring, CR-MR queue, hot set, index — as collection-time func metrics.
// Called once from Open, after every substructure exists.
func (s *Store) registerDerived() {
	r := s.met.reg
	r.GaugeFunc("mutps_rx_queue_depth", "",
		"Receive-ring occupancy (published requests not yet consumed).",
		func() float64 { return float64(s.rpc.Depth()) })
	r.CounterFunc("mutps_reconfigurations_total", "",
		"RPC schedule changes applied by thread reassignment.",
		func() float64 { return float64(s.rpc.Reconfigurations()) })
	r.CounterFunc("mutps_rpc_backlogged_total", "",
		"Sends rejected with ErrBacklogged because the receive ring stayed full for the whole backpressure budget.",
		func() float64 { return float64(s.rpc.Backlogged()) })
	r.CounterFunc("mutps_ring_push_stalls_total", "",
		"CR-MR pushes that found the target ring full.",
		func() float64 {
			var t uint64
			for _, p := range s.crp {
				t += p.prod.Stalls()
			}
			return float64(t)
		})
	r.CounterFunc("mutps_ring_pop_stalls_total", "",
		"CR-MR polls that found every scanned ring empty.",
		func() float64 {
			var t uint64
			for _, c := range s.mrcons {
				t += c.EmptyPolls()
			}
			return float64(t)
		})
	for _, site := range []struct {
		label string
		parks func() uint64
	}{
		{`site="cr"`, s.met.parksCR.Value},
		{`site="mr"`, s.met.parksMR.Value},
		{`site="wait"`, s.rpc.WaitParks},
	} {
		r.CounterFunc(HandoffParksMetric, site.label, handoffParksHelp,
			func() float64 { return float64(site.parks()) })
	}
	r.GaugeFunc("mutps_crmr_occupancy", "",
		"Batches published to the CR-MR queue and not yet committed.",
		func() float64 { return float64(s.crmr.Occupancy()) })
	r.CounterFunc("mutps_hotset_installs_total", "",
		"Hot-set view epoch switches (atomic view installs).",
		func() float64 { return float64(s.cache.Installs()) })
	r.CounterFunc("mutps_hotset_refreshes_total", "",
		"Tracker sketch refreshes (CMS + top-k snapshots).",
		func() float64 { return float64(s.tracker.Snapshots()) })
	r.GaugeFunc("mutps_hotset_size", "",
		"Entries in the current hot-set view.",
		func() float64 { return float64(s.cache.Len()) })
	r.GaugeFunc("mutps_hotset_hit_ratio", "",
		"CR hits over hot-set-eligible requests (gets and puts).",
		func() float64 {
			hit := float64(s.met.crHit.Value())
			total := hit + float64(s.met.crMiss.Value())
			if total == 0 {
				return 0
			}
			return hit / total
		})
	r.GaugeFunc("mutps_items", "",
		"Items in the main index.",
		func() float64 { return float64(s.idx.Len()) })
	r.GaugeFunc("mutps_workers", `layer="cr"`,
		"Workers currently assigned per layer.",
		func() float64 { return float64(s.nCR.Load()) })
	r.GaugeFunc("mutps_workers", `layer="mr"`,
		"", func() float64 { return float64(s.cfg.Workers - int(s.nCR.Load())) })
	r.GaugeFunc("mutps_items_retired_pending", "",
		"Items retired and not yet past their reclamation grace periods.",
		func() float64 { return float64(s.retiredPend.Load()) })
	s.arena.Instrument(r)
	if s.cold != nil {
		r.GaugeFunc("mutps_cold_hit_ratio", "",
			"Cold-tier hits over RAM-miss gets that consulted the cold tier.",
			func() float64 {
				hit := float64(s.met.coldHits.Value())
				total := hit + float64(s.met.coldMisses.Value())
				if total == 0 {
					return 0
				}
				return hit / total
			})
	}
}

// Metrics returns the store's metric registry, ready to mount behind
// obs.Handler on a /metrics endpoint or to flatten into the netserver
// stats payload.
func (s *Store) Metrics() *obs.Registry { return s.met.reg }

// Trace returns the store's decision trace: every SetSplit/SetHotItems
// reconfiguration and every tuner trigger/retune outcome lands here.
func (s *Store) Trace() *obs.DecisionTrace { return s.trace }

// opIndex clamps an op type into the metrics arrays.
func opIndex(op workload.OpType) int {
	if int(op) >= len(opNames) {
		return len(opNames) - 1
	}
	return int(op)
}
