package kvcore

import (
	"strings"
	"testing"
	"time"

	"mutps/internal/obs"
)

// TestStoreMetricsMoveWithTraffic drives every op type through a live
// store and checks the instruments it is wired to actually move: per-op
// counters, CR hit/miss classification, latency and batch-size histograms,
// and the derived gauges registered at Open.
func TestStoreMetricsMoveWithTraffic(t *testing.T) {
	s := openAllocStore(t, 64)
	preloadKeys(s, 64)

	// Warm key 3 into the hot set so both CR outcomes occur.
	for i := 0; i < 512; i++ {
		s.Get(3)
	}
	if s.RefreshHotSet() == 0 {
		t.Fatal("hot set empty after warm-up")
	}
	for i := 0; i < 100; i++ {
		s.Get(3)                      // CR hits
		s.Get(uint64(40 + i%20))      // CR misses, forwarded
		s.Put(uint64(i), []byte("x")) // puts
	}
	s.Delete(63)

	m := s.Metrics().SnapshotMap()
	if m[`mutps_ops_total{op="get"}`] < 200 {
		t.Fatalf("get counter = %v, want >= 200", m[`mutps_ops_total{op="get"}`])
	}
	if m[`mutps_ops_total{op="put"}`] < 100 {
		t.Fatalf("put counter = %v, want >= 100", m[`mutps_ops_total{op="put"}`])
	}
	if m[`mutps_ops_total{op="delete"}`] != 1 {
		t.Fatalf("delete counter = %v, want 1", m[`mutps_ops_total{op="delete"}`])
	}
	if m[`mutps_cr_requests_total{result="hit"}`] == 0 {
		t.Fatal("no CR hits recorded")
	}
	if m[`mutps_cr_requests_total{result="miss"}`] == 0 {
		t.Fatal("no CR misses recorded")
	}
	if m[`mutps_cr_requests_total{result="bypass"}`] == 0 {
		t.Fatal("delete did not count as a CR bypass")
	}
	if m[`mutps_forwarded_total`] == 0 {
		t.Fatal("no forwards recorded")
	}
	if m[`mutps_op_latency_nanoseconds_count{op="get"}`] < 200 {
		t.Fatalf("get latency samples = %v, want >= 200",
			m[`mutps_op_latency_nanoseconds_count{op="get"}`])
	}
	if m[`mutps_op_latency_nanoseconds_p50{op="get"}`] == 0 {
		t.Fatal("get latency p50 is zero")
	}
	if m[`mutps_crmr_batch_size_count`] == 0 {
		t.Fatal("no CR→MR batches recorded")
	}
	if m[`mutps_items`] == 0 || m[`mutps_hotset_size`] == 0 {
		t.Fatalf("derived gauges empty: items=%v hot=%v", m[`mutps_items`], m[`mutps_hotset_size`])
	}
	ratio := m[`mutps_hotset_hit_ratio`]
	if ratio <= 0 || ratio >= 1 {
		t.Fatalf("hit ratio = %v, want in (0, 1)", ratio)
	}
	if m[`mutps_workers{layer="cr"}`]+m[`mutps_workers{layer="mr"}`] != 3 {
		t.Fatalf("worker gauges do not sum to the pool: cr=%v mr=%v",
			m[`mutps_workers{layer="cr"}`], m[`mutps_workers{layer="mr"}`])
	}
	if v, ok := m[`mutps_rpc_backlogged_total`]; !ok || v != 0 {
		t.Fatalf("backpressure counter = %v, %v; want registered and 0 without overload", v, ok)
	}

	// Stats() is now derived from the same instruments.
	st := s.Stats()
	if float64(st.Ops) != m[`mutps_ops_total{op="get"}`]+m[`mutps_ops_total{op="put"}`]+
		m[`mutps_ops_total{op="delete"}`]+m[`mutps_ops_total{op="scan"}`] {
		t.Fatalf("Stats.Ops %d disagrees with per-op counters", st.Ops)
	}
}

// TestReconfigurationDecisionsTraced checks SetSplit and SetHotItems land
// in the decision trace with before/after configuration.
func TestReconfigurationDecisionsTraced(t *testing.T) {
	s := openAllocStore(t, 64)
	if err := s.SetSplit(2); err != nil {
		t.Fatal(err)
	}
	s.SetHotItems(128)
	s.SetHotItems(128) // unchanged target: no decision

	ds := s.Trace().Snapshot()
	if len(ds) != 2 {
		t.Fatalf("trace has %d decisions, want 2: %+v", len(ds), ds)
	}
	if ds[0].Event != "split" || ds[0].OldSplit != 1 || ds[0].NewSplit != 2 {
		t.Fatalf("split decision = %+v", ds[0])
	}
	if ds[1].Event != "cache" || ds[1].OldCache != 64 || ds[1].NewCache != 128 {
		t.Fatalf("cache decision = %+v", ds[1])
	}

	// The split must also show up in the reconfiguration counter and the
	// layer gauges.
	m := s.Metrics().SnapshotMap()
	if m[`mutps_reconfigurations_total`] == 0 {
		t.Fatal("reconfiguration counter did not move")
	}
	if m[`mutps_workers{layer="cr"}`] != 2 {
		t.Fatalf("cr worker gauge = %v, want 2", m[`mutps_workers{layer="cr"}`])
	}
}

// TestMetricsPrometheusExport smoke-checks the store registry renders as
// Prometheus text with the expected families present.
func TestMetricsPrometheusExport(t *testing.T) {
	s := openAllocStore(t, 64)
	preloadKeys(s, 8)
	for i := uint64(0); i < 8; i++ {
		s.Get(i)
	}
	var sb strings.Builder
	if err := s.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE mutps_ops_total counter",
		"# TYPE mutps_op_latency_nanoseconds histogram",
		`mutps_op_latency_nanoseconds_bucket{op="get",le="+Inf"}`,
		"# TYPE mutps_rx_queue_depth gauge",
		"mutps_items 8",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestRoleSwitchCounter checks layer transitions are counted: beyond the
// initial role settling, a SetSplit that moves a worker adds switches.
func TestRoleSwitchCounter(t *testing.T) {
	s := openAllocStore(t, 0)
	base := s.met.roleSwap.Value()
	if err := s.SetSplit(2); err != nil {
		t.Fatal(err)
	}
	// The promoted worker leaves runMR and enters runCR; give it a moment
	// (in wall time: a count of gets shrinks as gets get faster).
	if !waitUntil(time.Second, func() bool {
		s.Get(1) // keep the loop honest under -race
		return s.met.roleSwap.Value() != base
	}) {
		t.Fatal("role-switch counter did not move after SetSplit")
	}
}

// TestDisabledConstWiredIntoStore documents the obs_off contract: in the
// default build Disabled is false and instruments record.
func TestDisabledConstWiredIntoStore(t *testing.T) {
	if obs.Disabled {
		t.Skip("obs_off build: instruments intentionally inert")
	}
	s := openAllocStore(t, 0)
	s.Put(1, []byte("v"))
	if s.met.opsTotal() == 0 {
		t.Fatal("ops counter inert in the default build")
	}
}
