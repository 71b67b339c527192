package netserver

import (
	"testing"

	"mutps/internal/kvcore"
	"mutps/internal/obs"
)

// TestStatsMapAgainstNewServer checks that the stats2 payload carries the
// five stable counters plus the metric registry's samples.
func TestStatsMapAgainstNewServer(t *testing.T) {
	if obs.Disabled {
		t.Skip("reads the store's op counter")
	}
	_, cli := startServer(t, kvcore.Hash)
	for i := uint64(0); i < 100; i++ {
		if err := cli.Put(i, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 100; i++ {
		if _, _, err := cli.Get(i); err != nil {
			t.Fatal(err)
		}
	}

	m, err := cli.StatsMap()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range stableStatNames {
		if _, ok := m[k]; !ok {
			t.Fatalf("stats2 missing stable key %q; got %d keys", k, len(m))
		}
	}
	if m["ops"] < 200 {
		t.Fatalf("ops = %v, want >= 200", m["ops"])
	}
	if m["items"] != 100 {
		t.Fatalf("items = %v, want 100", m["items"])
	}

	// Registry samples ride along: completed-op counters and the
	// network-layer latency series the server itself registered.
	if m[`mutps_ops_total{op="get"}`] < 100 {
		t.Fatalf(`mutps_ops_total{op="get"} = %v, want >= 100`, m[`mutps_ops_total{op="get"}`])
	}
	if m[`mutps_net_op_latency_nanoseconds_count{op="put"}`] != 100 {
		t.Fatalf("net put latency count = %v, want 100",
			m[`mutps_net_op_latency_nanoseconds_count{op="put"}`])
	}
	if m[`mutps_net_connections`] < 1 {
		t.Fatalf("connections gauge = %v, want >= 1", m[`mutps_net_connections`])
	}
}

// TestStats2Decode sanity-checks the payload codec on adversarial inputs.
func TestStats2Decode(t *testing.T) {
	if _, err := decodeStats2(nil); err == nil {
		t.Fatal("nil payload must fail")
	}
	if _, err := decodeStats2([]byte{1, 0, 0, 0}); err == nil {
		t.Fatal("truncated entry must fail")
	}
	if _, err := decodeStats2([]byte{1, 0, 0, 0, 5, 0, 'a'}); err == nil {
		t.Fatal("short name must fail")
	}
}
