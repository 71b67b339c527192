package netserver

import (
	"strings"
	"testing"

	"mutps/internal/kvcore"
	"mutps/internal/obs"
)

// TestStatsMapAgainstNewServer checks that the stats2 payload carries the
// metric registry's samples under their series names: the store's
// headline counters, and the network-layer series the server registered.
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
	for _, k := range []string{`mutps_cr_requests_total{result="hit"}`, "mutps_forwarded_total", "mutps_items", "mutps_hotset_size"} {
		if _, ok := m[k]; !ok {
			t.Fatalf("stats2 missing %q; got %d keys", k, len(m))
		}
	}
	if n := opsTotal(m); n < 200 {
		t.Fatalf("mutps_ops_total summed over op = %v, want >= 200", n)
	}
	if m["mutps_items"] != 100 {
		t.Fatalf("mutps_items = %v, want 100", m["mutps_items"])
	}

	// The network-layer latency series the server itself registered.
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

// opsTotal sums mutps_ops_total over its op label: the store's completed
// operations.
func opsTotal(m map[string]float64) float64 {
	n := 0.0
	for k, v := range m {
		if strings.HasPrefix(k, "mutps_ops_total{") {
			n += v
		}
	}
	return n
}
