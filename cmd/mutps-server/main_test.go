package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mutps/internal/kvcore"
)

// TestMetricsMuxServesPprof: the -metrics-addr mux answers the profile
// index and a named profile next to /metrics.
func TestMetricsMuxServesPprof(t *testing.T) {
	store, err := kvcore.Open(kvcore.Config{Engine: kvcore.Hash, Workers: 2, CRWorkers: 1, RefreshInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	mux := metricsMux(store)
	for path, want := range map[string]string{
		"/debug/pprof/":             "goroutine",
		"/debug/pprof/heap?debug=1": "heap profile",
		"/metrics":                  "mutps_arena_live_bytes",
	} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), want) {
			t.Errorf("GET %s: %d, body without %q", path, rec.Code, want)
		}
	}
}

// TestParseSize: sizes parse with their suffix, and a negative size or one
// that overflows int64 is an error instead of a number the store would
// read as "the default".
func TestParseSize(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"", 0, true},
		{"0", 0, true},
		{"512", 512, true},
		{"4k", 4 << 10, true},
		{"64M", 64 << 20, true},
		{"2g", 2 << 30, true},
		{"8589934591G", 8589934591 << 30, true},
		{"9223372036854775807", math.MaxInt64, true},
		{"8589934592G", 0, false},
		{"17179869184G", 0, false},
		{"9223372036854775808", 0, false},
		{"-1", 0, false},
		{"-1M", 0, false},
		{"-0K", 0, true},
		{"M", 0, false},
		{"1.5G", 0, false},
		{"12T", 0, false},
	} {
		got, err := parseSize(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("parseSize(%q) = %d, %v; want %d, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}
