package main

import (
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
