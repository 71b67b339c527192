package main

import (
	"fmt"
	"maps"
	"path/filepath"
	"strings"
	"time"
)

// traceEvery is the client-span sampling interval of a traced run.
const traceEvery = 64

// sumPrefix adds up every series of a family, whatever its labels.
func sumPrefix(stats map[string]float64, family string) float64 {
	var t float64
	for name, v := range stats {
		if name == family || strings.HasPrefix(name, family+"{") {
			t += v
		}
	}
	return t
}

// counterMetrics derives the S-column metrics of the README's table from
// the two snapshots that bracket a measured window.
func counterMetrics(m measurement, meanRTTUs float64) map[string]metric {
	d := func(family string) float64 {
		return sumPrefix(m.after.stats, family) - sumPrefix(m.before.stats, family)
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	ops := d("mutps_net_ops_retired_total")
	netOpUs := ratio(d("mutps_net_op_latency_nanoseconds_sum"), d("mutps_net_op_latency_nanoseconds_count")) / 1e3
	crReqs := d("mutps_cr_requests_total")
	hits := d(`mutps_cr_requests_total{result="hit"}`)
	misses := d(`mutps_cr_requests_total{result="miss"}`)
	return map[string]metric{
		"net_op_us":               {netOpUs, "us"},
		"resp_per_flush":          {ratio(d("mutps_net_flush_coalesce_sum"), d("mutps_net_flush_coalesce_count")), "count"},
		"client_side_us":          {meanRTTUs - netOpUs, "us"},
		"rx_queue_depth":          {m.after.stats["mutps_rx_queue_depth"], "count"},
		"rpc_backlogged":          {d("mutps_rpc_backlogged_total"), "count"},
		"cr_served_ratio":         {1 - ratio(d("mutps_forwarded_total"), crReqs), "ratio"},
		"hotset_hit_ratio":        {ratio(hits, hits+misses), "ratio"},
		"crmr_batch_size":         {ratio(d("mutps_crmr_batch_size_sum"), d("mutps_crmr_batch_size_count")), "count"},
		"ring_push_stalls_per_op": {ratio(d("mutps_ring_push_stalls_total"), ops), "1/op"},
		"ring_pop_stalls_per_op":  {ratio(d("mutps_ring_pop_stalls_total"), ops), "1/op"},
		"items_retired_per_op":    {ratio(d("mutps_items_retired_total"), ops), "1/op"},
		"items_recycled_per_op":   {ratio(d("mutps_items_recycled_total"), ops), "1/op"},
		"items_retired_pending":   {m.after.stats["mutps_items_retired_pending"], "count"},
		"arena_fallbacks":         {d("mutps_arena_fallbacks_total"), "count"},
		"gc_cycles":               {d("mutps_go_gc_cycles_total"), "count"},
		"gc_pause_p99_us":         {m.after.stats[`mutps_go_gc_pause_seconds{q="0.99"}`] * 1e6, "us"},
		"server_cpu_us_per_op":    {ratio(float64((m.after.serverCPU - m.before.serverCPU).Microseconds()), ops), "us"},
		"client_cpu_us_per_op":    {ratio(float64((m.after.clientCPU - m.before.clientCPU).Microseconds()), ops), "us"},
	}
}

// primary is the number trace_overhead_pct compares between the untraced
// and the traced window, oriented so that larger is better.
func primary(s spec, m measurement) float64 {
	if s.open() {
		return 1 / m.lat.P50Us // the rate is fixed; tracing can only add latency
	}
	return m.tput
}

// runTraced is the run the per-layer metrics come from: half the measured
// time untraced and half with client spans and counter scrapes on the same
// server, then, with the server gone, the in-process probes and the layer
// walk. Spans go to trace.jsonl in outDir.
func runTraced(rec *runRecord, bin string, s spec, warm time.Duration, outDir string) error {
	srv, pcs, _, err := setup(bin, s, rec.Seed)
	if err != nil {
		return err
	}
	defer srv.stop()
	defer closePipes(pcs)
	half := time.Duration(max(rec.Seconds/2, 1)) * time.Second
	plain, err := measure(srv, pcs, s, rec.Seed, warm, half, false, nil)
	if err != nil {
		return err
	}
	tr := &connTrace{every: traceEvery}
	traced, err := measure(srv, pcs, s, rec.Seed+1, 0, half, true, tr)
	if err != nil {
		return err
	}
	closePipes(pcs)
	srv.stop() // its polling workers would share the CPUs with the probes

	rec.Attempted, rec.Failed = plain.attempted+traced.attempted, plain.failed+traced.failed
	rec.Latency, rec.Steps = &traced.lat, traced.steps
	rec.Metrics = counterMetrics(traced, traced.lat.MeanUs)
	rec.Metrics["traced_p99_us"] = metric{traced.lat.P99Us, "us"}
	rec.Metrics["trace_overhead_pct"] = metric{(1 - primary(s, traced)/primary(s, plain)) * 100, "%"}

	log := newSpanLog()
	walkNs, err := layerWalk(s, rec.Seed, log)
	if err != nil {
		return err
	}
	tr.spansInto(log)
	layers, err := layerProbes(s, rec.Seed, outDir)
	if err != nil {
		return err
	}
	facade, err := facadeProbes(s, rec.Seed)
	if err != nil {
		return err
	}
	maps.Copy(rec.Metrics, layers)
	maps.Copy(rec.Metrics, facade)
	rec.Metrics["walk_ns"] = metric{walkNs, "ns"}
	rec.Metrics["unexplained_ns"] = metric{rec.Metrics["facade_mix_ns"].Value - walkNs, "ns"}
	rec.Metrics["wire_unexplained_us"] = metric{traced.lat.P50Us - walkNs/1e3, "us"}

	for _, name := range sortedNames(rec.Metrics) {
		v := rec.Metrics[name]
		fmt.Printf("%-12s %-24s = %14.4f %s\n", s.name, name, v.Value, v.Unit)
	}
	rec.SelfTimes = log.selfTimes()
	fmt.Printf("%-12s self time per span (mean ns; walk spans carry two clock reads each):\n", s.name)
	for _, st := range rec.SelfTimes {
		fmt.Printf("%-12s   %-24s n=%-7d %12.1f\n", s.name, st.Name, st.Count, st.MeanNs)
	}
	path := filepath.Join(outDir, "trace.jsonl")
	if err := log.write(path); err != nil {
		return err
	}
	fmt.Printf("%-12s %d spans of %d requests written to %s\n", s.name, len(log.spans), log.reqs, path)
	return nil
}
