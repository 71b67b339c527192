package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// failRatioBound is the absolute amount fail_ratio may rise by.
const failRatioBound = 0.001

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict compares one metric's runs on two sides. worse is the share of a's
// median by which b's median is worse; wide is the larger of the two sides'
// own spreads. A spread wider than the bound cannot resolve a change of the
// size of the bound, so it is reported as such and not as agreement.
func verdict(a, b []float64, better string, bound float64) (v string, worse, wide float64) {
	if len(a) == 0 || len(b) == 0 {
		return "missing", 0, 0
	}
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
	}
	if better == "higher" {
		worse = -worse
	}
	wide = max(spread(a), spread(b))
	switch {
	case wide > bound:
		return "unresolved", worse, wide
	case worse > bound:
		return "regress", worse, wide
	}
	return "pass", worse, wide
}

// agreeFiles compares the untraced runs of result files a and b, metric by
// metric and workload by workload, against the bounds in BENCHMARK.json. It
// reports whether nothing regressed and nothing was missing.
func agreeFiles(w io.Writer, benchPath, aPath, bPath string) (bool, error) {
	var bench benchSpec
	var fa, fb resultFile
	for _, f := range []struct {
		path string
		into any
	}{{benchPath, &bench}, {aPath, &fa}, {bPath, &fb}} {
		if err := readJSON(f.path, f.into); err != nil {
			return false, err
		}
	}
	type side struct {
		values            map[string][]float64
		attempted, failed int64
	}
	collect := func(rf resultFile, workload string) side {
		s := side{values: map[string][]float64{}}
		for _, r := range rf.Runs {
			if r.Workload != workload || r.Trace != 0 {
				continue
			}
			s.attempted += r.Attempted
			s.failed += r.Failed
			for name, m := range r.Metrics {
				s.values[name] = append(s.values[name], m.Value)
			}
		}
		return s
	}
	ok := true
	fmt.Fprintf(w, "%-12s %-12s %4s %14s %14s %8s %8s %6s  %s\n",
		"workload", "metric", "runs", "median a", "median b", "worse", "spread", "bound", "verdict")
	for _, wl := range bench.Workloads {
		sa, sb := collect(fa, wl.Name), collect(fb, wl.Name)
		for _, m := range bench.EndToEnd {
			a, b := sa.values[m.Name], sb.values[m.Name]
			v, worse, wide := verdict(a, b, m.Better, m.Bound)
			if v == "regress" || v == "missing" {
				ok = false
			}
			var ma, mb float64
			if v != "missing" {
				ma, mb = median(a), median(b)
			}
			fmt.Fprintf(w, "%-12s %-12s %2d/%-2d %14.3f %14.3f %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, len(a), len(b), ma, mb, worse*100, wide*100, m.Bound*100, v)
		}
		ra := float64(sa.failed) / float64(max(sa.attempted, 1))
		rb := float64(sb.failed) / float64(max(sb.attempted, 1))
		v := "pass"
		if rb > ra+failRatioBound {
			v, ok = "regress", false
		}
		fmt.Fprintf(w, "%-12s %-12s %5s %14.6f %14.6f %8s %8s %6.3f  %s\n", wl.Name, "fail_ratio", "", ra, rb, "", "", failRatioBound, v)
	}
	return ok, nil
}
