// Command benchmark is the repository's one canonical benchmark: it starts
// cmd/mutps-server as a child process, drives it over loopback TCP from this
// process, checks every returned byte, and prints every metric by name and
// unit. See README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	warmup       = 3 * time.Second
	setupRepeats = 3 // set-ups per timed run; setup_s is their median
	// A run that has not finished by then is hung: a request that never
	// completes has no other timeout.
	watchdog = 170 * time.Second
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is one run as kept in the result file: the result line, what
// produced it, and the numbers that are reported but not gated.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	Stamp    stamp  `json:"stamp"`
	resultLine
	Diagnostics map[string]metric `json:"diagnostics,omitempty"`
	Latency     *latencySummary   `json:"latency,omitempty"`
	Steps       []stepResult      `json:"steps,omitempty"`
	SelfTimes   []selfTime        `json:"self_times,omitempty"`
}

// resultFile is what -out names; every run appends to it.
type resultFile struct {
	Runs []runRecord `json:"runs"`
}

// stamp says what a number was measured on.
type stamp struct {
	Commit      string   `json:"commit"`
	Dirty       bool     `json:"dirty"`
	GoVersion   string   `json:"go_version"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	NumCPU      int      `json:"nproc"`
	Kernel      string   `json:"kernel"`
	ServerFlags []string `json:"server_flags"`
	Time        string   `json:"time"`
}

func newStamp(root string, s spec) stamp {
	st := stamp{
		Commit:      "unknown", // a checkout without .git has no commit to name
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		ServerFlags: serverFlags(s, "127.0.0.1:0"),
		Time:        time.Now().UTC().Format(time.RFC3339),
	}
	git := func(args ...string) (string, error) {
		out, err := exec.Command("git", append([]string{"-C", root}, args...)...).Output()
		return strings.TrimSpace(string(out)), err
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if c, err := git("rev-parse", "HEAD"); err == nil {
			st.Commit = c
			status, err := git("status", "--porcelain")
			st.Dirty = err != nil || status != ""
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		st.Kernel = strings.TrimSpace(string(b))
	}
	return st
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run; empty runs all four in turn")
		seed    = flag.Uint64("seed", 1, "seed of the generated requests and preloaded sizes")
		seconds = flag.Int("seconds", 18, "length of the measured window")
		trace   = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes trace.jsonl")
		out     = flag.String("out", "", "result file to append to (default benchmark/out/result.json)")
		agree   = flag.Bool("agree", false, "compare two result files: -agree a.json b.json")
	)
	flag.Parse()
	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	if *agree {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-agree takes two result files"))
		}
		ok, err := agreeFiles(os.Stdout, filepath.Join(root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fatal(fmt.Errorf("want -seconds >= 1, -trace 0 or 1, and no other arguments"))
	}
	specs := workloads
	if *name != "" {
		s, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		specs = []spec{s}
	}
	outDir := filepath.Join(root, "benchmark", "out")
	if *out == "" {
		*out = filepath.Join(outDir, "result.json")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(130)
	}()

	bin, err := buildServer(root)
	if err != nil {
		fatal(err)
	}
	exit := 0
	for _, s := range specs {
		dog := time.AfterFunc(watchdog, func() {
			fmt.Fprintf(os.Stderr, "benchmark: %s still running after %v, giving up\n", s.name, watchdog)
			killAll()
			os.Exit(3)
		})
		rec := runRecord{Workload: s.name, Seed: *seed, Seconds: *seconds, Trace: *trace, Stamp: newStamp(root, s)}
		if *trace == 1 {
			err = runTraced(&rec, bin, s, warmup, outDir)
		} else {
			err = runTimed(&rec, bin, s, warmup)
		}
		dog.Stop()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", s.name, err))
		}
		rec.Correct = rec.Failed == 0
		if !rec.Correct {
			exit = 1
		}
		if err := appendResult(*out, rec); err != nil {
			fatal(err)
		}
		line, err := json.Marshal(rec.resultLine)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
	}
	os.Exit(exit)
}

// fatal stops every child server, then exits without printing a result.
func fatal(err error) {
	killAll()
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runTimed is the untraced run every end-to-end metric comes from.
func runTimed(rec *runRecord, bin string, s spec, warm time.Duration) error {
	// Set up setupRepeats times, one server after the other, and measure on
	// the last: one set-up is a single sample of a number that is gated.
	setups := make([]float64, 0, setupRepeats)
	for len(setups) < setupRepeats-1 {
		srv, pcs, secs, err := setup(bin, s, rec.Seed)
		if err != nil {
			return err
		}
		closePipes(pcs)
		srv.stop()
		setups = append(setups, secs)
	}
	srv, pcs, secs, err := setup(bin, s, rec.Seed)
	if err != nil {
		return err
	}
	defer srv.stop()
	defer closePipes(pcs)
	setups = append(setups, secs)
	m, err := measure(srv, pcs, s, rec.Seed, warm, time.Duration(rec.Seconds)*time.Second, false, nil)
	if err != nil {
		return err
	}
	rec.fill(s, m)
	setupS := median(setups)
	rec.Metrics["setup_s"] = metric{setupS, "s"}
	fmt.Printf("%-12s %-20s = %10.4f s      (median of %d set-ups: %.4v)\n", s.name, "setup_s", setupS, len(setups), setups)
	return nil
}

// fill reports one measurement: every end-to-end metric by name and unit
// with its sample count, then the numbers that are printed but not gated.
func (rec *runRecord) fill(s spec, m measurement) {
	rec.Attempted, rec.Failed = m.attempted, m.failed
	rec.Latency, rec.Steps = &m.lat, m.steps
	rec.Metrics, rec.Diagnostics = map[string]metric{}, map[string]metric{}
	report := func(into map[string]metric, name string, v float64, unit, note string) {
		into[name] = metric{v, unit}
		fmt.Printf("%-12s %-20s = %10.4f %-6s %s\n", s.name, name, v, unit, note)
	}
	tputNote := fmt.Sprintf("(median of %d one-second slices, q1=%.0f q3=%.0f)", m.lat.Slices, m.tputQ1, m.tputQ3)
	from := "Send to Wait return"
	if s.open() {
		tputNote = fmt.Sprintf("(answered within %d us, over all %d rates)", p99LimitUs, len(m.steps))
		from = fmt.Sprintf("from due time at %d ops/s", s.rates[s.refStep])
	}
	report(rec.Metrics, "tput_ops_s", m.tput, "ops/s", tputNote)
	report(rec.Metrics, "p50_us", m.lat.P50Us, "us", fmt.Sprintf("(%d samples in %d slices, %s)", m.lat.N, m.lat.Slices, from))
	report(rec.Diagnostics, "p99_us", m.lat.P99Us, "us", fmt.Sprintf("(diagnostic; whole-window p50=%.1f p99=%.1f)", m.lat.WindowP50Us, m.lat.WindowP99Us))
	report(rec.Metrics, "rss_mib", m.rssMiB, "MiB", "(server VmHWM at the end of the window)")
	report(rec.Diagnostics, "p999_us", m.lat.P999Us, "us", fmt.Sprintf("(diagnostic; highest supported percentile p%g = %.1f us, max %.1f us)", m.lat.Top*100, m.lat.TopUs, m.lat.MaxUs))
	report(rec.Diagnostics, "fail_ratio", float64(m.failed)/float64(max(m.attempted, 1)), "ratio", fmt.Sprintf("(%d failed of %d attempted)", m.failed, m.attempted))
	if !s.open() {
		rec.Diagnostics["tput_q1_ops_s"] = metric{m.tputQ1, "ops/s"}
		rec.Diagnostics["tput_q3_ops_s"] = metric{m.tputQ3, "ops/s"}
		return
	}
	for _, r := range m.steps {
		verdict := "ok"
		switch {
		case !r.Valid:
			verdict = "INVALID (over limit, but the generator ran late)"
		case !r.OK:
			verdict = "over limit"
		}
		fmt.Printf("%-12s   %6d ops/s: p50=%.1fus p99=%.1fus gen_lag_p99=%.1fus inflight mid=%d end=%d failed=%d: %s\n",
			s.name, r.Rate, r.Latency.P50Us, r.Latency.P99Us, r.GenLagUs, r.MidFlight, r.EndFlight, r.Failed, verdict)
	}
	report(rec.Diagnostics, "max_rate_ok_ops_s", float64(m.maxRateOK), "ops/s", fmt.Sprintf("(diagnostic; p99 limit %d us)", p99LimitUs))
	report(rec.Diagnostics, "gen_lag_us", m.steps[s.refStep].GenLagUs, "us", "(diagnostic; p99 at the reference rate)")
}

// appendResult adds rec to the result file at path, creating it if needed.
func appendResult(path string, rec runRecord) error {
	var rf resultFile
	if err := readJSON(path, &rf); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	rf.Runs = append(rf.Runs, rec)
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// sortedNames returns the keys of m in order, for stable printing.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
