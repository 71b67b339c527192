package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mutps/internal/netserver"
	"mutps/internal/workload"
)

// fakeServer speaks enough of the wire protocol to answer gets and puts,
// and stops answering on every connection for stallFor, once, stallAfter
// its first request.
type fakeServer struct {
	ln         net.Listener
	stallAfter time.Duration
	stallFor   time.Duration

	once  sync.Once
	first time.Time
	wg    sync.WaitGroup
}

func startFake(t *testing.T, stallAfter, stallFor time.Duration) *fakeServer {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeServer{ln: ln, stallAfter: stallAfter, stallFor: stallFor}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			f.wg.Add(1)
			go f.serve(conn)
		}
	}()
	t.Cleanup(func() { ln.Close(); f.wg.Wait() })
	return f
}

func (f *fakeServer) serve(conn net.Conn) {
	defer f.wg.Done()
	defer conn.Close()
	r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
	var val []byte
	for {
		var hdr [13]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		key := binary.LittleEndian.Uint64(hdr[1:9])
		if _, err := io.CopyN(io.Discard, r, int64(binary.LittleEndian.Uint32(hdr[9:13]))); err != nil {
			return
		}
		f.once.Do(func() { f.first = time.Now() })
		if since := time.Since(f.first); since >= f.stallAfter && since < f.stallAfter+f.stallFor {
			time.Sleep(f.stallAfter + f.stallFor - since)
		}
		var body []byte
		if hdr[0] == netserver.OpGet {
			val = encodeValue(val, key, 0, 64)
			body = val
		}
		var resp [5]byte
		resp[0] = netserver.StatusFound
		binary.LittleEndian.PutUint32(resp[1:], uint32(len(body)))
		w.Write(resp[:])
		w.Write(body)
		if r.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
}

// The coordinated-omission test: with a client window too small to ride out
// a 50 ms server stall, Send blocks and every request scheduled during the
// stall goes out late. Timed from Send they would look fast; timed from
// their due time they carry the stall, and the generator's lag shows it.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const (
		rate  = 2000
		stall = 50 * time.Millisecond
	)
	f := startFake(t, 200*time.Millisecond, stall)
	pcs := make([]*netserver.PipelineClient, conns)
	for c := range pcs {
		pc, err := netserver.DialPipeline(f.ln.Addr().String(), 4)
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		pcs[c] = pc
	}
	s := spec{keys: 1000, mix: workload.MixYCSBC, sizes: workload.FixedSize(64)}
	var fails failures
	st := openLoop(pcs, newOpGen(s, 1, 0), rate, 500*time.Millisecond, &fails, nil)
	if st.err != nil || fails.n.Load() != 0 {
		t.Fatalf("open loop failed: err=%v failed=%d", st.err, fails.n.Load())
	}
	if st.attempted != rate/2 {
		t.Fatalf("attempted %d requests, schedule has %d", st.attempted, rate/2)
	}
	slow := 0
	for _, ns := range st.lat {
		if ns >= int64(10*time.Millisecond) {
			slow++
		}
	}
	// 100 requests fall due during the stall; those due in its first 40 ms
	// wait at least 10 ms for it to end. Only the handful already in flight
	// when it began would be slow if latency ran from Send.
	if want := rate * 40 / 1000 * 3 / 4; slow < want {
		t.Errorf("%d requests took >= 10 ms from their due time, want >= %d: the stall was not charged to the requests scheduled during it", slow, want)
	}
	if lag := summarize(st.lag).P99Us; lag < 10_000 {
		t.Errorf("generator lag p99 = %.0f us, want >= 10000: the late sends were not reported", lag)
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false}, {19, 0, false}, {20, 0.5, true}, {99, 0.5, true}, {100, 0.9, true},
		{999, 0.9, true}, {1000, 0.99, true}, {9999, 0.99, true}, {10_000, 0.999, true},
		{99_999, 0.999, true}, {100_000, 0.9999, true}, {5_000_000, 0.9999, true},
	} {
		if got, ok := highestPercentile(c.n); got != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	ns := make([]int64, 1000)
	for i := range ns {
		ns[i] = int64(1000 - i) // unsorted on purpose
	}
	s := summarize(ns)
	if s.P50Us != 0.5 || s.P99Us != 0.99 || s.Top != 0.99 || s.TopUs != 0.99 || s.P999Us != 0 || s.MaxUs != 1 {
		t.Errorf("summarize(1..1000 ns) = %+v", s)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, med, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || med != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v %v %v", q1, med, q3)
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); got != 1 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

func TestSliceMedianIgnoresOneBadSlice(t *testing.T) {
	slices := make([][]int64, 5)
	for i := range slices {
		for j := 0; j < 1000; j++ {
			slices[i] = append(slices[i], 100_000)
		}
	}
	for j := range slices[2] {
		slices[2][j] = 9_000_000 // one slice hit by a pause
	}
	s := summarizeSlices(slices)
	if s.P99Us != 100 || s.WindowP99Us != 9000 || s.N != 5000 || s.Slices != 5 {
		t.Errorf("summarizeSlices = %+v", s)
	}
}

func TestValueCodec(t *testing.T) {
	for _, n := range []int{0, minValueLen, 21, 64, 65, 511, 512, 4096} {
		v := encodeValue(nil, 42, 7, n)
		if want := max(n, minValueLen); len(v) != want {
			t.Fatalf("encodeValue(%d) has %d bytes", n, len(v))
		}
		if err := verifyValue(42, v); err != nil {
			t.Errorf("round trip at %d bytes: %v", n, err)
		}
		if err := verifyValue(43, v); err == nil {
			t.Errorf("%d-byte value of key 42 verified under key 43", n)
		}
		if err := verifyValue(42, v[:len(v)-1]); err == nil {
			t.Errorf("truncated %d-byte value verified", n)
		}
		for _, i := range []int{0, 9, 13, len(v) / 2, len(v) - 1} {
			bad := append([]byte(nil), v...)
			bad[i] ^= 0x40
			if err := verifyValue(42, bad); err == nil {
				t.Errorf("%d-byte value with byte %d flipped verified", n, i)
			}
		}
	}
	if err := verifyValue(1, nil); err == nil {
		t.Error("empty value verified")
	}
}

func scanBody(count int, keys ...uint64) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(count))
	for _, k := range keys {
		v := encodeValue(nil, k, 1, 64)
		b = binary.LittleEndian.AppendUint64(b, k)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
		b = append(b, v...)
	}
	return b
}

func TestVerifyScan(t *testing.T) {
	if n, err := verifyScan(5, 3, scanBody(3, 5, 6, 9)); err != nil || n != 3 {
		t.Errorf("good scan: n=%d err=%v", n, err)
	}
	if _, err := verifyScan(5, 10, scanBody(0)); err != nil {
		t.Errorf("empty scan: %v", err)
	}
	corrupt := scanBody(2, 5, 6)
	corrupt[len(corrupt)-10] ^= 1
	for name, c := range map[string]struct {
		start uint64
		asked int
		body  []byte
	}{
		"before start":    {5, 3, scanBody(2, 4, 6)},
		"descending":      {5, 3, scanBody(3, 5, 9, 6)},
		"repeated key":    {5, 3, scanBody(2, 6, 6)},
		"more than asked": {5, 2, scanBody(3, 5, 6, 9)},
		"short body":      {5, 3, scanBody(3, 5, 6)},
		"trailing bytes":  {5, 3, append(scanBody(1, 5), 0)},
		"corrupt value":   {5, 3, corrupt},
		"no count":        {5, 3, []byte{1}},
	} {
		if _, err := verifyScan(c.start, c.asked, c.body); err == nil {
			t.Errorf("%s: verified", name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	l := newSpanLog()
	at := func(ns int) time.Time { return l.t0.Add(time.Duration(ns)) }
	req := l.request()
	l.add(req, 1, 0, "root", at(0), at(100))
	l.add(req, 2, 1, "a", at(10), at(30))
	l.add(req, 3, 1, "b", at(40), at(80))
	l.add(req, 4, 3, "c", at(50), at(60))
	got := map[string]float64{}
	for _, st := range l.selfTimes() {
		got[st.Name] = st.MeanNs
	}
	for name, want := range map[string]float64{"root": 40, "a": 20, "b": 30, "c": 10} {
		if got[name] != want {
			t.Errorf("self time of %s = %v, want %v", name, got[name], want)
		}
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := l.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	var last span
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || len(lines) != 4 {
		t.Fatalf("trace.jsonl: %d lines, err=%v", len(lines), err)
	}
	if last != (span{Req: 1, Span: 4, Parent: 3, Name: "c", Start: 50, End: 60}) {
		t.Errorf("last span = %+v", last)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100.5}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", steady, steady, "higher", "pass"},
		{"higher is better and it fell", steady, []float64{85, 86, 84, 85}, "higher", "regress"},
		{"higher is better and it rose", steady, []float64{120, 121, 119}, "higher", "pass"},
		{"lower is better and it rose", steady, []float64{115, 116, 114}, "lower", "regress"},
		{"lower is better and it fell", steady, []float64{50, 51, 49}, "lower", "pass"},
		{"within the bound", steady, []float64{108, 109, 107}, "lower", "pass"},
		{"one side too noisy to tell", steady, []float64{60, 100, 150, 85}, "higher", "unresolved"},
		{"single runs", []float64{100}, []float64{105}, "lower", "pass"},
		{"absent", steady, nil, "lower", "missing"},
	} {
		if got, _, _ := verdict(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestAgreeFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bench := write("BENCHMARK.json", map[string]any{
		"workloads": []map[string]string{{"name": "w1"}, {"name": "w2"}},
		"end_to_end": []map[string]any{
			{"name": "tput_ops_s", "unit": "ops/s", "better": "higher", "bound": 0.1},
			{"name": "p99_us", "unit": "us", "better": "lower", "bound": 0.1},
		},
	})
	file := func(tput, p99 float64, failed int64) resultFile {
		var rf resultFile
		for _, w := range []string{"w1", "w2"} {
			for i := 0; i < 3; i++ {
				rf.Runs = append(rf.Runs, runRecord{Workload: w, resultLine: resultLine{
					Attempted: 1000, Failed: failed,
					Metrics: map[string]metric{"tput_ops_s": {tput + float64(i), "ops/s"}, "p99_us": {p99 + float64(i), "us"}},
				}})
			}
		}
		// A traced run's numbers must not be compared.
		rf.Runs = append(rf.Runs, runRecord{Workload: "w1", Trace: 1, resultLine: resultLine{
			Attempted: 1, Metrics: map[string]metric{"tput_ops_s": {1, "ops/s"}}}})
		return rf
	}
	base := write("a.json", file(1000, 500, 0))
	for _, c := range []struct {
		name string
		b    resultFile
		ok   bool
		want string
	}{
		{"same", file(1001, 501, 0), true, "pass"},
		{"slower", file(800, 500, 0), false, "regress"},
		{"longer tail", file(1000, 700, 0), false, "regress"},
		{"failures", file(1000, 500, 5), false, "regress"},
	} {
		var out strings.Builder
		ok, err := agreeFiles(&out, bench, base, write("b.json", c.b))
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: ok=%v, output:\n%s", c.name, ok, out.String())
		}
		if rows := strings.Count(out.String(), "\n"); rows != 1+2*3 {
			t.Errorf("%s: %d rows, want a header and three per workload", c.name, rows)
		}
	}
}

// scaled shrinks the keyspace so tests can run a workload in a second.
func (s spec) scaled(div uint64) spec {
	s.keys /= div
	return s
}

// TestSmoke runs every workload for a second against a child server, with
// keyspaces a hundredth of the real ones: the whole path, every check on.
func TestSmoke(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildServer(root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(killAll)
	for _, s := range workloads {
		s = s.scaled(100)
		srv, pcs, secs, err := setup(bin, s, 1)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		m, err := measure(srv, pcs, s, 1, 200*time.Millisecond, time.Second, true, &connTrace{every: 16})
		closePipes(pcs)
		srv.stop()
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if m.failed != 0 || m.attempted < 100 || m.lat.N < 100 {
			t.Errorf("%s: failed=%d attempted=%d samples=%d", s.name, m.failed, m.attempted, m.lat.N)
		}
		for name, v := range map[string]float64{"setup_s": secs, "tput": m.tput, "p50": m.lat.P50Us, "p99": m.lat.P99Us, "rss": m.rssMiB} {
			if !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", s.name, name, v)
			}
		}
		cm := counterMetrics(m, m.lat.MeanUs)
		if cm["net_op_us"].Value <= 0 || cm["server_cpu_us_per_op"].Value <= 0 {
			t.Errorf("%s: counters did not move: %v", s.name, cm)
		}
		if s.open() && len(m.steps) != len(s.rates) {
			t.Errorf("%s: %d steps for %d rates", s.name, len(m.steps), len(s.rates))
		}
	}
}

// TestRunsReportWhatBenchmarkJSONLists runs one scaled-down workload through
// both modes and checks the metric names and units against BENCHMARK.json,
// and the workload table against its names.
func TestRunsReportWhatBenchmarkJSONLists(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		benchSpec
		Workloads []struct{ Name, Why string }  `json:"workloads"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	if testing.Short() {
		t.Skip("the runs take about 15 s")
	}
	bin, err := buildServer(root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(killAll)
	s := workloads[0].scaled(100)
	check := func(mode string, got map[string]metric, want map[string]string) {
		for name, unit := range want {
			if m, ok := got[name]; !ok || m.Unit != unit {
				t.Errorf("%s run: %s is %+v, BENCHMARK.json wants unit %q", mode, name, m, unit)
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("%s run reports %s, which BENCHMARK.json does not list", mode, name)
			}
		}
	}

	timed := runRecord{Seed: 1, Seconds: 1}
	if err := runTimed(&timed, bin, s, 200*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, m := range bench.EndToEnd {
		want[m.Name] = m.Unit
	}
	check("timed", timed.Metrics, want)
	for name, m := range timed.Metrics {
		if !(m.Value > 0) {
			t.Errorf("end-to-end metric %s = %v; it must never be 0", name, m.Value)
		}
	}

	traced := runRecord{Seed: 1, Seconds: 2, Trace: 1}
	outDir := t.TempDir()
	if err := runTraced(&traced, bin, s, 200*time.Millisecond, outDir); err != nil {
		t.Fatal(err)
	}
	want = map[string]string{}
	for _, m := range bench.PerLayer {
		want[m.Name] = m.Unit
	}
	check("traced", traced.Metrics, want)
	if timed.Failed+traced.Failed != 0 {
		t.Errorf("failed ops: timed %d, traced %d", timed.Failed, traced.Failed)
	}

	// trace.jsonl: every span names a parent that exists in its request.
	f, err := os.Open(filepath.Join(outDir, "trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type id struct{ req, span int }
	seen, parents := map[id]bool{}, map[id]bool{}
	names := map[string]bool{}
	dec := json.NewDecoder(f)
	for dec.More() {
		var sp span
		if err := dec.Decode(&sp); err != nil {
			t.Fatal(err)
		}
		if sp.End < sp.Start {
			t.Fatalf("span ends before it starts: %+v", sp)
		}
		seen[id{sp.Req, sp.Span}] = true
		if sp.Parent != 0 {
			parents[id{sp.Req, sp.Parent}] = true
		}
		names[sp.Name] = true
	}
	for p := range parents {
		if !seen[p] {
			t.Fatalf("span %+v is named as a parent but was never written", p)
		}
	}
	// The scaled-down keyspace fits the hot set, so no walk reaches the index.
	for _, name := range []string{"walk:get", "rpc.Send", "rpc.Poll", "hotset.Lookup", "seqitem.Read", "rpc.Call.Wait", "client:get", "gen", "send", "wait", "verify"} {
		if !names[name] {
			t.Errorf("trace.jsonl has no %q span", name)
		}
	}
}
