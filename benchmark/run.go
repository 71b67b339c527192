package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"mutps/internal/netserver"
)

// snapshot is the server's counters and both processes' CPU time at one
// instant; two of them bracket a measured window.
type snapshot struct {
	stats     map[string]float64
	serverCPU time.Duration
	clientCPU time.Duration
}

func takeSnapshot(srv *server) (snapshot, error) {
	st, err := srv.stats()
	if err != nil {
		return snapshot{}, err
	}
	sc, err := procCPU(srv.pid())
	if err != nil {
		return snapshot{}, err
	}
	cc, err := procCPU(os.Getpid())
	if err != nil {
		return snapshot{}, err
	}
	return snapshot{stats: st, serverCPU: sc, clientCPU: cc}, nil
}

// stepResult is one open-loop step reduced to what is reported.
type stepResult struct {
	Rate      int            `json:"rate_ops_s"`
	Latency   latencySummary `json:"latency"`
	GenLagUs  float64        `json:"gen_lag_us"` // p99 of how late a request was sent
	MidFlight int64          `json:"inflight_mid"`
	EndFlight int64          `json:"inflight_end"`
	Failed    int64          `json:"failed"`
	WithinLim int            `json:"within_limit"` // ops answered within p99LimitUs
	Seconds   float64        `json:"seconds"`
	// OK is the pass verdict. Valid is false when the rate failed while the
	// generator itself ran late: it then says nothing about the server.
	Valid bool `json:"valid"`
	OK    bool `json:"ok"`
}

// measurement is one measured window of one workload.
type measurement struct {
	attempted, failed int64

	// tput is the median of the per-second completion rates in a closed
	// loop; in an open loop, the ops answered within the latency limit per
	// second of schedule, over all steps.
	tput, tputQ1, tputQ3 float64

	// lat is every op of a closed-loop window, or the reference step's ops
	// timed from their due time.
	lat latencySummary

	steps     []stepResult // open loop only
	maxRateOK int          // highest passing rate before the first failing one

	before, after snapshot // scraped only when asked for
	rssMiB        float64
}

// measure runs the workload against a set-up server: warm-up, then the
// measured window. With scrape, counters are read as the window opens and
// closes; tr, when non-nil, samples client spans.
func measure(srv *server, pcs []*netserver.PipelineClient, s spec, seed uint64,
	warm, window time.Duration, scrape bool, tr *connTrace) (measurement, error) {
	var m measurement
	var fails failures
	var err error
	if s.open() {
		err = m.measureOpen(srv, pcs, s, seed, warm, window, scrape, &fails, tr)
	} else {
		err = m.measureClosed(srv, pcs, s, seed, warm, window, scrape, &fails, tr)
	}
	if err != nil {
		return m, err
	}
	m.failed = fails.n.Load()
	if m.rssMiB, err = procStatusMiB(srv.pid(), "VmHWM"); err != nil {
		return m, err
	}
	return m, nil
}

func (m *measurement) measureClosed(srv *server, pcs []*netserver.PipelineClient, s spec, seed uint64,
	warm, window time.Duration, scrape bool, fails *failures, tr *connTrace) error {
	start := time.Now()
	tallies := make([]tally, len(pcs))
	var wg sync.WaitGroup
	for c, pc := range pcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tallies[c] = closedLoop(pc, newOpGen(s, seed, c), s.window, start, warm, window, fails, tr)
		}()
	}
	var scrapeErr error
	if scrape {
		// Read while the load runs, so the two snapshots bracket the same
		// interval the latencies come from.
		time.Sleep(time.Until(start.Add(warm)))
		if m.before, scrapeErr = takeSnapshot(srv); scrapeErr == nil {
			time.Sleep(time.Until(start.Add(warm + window)))
			m.after, scrapeErr = takeSnapshot(srv)
		}
	}
	wg.Wait()
	if scrapeErr != nil {
		return scrapeErr
	}

	lat := make([][]int64, int(window/latSlice))
	for _, t := range tallies {
		if t.err != nil {
			return fmt.Errorf("connection broke: %w", t.err)
		}
		m.attempted += int64(t.attempted)
		for i := range t.lat {
			lat[i] = append(lat[i], t.lat[i]...)
		}
	}
	rates := make([]float64, len(lat))
	for i := range lat {
		rates[i] = float64(len(lat[i])) / latSlice.Seconds()
	}
	m.lat = summarizeSlices(lat)
	m.tputQ1, m.tput, m.tputQ3 = quartiles(rates)
	return nil
}

func (m *measurement) measureOpen(srv *server, pcs []*netserver.PipelineClient, s spec, seed uint64,
	warm, window time.Duration, scrape bool, fails *failures, tr *connTrace) error {
	gen := newOpGen(s, seed, 0)
	if w := openLoop(pcs, gen, s.rates[0], warm, fails, nil); w.err != nil {
		return fmt.Errorf("connection broke in warm-up: %w", w.err)
	} else {
		m.attempted += int64(w.attempted)
	}
	var err error
	if scrape {
		if m.before, err = takeSnapshot(srv); err != nil {
			return err
		}
	}
	// The window cycles through the rates in short turns, so that every rate
	// meets the same slow drift of the host over the whole window; a rate's
	// turns are the slices its percentiles are medians over.
	rounds := max(int(window/(openTurn*time.Duration(len(s.rates)))), 1)
	turn := window / time.Duration(rounds*len(s.rates))
	steps := make([]stepResult, len(s.rates))
	lats := make([][][]int64, len(s.rates))
	lags := make([][]int64, len(s.rates))
	for range rounds {
		for i, rate := range s.rates {
			failedBefore := fails.n.Load()
			st := openLoop(pcs, gen, rate, turn, fails, tr)
			if st.err != nil {
				return fmt.Errorf("connection broke at %d ops/s: %w", rate, st.err)
			}
			m.attempted += int64(st.attempted)
			r := &steps[i]
			r.Rate = rate
			r.Seconds += turn.Seconds()
			r.MidFlight += st.midFlight
			r.EndFlight += st.endFlight
			r.Failed += fails.n.Load() - failedBefore
			for _, ns := range st.lat {
				if ns <= p99LimitUs*1000 {
					r.WithinLim++
				}
			}
			lats[i] = append(lats[i], st.lat)
			lags[i] = append(lags[i], st.lag...)
		}
	}
	var within int
	stillOK := true
	for i := range steps {
		r := &steps[i]
		// A failed op was answered, but not with what was asked for.
		r.WithinLim = max(r.WithinLim-int(r.Failed), 0)
		r.Latency = summarizeSlices(lats[i])
		r.GenLagUs = summarize(lags[i]).P99Us
		// Latency runs from the due time, so it includes the generator's own
		// lateness: a rate that passes, passes whatever the lag; one that
		// fails while the generator ran late says nothing about the server.
		r.OK = r.Failed == 0 && r.Latency.P99Us <= p99LimitUs && r.EndFlight <= 2*max(r.MidFlight, 1)
		r.Valid = r.OK || r.GenLagUs <= maxGenLagUs
		if stillOK = stillOK && r.OK; stillOK {
			m.maxRateOK = r.Rate
		}
		within += r.WithinLim
	}
	m.lat, m.steps = steps[s.refStep].Latency, steps
	if scrape {
		if m.after, err = takeSnapshot(srv); err != nil {
			return err
		}
	}
	m.tput = float64(within) / window.Seconds()
	return nil
}
