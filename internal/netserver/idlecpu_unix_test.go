//go:build unix

package netserver

import (
	"net"
	"syscall"
	"testing"
	"time"

	"mutps/internal/kvcore"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestIdleStoreBurnsNoCPU: with polling replaced by bells, a server nobody
// talks to costs (almost) nothing — no yield loop, no timed naps. A store
// with its hot-set refresher running at Open's default period, a server on
// either arm (startTransportServer) and one open idle connection must keep
// the whole process under 2% of one CPU for half a second. The
// Gosched/50µs-nap loops this replaces measured over 100% here.
func TestIdleStoreBurnsNoCPU(t *testing.T) {
	const window = 500 * time.Millisecond
	budget := window / 50 // 2% of one CPU
	if raceEnabled {
		// All an idle server does is refresh its hot set ten times a second,
		// and the detector makes that sketch sweep over ten times dearer
		// (10-16% measured). A loop that still polls burns a whole CPU or
		// more, so half of one keeps the gate meaningful here.
		budget = window / 2
	}
	for _, tr := range []string{TransportGoroutine, TransportEpoll} {
		t.Run(tr, func(t *testing.T) {
			srv := startTransportStore(t, tr, Config{},
				kvcore.Config{Engine: kvcore.Hash, Workers: 3, CRWorkers: 1, HotItems: 4096})
			conn, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			// The server has only just started and the test binary may still
			// be finishing a GC cycle from earlier tests: the claim is about
			// the steady idle state, so take the quietest of a few windows.
			best := time.Duration(1 << 62)
			for try := 0; try < 4 && best > budget; try++ {
				time.Sleep(50 * time.Millisecond)
				c0 := cpuTime(t)
				time.Sleep(window)
				best = min(best, cpuTime(t)-c0)
			}
			t.Logf("idle process used %v of CPU in %v (%.2f%% of one CPU)", best, window, 100*float64(best)/float64(window))
			if best > budget {
				t.Fatalf("idle server used %v of CPU in %v, budget %v: something is still polling", best, window, budget)
			}
		})
	}
}
