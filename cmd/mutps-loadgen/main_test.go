package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mutps/internal/cluster"
	"mutps/internal/kvcore"
	"mutps/internal/obs"
)

// Contradictory or impossible command lines are rejected in one line
// before anything is dialed: -clients 0 used to divide by zero, and a
// second mode flag or a trace handed to -conns used to be dropped silently.
func TestRejectsBadCommandLines(t *testing.T) {
	for _, args := range [][]string{
		{"-clients", "0"},
		{"-cluster", "a:1", "-conns", "10"},
		{"-scenario", "size-shift", "-cluster", "a:1"},
		{"-conns", "10", "-trace", "t.csv"},
		{"-scenario", "size-shift", "-trace", "t.csv"},
		{"-conns", "10", "-active-fraction", "0"},
	} {
		var out bytes.Buffer
		err := run(append([]string{"-addr", "127.0.0.1:1"}, args...), &out)
		if err == nil || strings.Contains(err.Error(), "\n") || out.Len() != 0 {
			t.Errorf("%v: err %v, output %q; want a one-line error and no output", args, err, out.String())
		}
	}
}

// -ops not divisible by -clients is spread, not truncated, and a trace is
// striped across the clients, not replayed from its start by each: every
// line of a K-line trace of distinct puts lands exactly once.
func TestIssuesEveryOpAndEveryTraceLine(t *testing.T) {
	if obs.Disabled {
		t.Skip("counts come from the obs instruments")
	}
	l, err := cluster.LaunchLocal(1, cluster.LocalOptions{Config: kvcore.Config{Workers: 4, CRWorkers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	addr := l.Addrs()[0]

	var out bytes.Buffer
	if err := run([]string{"-addr", addr, "-keys", "500", "-ops", "1003", "-clients", "4", "-inflight", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "1003 ops across 4 clients") {
		t.Fatalf("summary does not report the 1003 ops asked for:\n%s", out.String())
	}

	const lines = 203
	var trace strings.Builder
	for k := 0; k < lines; k++ {
		fmt.Fprintf(&trace, "put,%d,8\n", 1000+k)
	}
	path := filepath.Join(t.TempDir(), "trace.csv")
	if err := os.WriteFile(path, []byte(trace.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-addr", addr, "-trace", path, "-ops", fmt.Sprint(lines), "-clients", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), fmt.Sprintf("%d ops across 4 clients", lines)) {
		t.Fatalf("summary does not report %d ops:\n%s", lines, out.String())
	}
	for k := uint64(1000); k < 1000+lines; k++ {
		if _, found, err := l.Store(0).Get(k); err != nil || !found {
			t.Fatalf("trace line for key %d was never replayed (found %v, err %v)", k, found, err)
		}
	}
}
