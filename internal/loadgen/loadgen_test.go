package loadgen

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mutps/internal/cluster"
	"mutps/internal/kvcore"
	"mutps/internal/netserver"
	"mutps/internal/obs"
	"mutps/internal/workload"
)

// launch starts one in-process tree-engine shard: a store, its netserver,
// and so an address for every client type.
func launch(t *testing.T) *cluster.Local {
	t.Helper()
	l, err := cluster.LaunchLocal(1, cluster.LocalOptions{Config: kvcore.Config{Engine: kvcore.Tree, Workers: 4, CRWorkers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	return l
}

func mixed(seed uint64) Source {
	return workload.NewGenerator(workload.Config{Keys: 512, Mix: workload.Mix{GetFrac: 0.4, ScanFrac: 0.1, DeleteFrac: 0.1},
		ValueSize: workload.UniformSize{Min: 8, Max: 200}, ScanLen: 5, Seed: seed})
}

// Drive issues exactly n requests, never has more than the window in
// flight at the server, and returns with the connection fully drained.
func TestDriveCountWindowDrain(t *testing.T) {
	if obs.Disabled {
		t.Skip("counts come from the obs instruments")
	}
	const window, n = 4, 3000
	l := launch(t)
	// A client window far deeper than the driver's: only the driver bounds
	// what is in flight.
	pc, err := netserver.DialPipeline(l.Addrs()[0], 16*window)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	metric := func(name string) float64 { return l.Store(0).Metrics().SnapshotMap()[name] }

	stop := make(chan struct{})
	var highWater float64
	var poll sync.WaitGroup
	poll.Add(1)
	go func() {
		defer poll.Done()
		for {
			select {
			case <-stop:
				return
			default:
				highWater = max(highWater, metric("mutps_net_inflight"))
			}
		}
	}()
	var d *Driver
	res, err := Run(1, func(w *Worker) error {
		d = NewDriver(w, mixed(1), window, 64, time.Minute, time.Second)
		return d.Drive(pc, n)
	})
	close(stop)
	poll.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Snap.Count != n || res.Shed != 0 {
		t.Fatalf("recorded %d samples and %d shed, want %d and 0", res.Snap.Count, res.Shed, n)
	}
	if got := metric("mutps_net_ops_retired_total"); got != n {
		t.Fatalf("server retired %v requests, want %d", got, n)
	}
	if highWater < 2 || highWater > window {
		t.Fatalf("server in-flight high-water %v, want within (1, %d]", highWater, window)
	}
	if len(d.window) != 0 || metric("mutps_net_inflight") != 0 {
		t.Fatalf("not drained: %d futures in the window, server in-flight %v", len(d.window), metric("mutps_net_inflight"))
	}
}

// shedFirst is a peer that answers StatusBacklogged to the first frame it
// reads, after delay, and StatusNotFound to every later one. It returns
// the dial address and a function reporting how many frames it has read.
func shedFirst(t *testing.T, delay time.Duration) (addr string, frames func() int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var seen atomic.Int64
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		var hdr [13]byte // op, key, payload length
		for {
			if _, err := io.ReadFull(r, hdr[:]); err != nil {
				return
			}
			if _, err := r.Discard(int(binary.LittleEndian.Uint32(hdr[9:]))); err != nil {
				return
			}
			resp := [5]byte{netserver.StatusNotFound} // status, payload length 0
			if seen.Add(1) == 1 {
				time.Sleep(delay)
				resp[0] = netserver.StatusBacklogged
			}
			if _, err := conn.Write(resp[:]); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String(), seen.Load
}

// A shed request is resent at window 1, its clock still running from the
// first attempt; with a deeper window it is counted and skipped.
func TestDriveShed(t *testing.T) {
	if obs.Disabled {
		t.Skip("counts come from the obs instruments")
	}
	const delay = 30 * time.Millisecond
	for _, tc := range []struct {
		window            int
		wantFrames, wantN int64
	}{{1, 4, 3}, {4, 3, 2}} {
		addr, frames := shedFirst(t, delay)
		pc, err := netserver.DialPipeline(addr, tc.window)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(1, func(w *Worker) error {
			return NewDriver(w, mixed(1), tc.window, 64, 0, 0).Drive(pc, 3)
		})
		pc.Close()
		if err != nil {
			t.Fatal(err)
		}
		if frames() != tc.wantFrames || int64(res.Snap.Count) != tc.wantN || res.Shed != 1 {
			t.Fatalf("window %d: peer read %d frames, %d samples, %d shed; want %d, %d, 1",
				tc.window, frames(), res.Snap.Count, res.Shed, tc.wantFrames, tc.wantN)
		}
		if tc.window == 1 && time.Duration(res.Snap.Max) < delay {
			t.Fatalf("resent request's sample is %v: its clock restarted after the %v shed", time.Duration(res.Snap.Max), delay)
		}
	}
}

// Sparse deals every op, touches every connection once ops ≥ conns×burst,
// and never has two workers on one connection.
func TestSparseRotation(t *testing.T) {
	const conns, active = 10, 4
	for _, ops := range []int{conns * SparseBurst, conns*SparseBurst + 7} {
		var busy [conns]atomic.Bool
		var touched [conns]atomic.Int64
		var issued atomic.Int64
		_, err := Sparse(conns, active, ops, func(*Worker) func(conn, n int) error {
			return func(conn, n int) error {
				if n < 1 || n > SparseBurst {
					return fmt.Errorf("burst of %d", n)
				}
				if !busy[conn].CompareAndSwap(false, true) {
					return fmt.Errorf("connection %d driven by two workers at once", conn)
				}
				time.Sleep(100 * time.Microsecond)
				touched[conn].Add(1)
				issued.Add(int64(n))
				busy[conn].Store(false)
				return nil
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if issued.Load() != int64(ops) {
			t.Fatalf("issued %d ops, want %d", issued.Load(), ops)
		}
		for i := range touched {
			if touched[i].Load() == 0 {
				t.Fatalf("ops %d: connection %d never driven", ops, i)
			}
		}
	}
}

// A scan reaches Scan where the client has one and degrades to a get on
// the cluster client; puts, gets and deletes land on all three.
func TestSyncOnEveryClientType(t *testing.T) {
	l := launch(t)
	nc, err := netserver.Dial(l.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	cc, err := cluster.Dial(cluster.Config{Addrs: l.Addrs()})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	for i, kv := range []KV{l.Store(0), nc, cc} {
		key := uint64(100 + i)
		s := NewSync(nil, kv, 16)
		for _, step := range []struct {
			req  workload.Request
			size int // what a get of key must return afterwards; -1 = a miss
		}{
			{workload.Request{Op: workload.OpPut, Key: key, ValueSize: 40}, 40},
			{workload.Request{Op: workload.OpPut, Key: key}, 16},
			{workload.Request{Op: workload.OpGet, Key: key}, 16},
			{workload.Request{Op: workload.OpScan, Key: key, ScanCount: 3}, 16},
			{workload.Request{Op: workload.OpDelete, Key: key}, -1},
		} {
			if err := s.Do(step.req); err != nil {
				t.Fatalf("%T: %v: %v", kv, step.req.Op, err)
			}
			v, found, err := kv.Get(key)
			if err != nil || found != (step.size >= 0) || (found && len(v) != step.size) {
				t.Fatalf("%T after %v: get = %d bytes, found %v, err %v; want %d", kv, step.req.Op, len(v), found, err, step.size)
			}
		}
	}
	if _, ok := KV(cc).(scanner); ok {
		t.Fatal("cluster.Client grew a Scan: drop the degrade-to-get note from Sync.Do")
	}
}

// A batched frame is one sample per key: n gets through 8-key mget
// batches record n samples, over about n/8 frames.
func TestSyncDriveRecordsPerKey(t *testing.T) {
	if obs.Disabled {
		t.Skip("counts come from the obs instruments")
	}
	l := launch(t)
	cc, err := cluster.Dial(cluster.Config{Addrs: l.Addrs()})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	const n, workers, batch = 1001, 3, 8
	res, err := Run(workers, func(w *Worker) error {
		return NewSync(w, cc, 16).Drive(mixed(uint64(w.ID)), Share(n, workers, w.ID), batch)
	})
	if err != nil {
		t.Fatal(err)
	}
	frames := cc.Metrics().SnapshotMap()["mutps_cluster_mget_frames_total"]
	if res.Snap.Count != n || frames == 0 || frames > n/2 {
		t.Fatalf("%d samples over %v mget frames, want %d samples over far fewer frames", res.Snap.Count, frames, n)
	}
}

// N workers that split a K-line trace by Stripe and Share issue each line
// exactly once (one whole-trace replay per worker sent the first K/N lines
// N times and the rest never); an empty trace is an error, not a panic.
func TestStripeReplaysEachLineOnce(t *testing.T) {
	for _, tc := range []struct{ lines, workers int }{{10, 4}, {12, 4}, {3, 5}, {1, 1}} {
		trace := make([]workload.Request, tc.lines)
		for i := range trace {
			trace[i].Key = uint64(i)
		}
		seen := make([]int, tc.lines)
		for w := 0; w < tc.workers; w++ {
			src := Stripe(trace, w, tc.workers)
			for i := Share(tc.lines, tc.workers, w); i > 0; i-- {
				seen[src.Next().Key]++
			}
		}
		for line, n := range seen {
			if n != 1 {
				t.Fatalf("%d lines over %d workers: line %d issued %d times", tc.lines, tc.workers, line, n)
			}
		}
	}

	path := filepath.Join(t.TempDir(), "trace.csv")
	if err := os.WriteFile(path, []byte("# no requests\n\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(path, 0); err == nil {
		t.Fatal("an empty trace loaded without error")
	}
	if err := os.WriteFile(path, []byte("get,1\nput,2,8\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if trace, err := ReadTrace(path, 0); err != nil || len(trace) != 2 {
		t.Fatalf("ReadTrace = %d requests, %v", len(trace), err)
	}
}
