package netserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mutps/internal/kvcore"
)

func TestPipelineBasicOrdering(t *testing.T) {
	srv, _ := startServer(t, kvcore.Hash)
	pc, err := DialPipeline(srv.Addr().String(), 32)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()

	const n = 200
	futs := make([]*Future, 0, n)
	for i := uint64(0); i < n; i++ {
		v := make([]byte, 8)
		binary.LittleEndian.PutUint64(v, i)
		f, err := pc.Send(OpPut, i, v)
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	if err := pc.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, f := range futs {
		if st, _, err := f.Wait(); err != nil || st != StatusFound {
			t.Fatalf("put response: %d %v", st, err)
		}
	}
	// Pipelined reads: responses must match request order.
	futs = futs[:0]
	for i := uint64(0); i < n; i++ {
		f, err := pc.Send(OpGet, i, nil)
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	pc.Flush()
	for i, f := range futs {
		st, body, err := f.Wait()
		if err != nil || st != StatusFound {
			t.Fatalf("get %d: %d %v", i, st, err)
		}
		if binary.LittleEndian.Uint64(body) != uint64(i) {
			t.Fatalf("response %d out of order: got %d", i, binary.LittleEndian.Uint64(body))
		}
	}
}

func TestPipelineErrorResponsesDoNotDesync(t *testing.T) {
	srv, _ := startServer(t, kvcore.Hash)
	pc, err := DialPipeline(srv.Addr().String(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	// Scan on a hash engine errors; the following get must still line up.
	fErr, _ := pc.Send(OpScan, 0, []byte{1, 0, 0, 0})
	pc.Send(OpPut, 9, []byte("x"))
	fGet, _ := pc.Send(OpGet, 9, nil)
	pc.Flush()
	if _, _, err := fErr.Wait(); err == nil {
		t.Fatal("scan on hash engine must error")
	}
	st, body, err := fGet.Wait()
	if err != nil || st != StatusFound || string(body) != "x" {
		t.Fatalf("pipeline desynced after error: %d %q %v", st, body, err)
	}
}

func TestPipelineCloseFailsOutstanding(t *testing.T) {
	srv, _ := startServer(t, kvcore.Hash)
	pc, err := DialPipeline(srv.Addr().String(), 4)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := pc.Send(OpGet, 1, nil)
	pc.Close()
	if _, _, err := f.Wait(); err != nil {
		// Either it completed before close or it failed — both are fine;
		// what matters is that Wait returns.
		t.Log("outstanding future failed on close:", err)
	}
	if _, err := pc.Send(OpGet, 2, nil); err == nil {
		t.Fatal("send after close must fail")
	}
	pc.Close() // idempotent
}

func BenchmarkPipelinePutGet(b *testing.B) {
	store, err := kvcore.Open(kvcore.Config{Engine: kvcore.Hash, Workers: 3, CRWorkers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	ln, err := netListen()
	if err != nil {
		b.Fatal(err)
	}
	srv := Serve(store, ln)
	defer srv.Close()
	pc, err := DialPipeline(srv.Addr().String(), 128)
	if err != nil {
		b.Fatal(err)
	}
	defer pc.Close()
	val := make([]byte, 64)
	b.ResetTimer()
	futs := make([]*Future, 0, 128)
	for n := 0; n < b.N; n++ {
		f, err := pc.Send(OpPut, uint64(n%4096), val)
		if err != nil {
			b.Fatal(err)
		}
		futs = append(futs, f)
		if len(futs) == 128 {
			pc.Flush()
			for _, f := range futs {
				f.Wait()
				f.Release()
			}
			futs = futs[:0]
		}
	}
	pc.Flush()
	for _, f := range futs {
		f.Wait()
		f.Release()
	}
}

// TestPipelineAllocsPerOp gates the TCP fast path: with pooled futures,
// recycled response-body buffers, per-connection server frame scratch,
// frame headers encoded in place (in the bufio.Writer's buffer on the two
// write sides, in connection-owned scratch on the client's read side) and
// the store's pooled calls underneath, a steady-state pipelined get
// allocates nothing on either end. A header array declared on the stack
// escapes through the io.Writer/io.Reader it is passed to; each such
// header costs one allocation per op.
func TestPipelineAllocsPerOp(t *testing.T) {
	srv, store := startServer(t, kvcore.Hash)
	var v [8]byte
	binary.LittleEndian.PutUint64(v[:], 77)
	store.Put(3, v[:])
	pc, err := DialPipeline(srv.Addr().String(), 32)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()

	avg := testing.AllocsPerRun(300, func() {
		f, err := pc.Send(OpGet, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		pc.Flush()
		st, body, err := f.Wait()
		if err != nil || st != StatusFound || binary.LittleEndian.Uint64(body) != 77 {
			t.Fatalf("get = %d %x %v", st, body, err)
		}
		f.Release()
	})
	t.Logf("pipelined get: %.2f allocs/op", avg)
	if avg > 0 && !raceEnabled {
		t.Fatalf("pipelined get allocates %.2f times per op, want 0", avg)
	}
}

// TestPipelineScanAllocsPerOp gates the wire scan: a pipelined 50-entry
// scan on a tree store is encoded straight from the store call's pooled
// result buffers, so it allocates no more per op than a pipelined get on
// the same connection — neither side builds an intermediate entry list.
// Both read 0; half an allocation of slack keeps the gate about the scan
// rather than the get, and a scan that copied its entries out first (a
// []KV and a value blob) costs two.
func TestPipelineScanAllocsPerOp(t *testing.T) {
	srv, store := startWindowServer(t, kvcore.Tree, 32)
	const n = 50
	var v [8]byte
	for k := uint64(0); k < 2*n; k++ {
		binary.LittleEndian.PutUint64(v[:], k)
		store.Preload(k, v[:])
	}
	pc, err := DialPipeline(srv.Addr().String(), 32)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()

	roundTrip := func(op byte, key uint64, payload []byte, check func(body []byte)) {
		f, err := pc.Send(op, key, payload)
		if err != nil {
			t.Fatal(err)
		}
		pc.Flush()
		st, body, err := f.Wait()
		if err != nil || st != StatusFound {
			t.Fatalf("op %d: status %d, %v", op, st, err)
		}
		check(body)
		f.Release()
	}
	get := func() {
		roundTrip(OpGet, 3, nil, func(body []byte) {
			if binary.LittleEndian.Uint64(body) != 3 {
				t.Fatalf("get = %x", body)
			}
		})
	}
	scanCount := binary.LittleEndian.AppendUint32(nil, n)
	scan := func() {
		roundTrip(OpScan, 10, scanCount, func(body []byte) {
			// count(4), then key(8) len(4) value(8) per entry.
			if len(body) != 4+n*20 || binary.LittleEndian.Uint32(body) != n ||
				binary.LittleEndian.Uint64(body[4:]) != 10 {
				t.Fatalf("scan body: %d bytes, %x...", len(body), body[:min(len(body), 16)])
			}
		})
	}
	for i := 0; i < 32; i++ { // warm futures, call pool, scan buffers
		get()
		scan()
	}
	getAvg := testing.AllocsPerRun(300, get)
	scanAvg := testing.AllocsPerRun(300, scan)
	t.Logf("pipelined get: %.2f allocs/op, %d-entry scan: %.2f allocs/op", getAvg, n, scanAvg)
	if scanAvg > getAvg+0.5 && !raceEnabled {
		t.Fatalf("pipelined scan allocates %.2f times per op, a get %.2f", scanAvg, getAvg)
	}
}

// TestPipelineFutureRelease checks recycled futures come back clean and
// reuse their body buffers.
func TestPipelineFutureRelease(t *testing.T) {
	f := newFuture()
	f.status = StatusFound
	f.body = append(f.body, 1, 2, 3)
	f.complete()
	f.Wait()
	bodyCap := cap(f.body)
	f.Release()
	f2 := newFuture()
	if f2.status != 0 || f2.err != nil || len(f2.body) != 0 {
		t.Fatalf("recycled future carries stale state: %+v", f2)
	}
	if f2 == f && cap(f2.body) != bodyCap {
		t.Fatal("recycling must retain body capacity")
	}
	f2.complete()
	f2.Wait()
	f2.Release()
}

// TestFuturePark stresses the hand-off every Wait takes when its response
// is not in yet: Wait's one load and CAS(pending → parked) against
// the read loop's complete(). The hand-off subtest runs complete() on
// another goroutine at random points around Wait's load and CAS; the
// window subtests then run pipelined gets over TCP at windows 1 and 16 in
// bursts of random size, with a random pause before each Wait, so that
// some Waits find their response in and the rest park. There is no timer
// in any loop: a lost wake-up leaves a waiter asleep and fails by the
// watchdog's deadline. Every body must carry its own key, and every Wait
// must return with the future done and no token left in its park channel.
// A future completed twice shows as one of those once it is recycled: a
// Wait that returns before its own response, or a stray token that wakes
// the next one early.
func TestFuturePark(t *testing.T) {
	const cycles = 100_000
	watchdog := func(t *testing.T, run func() error) {
		t.Helper()
		errc := make(chan error, 1)
		go func() { errc <- run() }()
		select {
		case err := <-errc:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Minute):
			t.Fatal("lost wake-up: a Wait is still parked")
		}
	}
	// check validates a returned future: done, no stray token, its own key.
	check := func(f *Future, key uint64, st byte, body []byte, err error) error {
		if err != nil || st != StatusFound {
			return fmt.Errorf("key %d: status %d, %v", key, st, err)
		}
		if s := f.state.Load(); s != futDone || len(f.park) != 0 {
			return fmt.Errorf("key %d: Wait returned in state %d with %d park tokens", key, s, len(f.park))
		}
		if len(body) != 8 || binary.LittleEndian.Uint64(body) != key {
			return fmt.Errorf("key %d: body %x belongs to another request", key, body)
		}
		return nil
	}
	// pause runs for a random short while, or yields.
	var sink atomic.Uint64
	pause := func(rng *rand.Rand) {
		if n := rng.Intn(80); n >= 64 {
			runtime.Gosched()
		} else {
			for i := 0; i < n; i++ {
				sink.Add(1)
			}
		}
	}

	t.Run("handoff", func(t *testing.T) {
		type job struct {
			f   *Future
			key uint64
		}
		jobs := make(chan job)
		defer close(jobs)
		go func() {
			rng := rand.New(rand.NewSource(1))
			for j := range jobs {
				pause(rng)
				j.f.status = StatusFound
				j.f.body = binary.LittleEndian.AppendUint64(j.f.body[:0], j.key)
				j.f.complete()
			}
		}()
		watchdog(t, func() error {
			rng := rand.New(rand.NewSource(2))
			for key := uint64(0); key < cycles; key++ {
				f := newFuture()
				jobs <- job{f, key}
				pause(rng)
				st, body, err := f.Wait()
				if err := check(f, key, st, body, err); err != nil {
					return err
				}
				f.Release()
			}
			return nil
		})
	})

	for _, window := range []int{1, 16} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			srv, store := startWindowServer(t, kvcore.Hash, window)
			const nKeys = 1024
			var v [8]byte
			for k := uint64(0); k < nKeys; k++ {
				binary.LittleEndian.PutUint64(v[:], k)
				store.Preload(k, v[:])
			}
			pc, err := DialPipeline(srv.Addr().String(), window)
			if err != nil {
				t.Fatal(err)
			}
			defer pc.Close()
			watchdog(t, func() error {
				rng := rand.New(rand.NewSource(int64(window)))
				futs := make([]*Future, 0, window)
				keys := make([]uint64, 0, window)
				for done := 0; done < cycles; {
					for n := 1 + rng.Intn(window); len(futs) < n; {
						key := uint64(rng.Intn(nKeys))
						f, err := pc.Send(OpGet, key, nil)
						if err != nil {
							return err
						}
						futs, keys = append(futs, f), append(keys, key)
					}
					if err := pc.Flush(); err != nil {
						return err
					}
					for i, f := range futs {
						pause(rng)
						st, body, err := f.Wait()
						if err := check(f, keys[i], st, body, err); err != nil {
							return err
						}
						f.Release()
					}
					done += len(futs)
					futs, keys = futs[:0], keys[:0]
				}
				return nil
			})
		})
	}
}

// netListen wraps net.Listen for benchmarks (keeps the test file free of a
// direct net import dependency in its main body).
func netListen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// readRequest consumes one request frame, reporting whether one arrived.
func readRequest(conn net.Conn) bool {
	var hdr [13]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return false
	}
	_, err := io.CopyN(io.Discard, conn, int64(binary.LittleEndian.Uint32(hdr[9:13])))
	return err == nil
}

// TestPipelineReaderDeathIsTerminal is the stranded-future regression: when
// the read loop dies — a garbled length, a read deadline, a peer that half-
// closes — while the socket itself stays up, the connection must end there.
// A later Send used to enqueue, reach the peer, and park its waiter forever.
func TestPipelineReaderDeathIsTerminal(t *testing.T) {
	for _, tc := range []struct {
		name      string
		misbehave func(conn *net.TCPConn) // the peer's answer to the first request
		deadline  time.Duration
		cause     func(err error) bool
	}{
		{"oversized-length",
			func(conn *net.TCPConn) { conn.Write([]byte{StatusFound, 0xff, 0xff, 0xff, 0xff}) }, 0,
			func(err error) bool { return errors.Is(err, errOversized) }},
		{"read-deadline", func(*net.TCPConn) {}, 50 * time.Millisecond,
			func(err error) bool {
				var ne net.Error
				return errors.As(err, &ne) && ne.Timeout()
			}},
		{"peer-half-close", func(conn *net.TCPConn) { conn.CloseWrite() }, 0,
			func(err error) bool { return errors.Is(err, io.EOF) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := netListen()
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				if readRequest(conn) {
					tc.misbehave(conn.(*net.TCPConn))
				}
				// Keep reading, so nothing but the client's own bookkeeping
				// can fail the second request.
				for readRequest(conn) {
				}
			}()
			pc, err := DialPipeline(ln.Addr().String(), 8)
			if err != nil {
				t.Fatal(err)
			}
			defer pc.Close()
			if tc.deadline > 0 {
				pc.SetDeadline(time.Now().Add(tc.deadline))
			}
			first, err := pc.Send(OpGet, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := pc.Flush(); err != nil {
				t.Fatal(err)
			}
			if _, _, err := first.Wait(); !tc.cause(err) {
				t.Fatalf("first request: err = %v, want the transport failure", err)
			}

			failed := make(chan error, 1)
			go func() {
				f, err := pc.Send(OpGet, 2, nil)
				if err == nil {
					pc.Flush()
					_, _, err = f.Wait()
				}
				failed <- err
			}()
			select {
			case err := <-failed:
				if !tc.cause(err) || !strings.Contains(err.Error(), "broken") {
					t.Fatalf("second request: err = %v, want a broken-connection error wrapping the cause", err)
				}
			case <-time.After(100 * time.Millisecond):
				t.Fatal("second request after reader death neither failed nor completed")
			}
			if err := pc.Flush(); !tc.cause(err) {
				t.Fatalf("Flush after reader death: %v, want the cause", err)
			}
		})
	}
}
