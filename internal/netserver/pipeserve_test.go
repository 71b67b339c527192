package netserver

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"mutps/internal/kvcore"
	"mutps/internal/rpc"
)

// startWindowServer starts a server with an explicit per-connection
// window over a fresh store.
func startWindowServer(t *testing.T, engine kvcore.Engine, window int) (*Server, *kvcore.Store) {
	t.Helper()
	store, err := kvcore.Open(kvcore.Config{Engine: engine, Workers: 4, CRWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeConfig(store, ln, Config{MaxInflight: window})
	t.Cleanup(func() {
		srv.Close()
		store.Close()
	})
	return srv, store
}

// expect is one request of a pipelined burst together with the response
// it must produce at its exact FIFO position.
type expect struct {
	op      byte
	key     uint64
	payload []byte

	status byte
	body   []byte // nil with structural=false means "must be empty"
	// structural responses (stats2) are checked for shape, not bytes
	structural bool
}

// TestPipelinedFIFOOrderingMixed is the response-ordering gate for the
// pipelined executor: 1000 iterations of a shuffled mixed burst — hit
// gets, miss gets, puts, found/missing deletes, scans (a barrier op),
// stats2 (a barrier), and unknown-op errors — over one connection,
// asserting every response byte-for-byte at its request's position.
func TestPipelinedFIFOOrderingMixed(t *testing.T) {
	srv, store := startWindowServer(t, kvcore.Tree, 16)

	// Stable keys 0..63 are never written after preload: gets and the
	// scan-range [0,4) stay deterministic throughout.
	stable := make([][]byte, 64)
	for k := uint64(0); k < 64; k++ {
		v := make([]byte, 8)
		binary.LittleEndian.PutUint64(v, k)
		stable[k] = v
		store.Preload(k, v)
	}
	iters := 1000
	if testing.Short() {
		iters = 100
	}
	// One preloaded victim per iteration for the delete-found path.
	for i := 0; i < iters; i++ {
		store.Preload(5_000_000+uint64(i), []byte("victim"))
	}
	var scanBody []byte
	{
		var tmp [12]byte
		scanBody = append(scanBody, 4, 0, 0, 0)
		for k := uint64(0); k < 4; k++ {
			binary.LittleEndian.PutUint64(tmp[0:8], k)
			binary.LittleEndian.PutUint32(tmp[8:12], 8)
			scanBody = append(scanBody, tmp[:]...)
			scanBody = append(scanBody, stable[k]...)
		}
	}
	scanCount := []byte{4, 0, 0, 0}

	pc, err := DialPipeline(srv.Addr().String(), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()

	putVal := []byte("fresh-value")
	futs := make([]*Future, 0, 16)
	for i := 0; i < iters; i++ {
		u := uint64(i)
		sk := u % 64
		burst := []expect{
			{op: OpGet, key: sk, status: StatusFound, body: stable[sk]},
			{op: OpGet, key: 7_000_000 + u, status: StatusNotFound},
			{op: OpPut, key: 1_000_000 + u, payload: putVal, status: StatusFound},
			{op: OpDelete, key: 5_000_000 + u, status: StatusFound},
			{op: OpDelete, key: 6_000_000 + u, status: StatusNotFound},
			{op: OpScan, key: 0, payload: scanCount, status: StatusFound, body: scanBody},
			{op: 4, key: 0, status: StatusError}, // the reserved hole
			{op: OpStats2, key: 0, status: StatusFound, structural: true},
			{op: 99, key: 0, status: StatusError},
			{op: OpGet, key: (sk + 1) % 64, status: StatusFound, body: stable[(sk+1)%64]},
			{op: OpPut, key: 2_000_000 + u, payload: putVal, status: StatusFound},
			{op: OpGet, key: 8_000_000 + u, status: StatusNotFound},
		}
		rng := rand.New(rand.NewSource(int64(i)))
		rng.Shuffle(len(burst), func(a, b int) { burst[a], burst[b] = burst[b], burst[a] })

		futs = futs[:0]
		for _, req := range burst {
			f, err := pc.Send(req.op, req.key, req.payload)
			if err != nil {
				t.Fatalf("iter %d: send: %v", i, err)
			}
			futs = append(futs, f)
		}
		if err := pc.Flush(); err != nil {
			t.Fatal(err)
		}
		for j, f := range futs {
			st, body, err := f.Wait()
			req := burst[j]
			if req.status == StatusError {
				if err == nil {
					t.Fatalf("iter %d pos %d (op %d): want error response", i, j, req.op)
				}
			} else if err != nil {
				t.Fatalf("iter %d pos %d (op %d key %d): %v", i, j, req.op, req.key, err)
			}
			if st != req.status {
				t.Fatalf("iter %d pos %d (op %d key %d): status %d, want %d",
					i, j, req.op, req.key, st, req.status)
			}
			switch {
			case req.structural:
				if _, derr := decodeStats2(body); derr != nil {
					t.Fatalf("iter %d pos %d: stats2 undecodable: %v", i, j, derr)
				}
			case req.status == StatusError:
				if len(body) == 0 {
					t.Fatalf("iter %d pos %d: error response with empty message", i, j)
				}
			default:
				if !bytes.Equal(body, req.body) {
					t.Fatalf("iter %d pos %d (op %d key %d): body %x, want %x",
						i, j, req.op, req.key, body, req.body)
				}
			}
			f.Release()
		}
	}
}

// TestScanBarrierSeesEarlierPuts pins the barrier contract: a scan
// executes at its FIFO position, after every earlier op on the connection
// has retired, so a scan sent in the same flush as N puts over its range
// returns every one of the new values. Pipelined gets in the same flush
// could not promise that (they may execute before the puts).
func TestScanBarrierSeesEarlierPuts(t *testing.T) {
	const n = 64
	srv, store := startWindowServer(t, kvcore.Tree, 2*n)
	for k := uint64(0); k < n; k++ {
		store.Preload(k, []byte("initial"))
	}
	pc, err := DialPipeline(srv.Addr().String(), 2*n)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()

	scanCount := binary.LittleEndian.AppendUint32(nil, n)
	for round := 0; round < 50; round++ {
		want := make([][]byte, n)
		puts := make([]*Future, n)
		for k := uint64(0); k < n; k++ {
			// Sizes vary by round and key, so puts replace items as well
			// as overwrite them in place.
			want[k] = bytes.Repeat([]byte{byte(round)}, 8+int(k+uint64(round))%57)
			if puts[k], err = pc.Send(OpPut, k, want[k]); err != nil {
				t.Fatal(err)
			}
		}
		scan, err := pc.Send(OpScan, 0, scanCount)
		if err != nil {
			t.Fatal(err)
		}
		if err := pc.Flush(); err != nil {
			t.Fatal(err)
		}
		for k, f := range puts {
			if st, _, err := f.Wait(); err != nil || st != StatusFound {
				t.Fatalf("round %d: put %d: status %d, %v", round, k, st, err)
			}
			f.Release()
		}
		st, body, err := scan.Wait()
		if err != nil || st != StatusFound {
			t.Fatalf("round %d: scan: status %d, %v", round, st, err)
		}
		kvs, err := decodeScan(body)
		if err != nil {
			t.Fatal(err)
		}
		scan.Release()
		if len(kvs) != n {
			t.Fatalf("round %d: scan returned %d entries, want %d", round, len(kvs), n)
		}
		for k, kv := range kvs {
			if kv.Key != uint64(k) || !bytes.Equal(kv.Value, want[k]) {
				t.Fatalf("round %d: entry %d = key %d value %x, want key %d value %x",
					round, k, kv.Key, kv.Value, k, want[k])
			}
		}
	}
}

// TestPipelinedBackloggedShedFIFO drives the shed path deterministically:
// a submit hook fails selected keys with rpc.ErrBacklogged, and the
// StatusBacklogged replies must land at exactly those FIFO positions while
// surrounding requests execute normally — the wire-order invariant the
// loadgen's skip-on-backlogged accounting depends on.
func TestPipelinedBackloggedShedFIFO(t *testing.T) {
	const shedBit = uint64(1) << 60
	hook := func(op byte, key uint64) error {
		if key&shedBit != 0 {
			return rpc.ErrBacklogged
		}
		return nil
	}
	submitHook.Store(&hook)
	t.Cleanup(func() { submitHook.Store(nil) })

	srv, store := startWindowServer(t, kvcore.Hash, 8)
	val := []byte("v")
	for k := uint64(0); k < 8; k++ {
		store.Preload(k, val)
	}
	pc, err := DialPipeline(srv.Addr().String(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()

	for iter := 0; iter < 50; iter++ {
		futs := make([]*Future, 0, 24)
		shed := make([]bool, 0, 24)
		rng := rand.New(rand.NewSource(int64(iter)))
		for n := 0; n < 24; n++ {
			key := uint64(rng.Intn(8))
			doomed := rng.Intn(3) == 0
			if doomed {
				key |= shedBit
			}
			op := OpGet
			var payload []byte
			if rng.Intn(2) == 0 {
				op = OpPut
				payload = val
			}
			f, err := pc.Send(op, key, payload)
			if err != nil {
				t.Fatal(err)
			}
			futs = append(futs, f)
			shed = append(shed, doomed)
		}
		if err := pc.Flush(); err != nil {
			t.Fatal(err)
		}
		for j, f := range futs {
			st, _, err := f.Wait()
			if shed[j] {
				if st != StatusBacklogged || !errors.Is(err, ErrBacklogged) {
					t.Fatalf("iter %d pos %d: status %d err %v, want backlogged", iter, j, st, err)
				}
			} else if err != nil || st != StatusFound {
				t.Fatalf("iter %d pos %d: status %d err %v, want found", iter, j, st, err)
			}
			f.Release()
		}
	}
}

// TestPipelineSendWriteErrorFailsFuture is the stranded-future regression
// test: when a Send's transport write fails after the future is already
// enqueued to the read loop, the future must still complete (with an
// error) instead of desyncing the reader and hanging its waiter.
func TestPipelineSendWriteErrorFailsFuture(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	pc, err := DialPipeline(ln.Addr().String(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	// Slam the server side shut so client writes eventually error. A
	// payload far beyond every socket buffer forces the bufio flush-through
	// to surface the error inside Send itself, after the enqueue.
	srvConn := <-accepted
	srvConn.Close()

	big := make([]byte, 8<<20)
	var futs []*Future
	sendErred := false
	for i := 0; i < 16 && !sendErred; i++ {
		f, err := pc.Send(OpPut, uint64(i), big)
		if err != nil {
			sendErred = true
			break
		}
		futs = append(futs, f)
	}
	if !sendErred {
		t.Fatal("send against a closed peer never errored")
	}
	// Every future handed out before the failure must complete.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, f := range futs {
			if _, _, err := f.Wait(); err == nil {
				t.Error("future on a broken pipeline completed without error")
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("futures enqueued before the write error were stranded")
	}
	// Later sends fail fast via bufio's sticky error.
	if _, err := pc.Send(OpGet, 1, nil); err == nil {
		t.Fatal("send after a write failure must error")
	}
}

// TestWindowOneIsSynchronous pins the degenerate window: MaxInflight 1
// serializes the server to one op at a time (the old run-to-completion
// behaviour) yet everything still round-trips.
func TestWindowOneIsSynchronous(t *testing.T) {
	srv, _ := startWindowServer(t, kvcore.Hash, 1)
	cli, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Put(1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := cli.Get(1)
	if err != nil || !ok || string(v) != "one" {
		t.Fatalf("get = %q %v %v", v, ok, err)
	}
	pc, err := DialPipeline(srv.Addr().String(), 32)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	var futs []*Future
	for i := 0; i < 100; i++ {
		f, err := pc.Send(OpGet, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	pc.Flush()
	for i, f := range futs {
		st, body, err := f.Wait()
		if err != nil || st != StatusFound || string(body) != "one" {
			t.Fatalf("get %d via window-1 server: %d %q %v", i, st, body, err)
		}
		f.Release()
	}
}
