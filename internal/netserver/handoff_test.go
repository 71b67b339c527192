package netserver

import (
	"encoding/binary"
	"net"
	"sort"
	"testing"
	"time"

	"mutps/internal/obs"
)

// TestFirstRequestAfterIdle: hand-off invariant H1 seen from the wire. After
// 200 ms of silence every loop on the request path is asleep on its bell —
// decode stage in read, CR and MR workers, completion stage — and nothing
// periodic will deliver a request for them, so a get must travel the whole
// chain of rings (Send → CR worker → Flush → MR worker → Complete →
// completion stage) and come back promptly. The store runs no refresher,
// whose ring after every install would rescue a lost wake-up within 100 ms:
// here a lost ring hangs the get, and a ring replaced by something periodic
// blows the 5 ms bound. On epoll the connection is parked by then, so the
// get also crosses the lot: activation is inside the bound. A single round over
// the bound is reported but tolerated, since the host may deschedule the
// test itself for that long.
func TestFirstRequestAfterIdle(t *testing.T) {
	rounds := 200
	if testing.Short() {
		rounds = 20
	}
	const idle, bound = 200 * time.Millisecond, 5 * time.Millisecond
	forEachTransport(t, func(t *testing.T, srv *Server) {
		t.Parallel() // the transports idle side by side, each on its own store
		cli, err := DialTimeout(srv.Addr().String(), time.Second, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		// Key 1 is served by the MR layer (nothing is hot on an idle store),
		// key 2 misses: both cross every hand-off.
		if err := cli.Put(1, []byte("v")); err != nil {
			t.Fatal(err)
		}
		lat := make([]time.Duration, 0, rounds)
		for r := 0; r < rounds; r++ {
			time.Sleep(idle)
			t0 := time.Now()
			v, ok, err := cli.Get(uint64(1 + r%2))
			lat = append(lat, time.Since(t0))
			if err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
			if want := r%2 == 0; ok != want || (ok && string(v) != "v") {
				t.Fatalf("round %d: get = %q, %v", r, v, ok)
			}
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		t.Logf("first request after %v idle, %d rounds: p50=%v slowest=%v", idle, rounds, lat[len(lat)/2], lat[len(lat)-5:])
		if second := lat[len(lat)-2]; second > bound {
			t.Fatalf("first request after idle took %v and %v in the two slowest of %d rounds, bound %v",
				second, lat[len(lat)-1], rounds, bound)
		}
	})
}

// TestOversizedFrameRecordsNoLatency is the regression gate for the
// poisoned latency mean: a frame rejected from its 13-byte header (payload
// length over the limit) never had a decode timestamp, and retiring it used
// to record time.Since(zero time) — 2^63-1 ns — into the op's latency sum,
// which the autotuner reads as a mean.
func TestOversizedFrameRecordsNoLatency(t *testing.T) {
	if obs.Disabled {
		t.Skip("reads the latency histogram")
	}
	forEachTransport(t, func(t *testing.T, srv *Server) {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		var hdr [13]byte
		hdr[0] = OpPut
		binary.LittleEndian.PutUint64(hdr[1:9], 7)
		binary.LittleEndian.PutUint32(hdr[9:13], maxPayload+1)
		if _, err := conn.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if st, body := readResp(t, conn); st != StatusError || string(body) != string(errMsgPayloadTooLarge) {
			t.Fatalf("oversized frame answered %d %q", st, body)
		}
		sum := srv.store.Metrics().SnapshotMap()[`mutps_net_op_latency_nanoseconds_sum{op="put"}`]
		if sum > float64(time.Second) {
			t.Fatalf("one rejected frame added %.0f ns to the put latency sum", sum)
		}
	})
}
