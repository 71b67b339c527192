package netserver

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"mutps/internal/kvcore"
	"mutps/internal/obs"
)

// startTransportServer starts a server on the named transport's arm with
// cfg. The arm is picked by listener kind, as the server picks where an
// idle connection waits: TransportEpoll serves a plain TCP listener, which
// gets the parking lot (and skips off Linux, where there is none);
// TransportGoroutine serves the same listener behind hiddenListener, which
// gets no lot, as on every other platform.
func startTransportServer(t *testing.T, tr string, cfg Config) *Server {
	t.Helper()
	return startTransportStore(t, tr, cfg, kvcore.Config{Engine: kvcore.Hash, Workers: 3, CRWorkers: 1})
}

// startTransportStore is startTransportServer over a store opened with sc.
func startTransportStore(t *testing.T, tr string, cfg Config, sc kvcore.Config) *Server {
	t.Helper()
	store, err := kvcore.Open(sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv := serveTransport(t, store, tr, cfg)
	t.Cleanup(func() { srv.Close() })
	return srv
}

// hiddenListener hides a listener's concrete type, so the server cannot
// tell it is TCP and keeps every connection in its pipeline.
type hiddenListener struct{ net.Listener }

// serveTransport serves store on a fresh loopback listener of tr's arm
// (see startTransportServer) and checks the server reports tr.
func serveTransport(t *testing.T, store *kvcore.Store, tr string, cfg Config) *Server {
	t.Helper()
	if tr == TransportEpoll && !epollSupported {
		t.Skip("the parking lot requires linux")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if tr == TransportGoroutine {
		ln = hiddenListener{ln}
	}
	srv := ServeConfig(store, ln, cfg)
	if got := srv.Transport(); got != tr {
		srv.Close()
		t.Fatalf("serving via %s transport, want %s", got, tr)
	}
	return srv
}

// forEachTransport runs fn as a subtest against both arms.
func forEachTransport(t *testing.T, fn func(t *testing.T, srv *Server)) {
	forEachTransportCfg(t, Config{}, fn)
}

// forEachTransportCfg is forEachTransport with a server configuration.
func forEachTransportCfg(t *testing.T, cfg Config, fn func(t *testing.T, srv *Server)) {
	for _, tr := range []string{TransportGoroutine, TransportEpoll} {
		t.Run(tr, func(t *testing.T) { fn(t, startTransportServer(t, tr, cfg)) })
	}
}

// openConns is how many connections the server holds, parked or active.
func openConns(srv *Server) int {
	srv.tr.mu.Lock()
	defer srv.tr.mu.Unlock()
	return len(srv.tr.conns)
}

// eventually polls cond until it holds or d has passed.
func eventually(d time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(d); ; time.Sleep(2 * time.Millisecond) {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}

// reqFrame encodes one request frame: op, key, payload length, payload.
func reqFrame(op byte, key uint64, payload []byte) []byte {
	b := make([]byte, 13+len(payload))
	b[0] = op
	binary.LittleEndian.PutUint64(b[1:9], key)
	binary.LittleEndian.PutUint32(b[9:13], uint32(len(payload)))
	copy(b[13:], payload)
	return b
}

// readResp reads one status+body response frame.
func readResp(t *testing.T, r io.Reader) (byte, []byte) {
	t.Helper()
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		t.Fatalf("response header: %v", err)
	}
	body := make([]byte, binary.LittleEndian.Uint32(hdr[1:5]))
	if _, err := io.ReadFull(r, body); err != nil {
		t.Fatalf("response body: %v", err)
	}
	return hdr[0], body
}

// TestFrameDribbledByteByByte feeds a put and a get one byte at a time
// with pauses, so the server sees a partial header, then a partial
// payload, across many separate readiness wakeups (every gap is an EAGAIN
// on the epoll transport — mid-header included). The decode state must
// persist across all of them and produce exactly the same responses a
// single write would.
func TestFrameDribbledByteByByte(t *testing.T) {
	forEachTransport(t, func(t *testing.T, srv *Server) {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		val := bytes.Repeat([]byte{0xAB}, 40)
		for _, frame := range [][]byte{
			reqFrame(OpPut, 9, val),
			reqFrame(OpGet, 9, nil),
		} {
			for _, b := range frame {
				if _, err := conn.Write([]byte{b}); err != nil {
					t.Fatal(err)
				}
				time.Sleep(time.Millisecond)
			}
		}
		if st, _ := readResp(t, conn); st != StatusFound {
			t.Fatalf("put status = %d", st)
		}
		st, body := readResp(t, conn)
		if st != StatusFound || !bytes.Equal(body, val) {
			t.Fatalf("get = %d %x, want the 40-byte value back", st, body)
		}
	})
}

// TestLargeFrameSplitAcrossWakeups writes a put whose payload dwarfs the
// epoll transport's staging buffer in mid-size chunks with pauses: the
// decoder must switch into payload-spill mode on the first chunk and keep
// filling the leased payload across wakeups, and a frame sent immediately
// after must parse cleanly (no spilled bytes may leak into the header
// stream). The trailing frame reads a different key: a pipelined get of the
// key being put is concurrent with that put — the two may execute on
// different MR workers — so the big value is read back afterwards.
func TestLargeFrameSplitAcrossWakeups(t *testing.T) {
	forEachTransport(t, func(t *testing.T, srv *Server) {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		val := make([]byte, 200<<10)
		for i := range val {
			val[i] = byte(i * 7)
		}
		small := []byte("small")
		if _, err := conn.Write(reqFrame(OpPut, 12, small)); err != nil {
			t.Fatal(err)
		}
		if st, _ := readResp(t, conn); st != StatusFound {
			t.Fatalf("small put status = %d", st)
		}
		frame := append(reqFrame(OpPut, 11, val), reqFrame(OpGet, 12, nil)...)
		const chunk = 7000 // co-prime-ish with the 32 KiB staging buffer
		for off := 0; off < len(frame); off += chunk {
			end := min(off+chunk, len(frame))
			if _, err := conn.Write(frame[off:end]); err != nil {
				t.Fatal(err)
			}
			time.Sleep(500 * time.Microsecond)
		}
		if st, _ := readResp(t, conn); st != StatusFound {
			t.Fatalf("put status = %d", st)
		}
		if st, body := readResp(t, conn); st != StatusFound || !bytes.Equal(body, small) {
			t.Fatalf("get right behind the big put = %d %q, want %q", st, body, small)
		}
		if _, err := conn.Write(reqFrame(OpGet, 11, nil)); err != nil {
			t.Fatal(err)
		}
		st, body := readResp(t, conn)
		if st != StatusFound || !bytes.Equal(body, val) {
			t.Fatalf("get status = %d, body len %d, want the 200 KiB value back", st, len(body))
		}
	})
}

// TestHalfCloseDeliversInFlightResponses sends a burst of gets and
// immediately shuts down the write side (shutdown(SHUT_WR)). The server
// sees EOF with the whole burst still in flight; every response must
// still come back, in order, before the server closes the connection.
func TestHalfCloseDeliversInFlightResponses(t *testing.T) {
	forEachTransport(t, func(t *testing.T, srv *Server) {
		cli, err := Dial(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		const n = 16
		for k := uint64(0); k < n; k++ {
			if err := cli.Put(k, []byte{byte(k)}); err != nil {
				t.Fatal(err)
			}
		}
		cli.Close()

		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		var burst []byte
		for k := uint64(0); k < n; k++ {
			burst = append(burst, reqFrame(OpGet, k, nil)...)
		}
		if _, err := conn.Write(burst); err != nil {
			t.Fatal(err)
		}
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < n; k++ {
			st, body := readResp(t, conn)
			if st != StatusFound || len(body) != 1 || body[0] != byte(k) {
				t.Fatalf("response %d after half-close: status %d body %x", k, st, body)
			}
		}
		// Nothing else is owed: the server should now close its side.
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("after the owed responses: %v, want EOF", err)
		}
	})
}

// TestIdleConnReleasesBuffers drives a burst through a connection and then
// lets it idle: every leased buffer — read staging, payload, write chain —
// must return to the arena, on both transports. This is the measurable
// form of the zero-cost-idle guarantee.
func TestIdleConnReleasesBuffers(t *testing.T) {
	forEachTransport(t, func(t *testing.T, srv *Server) {
		pc, err := DialPipeline(srv.Addr().String(), 16)
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		val := bytes.Repeat([]byte{7}, 4096)
		var futs []*Future
		for k := uint64(0); k < 64; k++ {
			f, err := pc.Send(OpPut, k, val)
			if err != nil {
				t.Fatal(err)
			}
			futs = append(futs, f)
			if len(futs) == 16 {
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
		deadline := time.Now().Add(5 * time.Second)
		for {
			if n := srv.leaser.LeasedBytes(); n == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("idle connection still holds %d leased bytes", srv.leaser.LeasedBytes())
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// converse writes stream to a fresh connection — in one write, or cut at
// the given offsets with the given pause before each later piece — half-
// closes, and returns every byte the server answered before it hung up.
func converse(t *testing.T, addr string, stream []byte, cuts []int, pause func() time.Duration) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	got := make(chan []byte, 1)
	go func() {
		conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		b, _ := io.ReadAll(conn)
		got <- b
	}()
	off := 0
	for _, cut := range append(cuts, len(stream)) {
		if off > 0 {
			time.Sleep(pause())
		}
		if _, err := conn.Write(stream[off:cut]); err != nil {
			break // the server hung up on a fatal frame; what it said is in got
		}
		off = cut
	}
	conn.(*net.TCPConn).CloseWrite()
	return <-got
}

// TestDribbledStreamMatchesOneWrite: 10k frames cut at random offsets —
// mid-header, mid-payload, between frames — with random 0-3 ms pauses, so
// the pieces arrive on both sides of the park decision (a connection parks
// after 0.5-1 ms of silence), are answered byte for byte like the same
// stream sent in one write. Every frame's answer is independent of order
// and of the other connection: reads of preloaded keys, misses, writes to
// keys nothing reads, and frames the protocol rejects.
func TestDribbledStreamMatchesOneWrite(t *testing.T) {
	forEachTransport(t, func(t *testing.T, srv *Server) {
		for k := uint64(0); k < 64; k++ {
			srv.store.Preload(k, bytes.Repeat([]byte{byte(k)}, int(k)*3))
		}
		rng := rand.New(rand.NewSource(24))
		var stream []byte
		const frames = 10000
		for i := 0; i < frames; i++ {
			k := uint64(rng.Intn(64))
			switch rng.Intn(8) {
			case 0:
				stream = append(stream, reqFrame(OpPut, 1000+k, bytes.Repeat([]byte{1}, rng.Intn(300)))...)
			case 1:
				stream = append(stream, reqFrame(OpGet, 500+k, nil)...) // miss
			case 2:
				stream = append(stream, reqFrame(OpMGet, 0, AppendMGetRequest(nil, []uint64{k, 500 + k, (k + 1) % 64}))...)
			case 3:
				stream = append(stream, reqFrame(200, k, []byte("junk"))...) // unknown op
			case 4:
				stream = append(stream, reqFrame(OpPutTTL, 1000+k, []byte{1, 2})...) // short ttl payload
			case 5:
				stream = append(stream, reqFrame(OpDelete, 2000+k, nil)...) // never existed
			default:
				stream = append(stream, reqFrame(OpGet, k, nil)...)
			}
		}
		addr := srv.Addr().String()
		want := converse(t, addr, stream, nil, nil)
		var cuts []int
		for off := 0; ; {
			off += 1 + rng.Intn(2*len(stream)/400)
			if off >= len(stream) {
				break
			}
			cuts = append(cuts, off)
		}
		got := converse(t, addr, stream, cuts, func() time.Duration {
			return time.Duration(rng.Intn(3000)) * time.Microsecond
		})
		n := 0
		for b := want; len(b) >= 5; n++ {
			b = b[5+binary.LittleEndian.Uint32(b[1:5]):]
		}
		if n != frames {
			t.Fatalf("one write of %d frames got %d responses", frames, n)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("dribbled in %d pieces: %d response bytes differ from the %d of one write", len(cuts)+1, len(got), len(want))
		}
	})
}

// TestParkedConnsCostNothing is the idle-cost claim of the epoll transport
// as numbers: 500 idle connections add no goroutine and no leased byte to
// an empty server, and a burst on five of them is paid back within a
// second.
func TestParkedConnsCostNothing(t *testing.T) {
	srv := startTransportServer(t, TransportEpoll, Config{})
	base := runtime.NumGoroutine()
	const n = 500
	conns := make([]net.Conn, n)
	for i := range conns {
		c, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
	}
	atRest := func() bool {
		return openConns(srv) == n && runtime.NumGoroutine() <= base+2 && srv.leaser.LeasedBytes() == 0 &&
			(obs.Disabled || srv.parkedConns.Value() == n)
	}
	if !eventually(5*time.Second, atRest) {
		t.Fatalf("%d idle connections: %d open, %d goroutines over an empty server's %d, %d leased bytes, %d parked",
			n, openConns(srv), runtime.NumGoroutine()-base, base, srv.leaser.LeasedBytes(), srv.parkedConns.Value())
	}
	val := bytes.Repeat([]byte{9}, 2048)
	for round := 0; round < 20; round++ {
		for _, c := range conns[:5] {
			if _, err := c.Write(append(reqFrame(OpPut, 1, val), reqFrame(OpGet, 1, nil)...)); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range conns[:5] {
			readResp(t, c)
			readResp(t, c)
		}
	}
	if !eventually(time.Second, atRest) {
		t.Fatalf("1 s after a burst on 5 of %d: %d goroutines over the empty server's %d, %d leased bytes, %d parked",
			n, runtime.NumGoroutine()-base, base, srv.leaser.LeasedBytes(), srv.parkedConns.Value())
	}
}

// TestIdleConnReaped: a connection that completes no frame for IdleTimeout
// is closed by the server — by its pipeline's read deadline, or on epoll by
// the lot's sweep if it is parked — whether it never spoke, spoke and fell
// silent, or stopped half-way through a header (which never parks).
func TestIdleConnReaped(t *testing.T) {
	forEachTransportCfg(t, Config{IdleTimeout: 100 * time.Millisecond}, func(t *testing.T, srv *Server) {
		silent, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer silent.Close()
		spoke, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer spoke.Close()
		spoke.Write(reqFrame(OpGet, 1, nil))
		if st, _ := readResp(t, spoke); st != StatusNotFound {
			t.Fatalf("get status = %d", st)
		}
		stalled, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer stalled.Close()
		stalled.Write(reqFrame(OpGet, 1, nil)[:7])
		for _, c := range []net.Conn{silent, spoke, stalled} {
			c.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := c.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("idle connection read: %v, want the server's hang-up", err)
			}
		}
		if !eventually(5*time.Second, func() bool { return openConns(srv) == 0 }) {
			t.Fatalf("%d connections still open after all three were reaped", openConns(srv))
		}
	})
}

// TestKilledPeerReapedWithoutRequest: a peer that dies while its connection
// is idle — reset, not closed, and with no IdleTimeout to fall back on —
// is noticed and forgotten without another request arriving.
func TestKilledPeerReapedWithoutRequest(t *testing.T) {
	forEachTransport(t, func(t *testing.T, srv *Server) {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(reqFrame(OpGet, 1, nil))
		readResp(t, conn)
		time.Sleep(5 * time.Millisecond) // past the park decision
		if n := openConns(srv); n != 1 {
			t.Fatalf("%d connections open, want 1", n)
		}
		conn.(*net.TCPConn).SetLinger(0) // Close sends a reset
		conn.Close()
		// drop unlinks the connection before it closes it and settles the
		// gauges, so the gauges are polled too, not read once the map is empty.
		gaugesZero := func() bool {
			return obs.Disabled || (srv.openConns.Value() == 0 && srv.idleConns.Value() == 0 && srv.parkedConns.Value() == 0)
		}
		if !eventually(5*time.Second, func() bool { return openConns(srv) == 0 && gaugesZero() }) {
			t.Fatalf("after the reap: %d connections in the map, gauges %d open, %d idle, %d parked",
				openConns(srv), srv.openConns.Value(), srv.idleConns.Value(), srv.parkedConns.Value())
		}
	})
}

// TestMaxConnsCountsIdleConns: connections that are only waiting — parked,
// on epoll — fill the cap like busy ones.
func TestMaxConnsCountsIdleConns(t *testing.T) {
	forEachTransportCfg(t, Config{MaxConns: 3}, func(t *testing.T, srv *Server) {
		for i := 0; i < 3; i++ {
			c, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
		}
		if !eventually(5*time.Second, func() bool { return openConns(srv) == 3 }) {
			t.Fatalf("%d connections accepted, want 3", openConns(srv))
		}
		time.Sleep(5 * time.Millisecond)
		over, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer over.Close()
		over.SetReadDeadline(time.Now().Add(5 * time.Second))
		if st, body := readResp(t, over); st != StatusError || !strings.Contains(string(body), "connection limit reached") {
			t.Fatalf("fourth connection answered %d %q", st, body)
		}
	})
}

// TestTransportFollowsListener: where an idle connection waits is the
// platform's and the listener's call. ListenAndServe on Linux parks idle
// connections in the lot; a listener whose type is hidden does not, and
// neither does any listener off Linux.
func TestTransportFollowsListener(t *testing.T) {
	store, err := kvcore.Open(kvcore.Config{Engine: kvcore.Hash, Workers: 2, CRWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv, err := ListenAndServe(store, "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := TransportGoroutine
	if runtime.GOOS == "linux" {
		want = TransportEpoll
	}
	if got := srv.Transport(); got != want {
		t.Errorf("ListenAndServe on %s: %s transport, want %s", runtime.GOOS, got, want)
	}
	srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv = ServeConfig(store, hiddenListener{ln}, Config{})
	defer srv.Close()
	if got := srv.Transport(); got != TransportGoroutine {
		t.Errorf("a listener that hides its type: %s transport, want %s", got, TransportGoroutine)
	}
}

// TestCloseTwice: Close is idempotent and leaves nothing behind, whatever
// each connection was doing — waiting (parked, on epoll), mid-burst with
// responses unread, or just then sending its first bytes (mid-activation).
// A hundred servers over one store: no goroutine, leased byte, open
// connection or gauge count survives any of them.
func TestCloseTwice(t *testing.T) {
	for _, tr := range []string{TransportGoroutine, TransportEpoll} {
		t.Run(tr, func(t *testing.T) {
			store, err := kvcore.Open(kvcore.Config{Engine: kvcore.Hash, Workers: 3, CRWorkers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			base := runtime.NumGoroutine()
			burst := bytes.Repeat(append(reqFrame(OpPut, 7, make([]byte, 1024)), reqFrame(OpGet, 7, nil)...), 64)
			for round := 0; round < 100; round++ {
				srv := serveTransport(t, store, tr, Config{})
				var conns []net.Conn
				for i := 0; i < 9; i++ {
					c, err := net.Dial("tcp", srv.Addr().String())
					if err != nil {
						t.Fatal(err)
					}
					conns = append(conns, c)
				}
				for _, c := range conns[3:6] {
					c.Write(burst)
				}
				time.Sleep(time.Duration(round%4) * time.Millisecond)
				for _, c := range conns[6:] {
					c.Write(burst[:len(burst)/2+round%13])
				}
				if err := srv.Close(); err != nil {
					t.Fatalf("round %d: Close: %v", round, err)
				}
				if err := srv.Close(); err != nil {
					t.Fatalf("round %d: second Close: %v", round, err)
				}
				for _, c := range conns {
					c.Close()
				}
				if n, l := openConns(srv), srv.leaser.LeasedBytes(); n != 0 || l != 0 {
					t.Fatalf("round %d: after Close %d connections open, %d bytes leased", round, n, l)
				}
				if !obs.Disabled && (srv.openConns.Value() != 0 || srv.idleConns.Value() != 0 || srv.parkedConns.Value() != 0) {
					t.Fatalf("round %d: gauges after Close: %d open, %d idle, %d parked",
						round, srv.openConns.Value(), srv.idleConns.Value(), srv.parkedConns.Value())
				}
			}
			if !eventually(5*time.Second, func() bool { return runtime.NumGoroutine() <= base }) {
				t.Fatalf("%d goroutines after 100 closed servers, %d before", runtime.NumGoroutine(), base)
			}
		})
	}
}
