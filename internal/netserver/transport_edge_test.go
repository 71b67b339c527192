package netserver

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"mutps/internal/kvcore"
)

// startTransportServer starts a server on the named transport. Epoll
// requests skip on platforms without it, so the suite stays portable
// while exercising both cost models on Linux.
func startTransportServer(t *testing.T, tr string) *Server {
	t.Helper()
	if tr == TransportEpoll && !epollSupported {
		t.Skip("epoll transport requires linux")
	}
	store, err := kvcore.Open(kvcore.Config{Engine: kvcore.Hash, Workers: 3, CRWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ListenAndServe(store, "127.0.0.1:0", Config{Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Transport(); got != tr {
		t.Fatalf("serving via %s transport, requested %s", got, tr)
	}
	t.Cleanup(func() {
		srv.Close()
		store.Close()
	})
	return srv
}

// forEachTransport runs fn as a subtest against both transports.
func forEachTransport(t *testing.T, fn func(t *testing.T, srv *Server)) {
	for _, tr := range []string{TransportGoroutine, TransportEpoll} {
		t.Run(tr, func(t *testing.T) { fn(t, startTransportServer(t, tr)) })
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
