package chaos

import (
	"encoding/binary"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countFDs returns the process's open file-descriptor count from
// /proc/self/fd, or -1 where procfs is unavailable (the storm test then
// checks goroutines only).
func countFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// TestConnectDisconnectStorm slams the server with 5000 connections
// arriving and dying as fast as the dialer can drive them, in three
// habits: connect-and-vanish, one polite request, and a request followed
// by an abrupt RST (SO_LINGER=0) with the response possibly still in
// flight. Afterwards the server must be fully healthy — every
// connection's fd closed (checked against /proc/self/fd, since client and
// server share this process), every per-connection goroutine gone, and a
// fresh connection served normally. On Linux the server parks idle
// connections, so the storm also races park and activation.
func TestConnectDisconnectStorm(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, s := startPipelinedServer(t, 0)
	s.Preload(1, []byte("storm-value"))
	addr := srv.Addr().String()
	// Let the accept machinery finish starting before baselining fds.
	time.Sleep(50 * time.Millisecond)
	fdBase := countFDs()

	const total = 5000
	const workers = 128
	getFrame := make([]byte, 13)
	binary.LittleEndian.PutUint64(getFrame[1:9], 1)
	var next atomic.Int64
	var served atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i > total {
					return
				}
				var conn net.Conn
				var err error
				for attempt := 0; attempt < 5; attempt++ {
					conn, err = net.Dial("tcp", addr)
					if err == nil {
						break
					}
					time.Sleep(time.Duration(attempt+1) * time.Millisecond)
				}
				if err != nil {
					t.Errorf("dial during storm: %v", err)
					return
				}
				switch i % 3 {
				case 0:
					// Connect and vanish without a byte.
				case 1:
					// One polite request, response read, clean close.
					if _, err := conn.Write(getFrame); err == nil {
						var hdr [5]byte
						if _, err := io.ReadFull(conn, hdr[:]); err == nil {
							body := make([]byte, binary.LittleEndian.Uint32(hdr[1:5]))
							if _, err := io.ReadFull(conn, body); err == nil {
								served.Add(1)
							}
						}
					}
				case 2:
					// Request sent, then an immediate RST: the server may be
					// mid-retirement or mid-flush when the reset lands.
					conn.Write(getFrame)
					conn.(*net.TCPConn).SetLinger(0)
				}
				conn.Close()
			}
		}()
	}
	WithinDeadline(t, 2*time.Minute, "connection storm", wg.Wait)
	if served.Load() == 0 {
		t.Fatal("storm served zero polite requests; the scenario never exercised the server")
	}

	// Every storm fd must drain: the server notices EOF/RST and closes its
	// side asynchronously, so poll. A small slack absorbs unrelated runtime
	// fds (netpoll, timers) that may have appeared since the baseline.
	if fdBase >= 0 {
		const slack = 16
		deadline := time.Now().Add(30 * time.Second)
		n := countFDs()
		for n > fdBase+slack && time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
			n = countFDs()
		}
		if n > fdBase+slack {
			t.Fatalf("fd leak after storm: %d open, baseline %d (+%d slack)", n, fdBase, slack)
		}
	}

	// The server must still serve a fresh connection normally.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("post-storm dial: %v", err)
	}
	if _, err := conn.Write(getFrame); err != nil {
		t.Fatalf("post-storm request: %v", err)
	}
	var hdr [5]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatalf("post-storm response: %v", err)
	}
	body := make([]byte, binary.LittleEndian.Uint32(hdr[1:5]))
	if _, err := io.ReadFull(conn, body); err != nil || string(body) != "storm-value" {
		t.Fatalf("post-storm get = %q, %v", body, err)
	}
	conn.Close()

	srv.Close()
	s.Close()
	VerifyNoLeaks(t, before)
}
