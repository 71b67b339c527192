// The transport layer of the network server: who owns sockets and what an
// idle one costs. There is one connection engine — the pipelined executor
// of pipeserve.go — and one accept loop, MaxConns check, reject path and
// Close in front of it. Where a connection waits while it has nothing to
// say is a property of the platform and the listener, not an option:
//
//   - on Linux with a *net.TCPListener, in the parking lot (lot_linux.go),
//     as a descriptor armed in one epoll set. It holds no goroutine, no
//     pipeline and no buffer; the lot starts a pipeline when the socket
//     becomes readable and takes the connection back when the pipeline
//     reports it idle. Server.Transport reports TransportEpoll.
//   - anywhere else, including any other listener type, in its pipeline,
//     blocked in a read: two goroutines, a window of slots and its bufio
//     buffers (~66 KiB with stacks). Server.Transport reports
//     TransportGoroutine.
package netserver

import (
	"bufio"
	"net"
	"sync"
	"time"
)

// Transport names, as Server.Transport reports them.
const (
	TransportGoroutine = "goroutine"
	TransportEpoll     = "epoll"
)

// srvConn is one accepted connection: all a parked connection costs
// beyond its descriptor.
type srvConn struct {
	net.Conn
	id   int       // shards the per-op instruments
	park parkState // the lot's per-connection state (lot_linux.go)
}

// transport is the socket-owning half of the server: it accepts
// connections and runs a pipeline for each one that has something to say.
type transport struct {
	s   *Server
	ln  net.Listener
	lot *parkingLot // nil where connections wait in their pipelines

	mu     sync.Mutex
	conns  map[*srvConn]struct{} // every open connection, parked or active
	closed bool
	wg     sync.WaitGroup // the accept loop and every running pipeline
}

// newTransport starts serving ln. On a *net.TCPListener it opens the lot;
// where that cannot be done — no epoll on this platform, no descriptor
// left for the set — connections wait in their pipelines instead.
func newTransport(s *Server, ln net.Listener) *transport {
	t := &transport{s: s, ln: ln, conns: map[*srvConn]struct{}{}}
	if _, tcp := ln.(*net.TCPListener); tcp {
		t.lot = newParkingLot(t)
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t
}

// Close stops the server in a fixed order: stop accepting; stop the lot,
// so nothing is activated or parked any more; close the connections that
// were parked (no goroutine would notice) and settle their gauges; close
// the active ones, which fails their pipelines' reads; wait for those
// pipelines to drain their in-flight store calls. A second Close is a
// no-op.
func (t *transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	err := t.ln.Close()
	if t.lot != nil {
		for _, c := range t.lot.stop() {
			t.drop(c)
		}
	}
	t.mu.Lock()
	for c := range t.conns {
		c.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	// Every pipeline is back in the pool, which would pin them — 66 KiB each
	// — for two more GC cycles.
	for t.s.pipes.Get() != nil {
	}
	return err
}

func (t *transport) acceptLoop() {
	defer t.wg.Done()
	for {
		nc, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			nc.Close()
			return
		}
		if t.s.cfg.MaxConns > 0 && len(t.conns) >= t.s.cfg.MaxConns {
			t.mu.Unlock()
			t.rejectConn(nc)
			continue
		}
		c := &srvConn{Conn: nc, id: int(t.s.nextConn.Add(1))}
		t.conns[c] = struct{}{}
		t.mu.Unlock()
		t.s.openConns.Add(1)
		t.s.idleConns.Add(1)
		if t.lot == nil {
			t.activate(c)
		} else if !t.lot.park(c) {
			t.drop(c)
		}
	}
}

// rejectConn refuses a connection over the MaxConns cap with a proper
// protocol frame so the client reports "connection limit reached" instead
// of an opaque EOF. The write gets a short deadline — a rejection must
// never tie up the accept loop.
func (t *transport) rejectConn(conn net.Conn) {
	t.s.rejected.Inc(0)
	conn.SetWriteDeadline(time.Now().Add(time.Second))
	w := bufio.NewWriter(conn)
	writeResp(w, StatusError, []byte("connection limit reached"))
	w.Flush()
	conn.Close()
}

// activate starts a pipeline for c. Callers are the accept loop, which
// itself holds a count of wg, and the lot's goroutine, which Close joins
// before it waits.
func (t *transport) activate(c *srvConn) {
	t.wg.Add(1)
	go t.serve(c)
}

// serve runs c's pipeline until the connection ends or, under the lot,
// goes idle and is parked again. The connection counts as idle for the
// idle-conns gauge from accept to close except while its pipeline has
// requests in flight (connPipeline.track).
func (t *transport) serve(c *srvConn) {
	defer t.wg.Done()
	p := t.s.pipeline(c, t.lot != nil)
	idle := p.run()
	t.s.recycle(p)
	if !idle || !t.lot.park(c) {
		t.drop(c)
	}
}

// drop closes c and forgets it. Exactly one owner calls it: the serve
// goroutine of an active connection, or whoever took a parked one out of
// the lot.
func (t *transport) drop(c *srvConn) {
	t.mu.Lock()
	delete(t.conns, c)
	t.mu.Unlock()
	c.Close()
	t.s.idleConns.Add(-1)
	t.s.openConns.Add(-1)
}
