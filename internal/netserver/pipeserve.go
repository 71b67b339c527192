// The connection engine: one connection's pipelined executor, a
// submit/complete FSM in the same two-stage shape the CR workers use.
//
//	decode stage (readLoop):   read frame → claim a window slot → submit
//	                           asynchronously via the store's async facade
//	completion stage (writeLoop): retire window slots in strict FIFO
//	                           order → encode the response → coalesce
//	                           flushes across the burst
//
// The window is a fixed set of Config.MaxInflight netOp slots circulating
// between two channels (free → pending → free). Claiming a slot is the
// backpressure point: when the window is full — or the completion stage is
// wedged behind a slow reader — the decode stage stops reading and the
// client backs up onto TCP flow control, so per-connection server memory
// is bounded at MaxInflight request/response contexts no matter how fast
// the client writes. What a frame means (submit, FIFO retirement,
// barriers, shed-to-StatusBacklogged) is protocol.go; this file moves the
// bytes: blocking reads on one side, bufio-coalesced writes on the other.
//
// Buffer lifetime: slot buffers are leased from the server's arena.Leaser
// the first time a slot needs them and KEPT while the window is busy (the
// zero-alloc steady state), but the completion stage strips every slot's
// buffers back to the pool whenever the window drains — so a connection
// that goes idle holds no payload or destination buffers at all, no
// matter how large its bursts were.
//
// Pipeline lifetime: a pipeline is ~66 KiB of slots, channels and bufio,
// so it is drawn from a per-server sync.Pool and returned when run ends.
// Without the parking lot that is when the connection ends. With it
// (transport.go) run also ends when the connection goes idle: the
// pipeline goes back to the pool and the connection back to the lot.
package netserver

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"sync/atomic"
	"time"

	"mutps/internal/bell"
	"mutps/internal/obs"
	"mutps/internal/rpc"
)

// connPipeline is the per-connection pipelined executor state shared by
// the decode and completion stages.
type connPipeline struct {
	s      *Server
	conn   net.Conn
	window int
	exec   protoExec
	r      *bufio.Reader
	w      *bufio.Writer

	// Decode-stage locals, kept among the fields nobody writes per request
	// and away from the completion stage's. parks: the connection came out
	// of the parking lot and goes back when idle, so its read deadline is a
	// tick (fill).
	parks   bool
	quiet   bool      // nothing was read since the last tick
	frameBy time.Time // IdleTimeout: when the frame being read is overdue

	slots   []netOp     // the window
	free    chan *netOp // window slots available to the decode stage
	pending chan *netOp // submitted slots, in request order (the FIFO); nil ends it
	wdone   chan struct{}

	// bell is rung by every store call this connection submits when it
	// completes (protoExec.notify); the completion stage parks on it while
	// the window head is still in the store.
	bell *bell.Bell

	// opsInFlight tracks this connection's window occupancy for the
	// idle-conns gauge: the decode stage increments, the completion stage
	// decrements, and the 0↔1 edges flip the connection between idle and
	// active.
	opsInFlight atomic.Int32

	// Completion-stage locals (never touched by the decode stage).
	batch int  // responses encoded since the last flush
	dead  bool // transport write failed: stop writing, keep retiring
}

// pipeWriterBuf sizes the response writer. Bursts larger than this
// self-flush inside bufio (one write syscall per 32 KB), so coalescing
// never trades a syscall for unbounded buffering.
const pipeWriterBuf = 32 << 10

// parkAfter is the park policy, whole: a connection out of the lot goes
// back at the first tick of this length in which it sent nothing and at
// the end of which nothing of its is in flight — so after between one and
// two ticks of silence. Long enough that a client taking turns with the
// server over loopback or a rack (one request per round trip) does not
// park between turns — a park and the activation that undoes it cost an
// epoll_ctl, a trip through the lot and two goroutine starts, about one
// loopback round trip — and short enough that a burst that is over gives
// its pipeline back within a millisecond. Measured flat from 250 µs to
// 1 ms on the sparse tiers (EXPERIMENTS.md, PR 24); the shorter tick keeps
// fewer pipelines lingering.
const parkAfter = 500 * time.Microsecond

// pipeline draws a pipeline for c from the pool.
func (s *Server) pipeline(c *srvConn, parks bool) *connPipeline {
	p, _ := s.pipes.Get().(*connPipeline)
	if p == nil {
		window := s.window()
		b := bell.New()
		p = &connPipeline{
			s: s, window: window, bell: b,
			exec:  protoExec{s: s, notify: b},
			r:     bufio.NewReader(nil),
			w:     bufio.NewWriterSize(nil, pipeWriterBuf),
			slots: make([]netOp, window),
			free:  make(chan *netOp, window),
			wdone: make(chan struct{}),
			// One more than the window: the end-of-run nil follows what the
			// decode stage submitted.
			pending: make(chan *netOp, window+1),
		}
		for i := range p.slots {
			p.free <- &p.slots[i]
		}
	}
	p.conn, p.exec.connID, p.parks = c.Conn, c.id, parks
	p.r.Reset(p.conn)
	p.w.Reset(p.conn)
	return p
}

// recycle returns a pipeline whose run has ended to the pool. It keeps the
// slots, channels and bufio buffers, and the scan/stats build buffer up to
// the response writer's size, so a connection that parks between bursts
// does not regrow it at every activation; one that a large response grew
// past that is let go.
func (s *Server) recycle(p *connPipeline) {
	p.conn = nil
	if cap(p.exec.body) > pipeWriterBuf {
		p.exec.body = nil
	}
	p.r.Reset(nil)
	p.w.Reset(nil)
	s.pipes.Put(p)
}

// run drives both stages until the connection is done — read error
// (closed, idle timeout, fatal protocol error) — or, under the lot, idle.
// Either way the completion stage first drains every still-pending slot,
// waiting out in-flight store calls so their buffers and pooled rpc.Calls
// are never abandoned mid-use, and flushes. When run returns every leased
// buffer is back in the pool, every slot is in free, and the pipeline can
// serve another connection. It reports idle only for a connection that can
// be parked: a failed write closed it.
func (p *connPipeline) run() (idle bool) {
	p.dead, p.quiet = false, false
	go p.writeLoop()
	idle = p.readLoop()
	p.pending <- nil
	<-p.wdone
	// Both stages have stopped and every slot is home. One may still hold a
	// lease: the payload of a frame the decode stage gave up on half-read.
	for i := range p.slots {
		p.slots[i].releaseBufs(p.s.leaser)
	}
	return idle && !p.dead
}

// readLoop is the decode stage: frame in, window slot claimed, request
// submitted, slot enqueued for FIFO retirement. It reports whether it
// stopped because the connection went idle (fill) rather than ended.
func (p *connPipeline) readLoop() (idle bool) {
	s := p.s
	if p.parks {
		p.conn.SetReadDeadline(time.Now().Add(parkAfter))
	}
	var hdr [13]byte
	for {
		if s.cfg.IdleTimeout > 0 {
			p.frameBy = time.Now().Add(s.cfg.IdleTimeout)
			if !p.parks {
				p.conn.SetReadDeadline(p.frameBy)
			}
		}
		if idle, err := p.fill(hdr[:], true); idle || err != nil {
			return idle
		}
		// Claiming the slot is the backpressure point: with the window full
		// this blocks until the completion stage retires the head, which in
		// turn stops the reads that would grow per-connection memory.
		e := <-p.free
		e.reset(hdr[0], binary.LittleEndian.Uint64(hdr[1:9]))
		plen := binary.LittleEndian.Uint32(hdr[9:13])
		if plen > maxPayload {
			e.status, e.msg, e.closeAfter = StatusError, errMsgPayloadTooLarge, true
			p.track()
			p.pending <- e
			return false
		}
		if uint32(cap(e.payload)) < plen {
			s.leaser.Put(e.payload)
			e.payload = s.leaser.Get(int(plen))
		}
		payload := e.payload[:plen]
		if _, err := p.fill(payload, false); err != nil {
			// Half a frame: no response owed. The slot was never submitted,
			// so hand it straight back for the teardown sweep to strip.
			p.free <- e
			return false
		}
		if !obs.Disabled && latIndex(e.op) >= 0 {
			e.t0 = time.Now()
		}
		p.exec.submit(e, payload)
		p.track()
		p.pending <- e
		if e.closeAfter {
			return false
		}
	}
}

// fill reads len(buf) bytes of a frame. On a connection that parks, the
// read deadline is not a limit but a tick, parkAfter long, and fill is
// where the park decision is made: at a tick that finds the connection
// quiet since the previous one, between frames (frameStart, and nothing of
// buf read — which also means nothing is buffered, ReadFull drains the
// bufio first) and with every window slot back in free (nothing in flight,
// every response encoded; run's join flushes them), it reports idle. Any
// other tick re-arms and reads on, so a frame dribbled across many ticks
// decodes as if it had come in one write. The slot count is the pipeline's
// own state, not an instrument: the decision is the same under obs_off.
func (p *connPipeline) fill(buf []byte, frameStart bool) (idle bool, err error) {
	for n := 0; ; {
		var m int
		m, err = io.ReadFull(p.r, buf[n:])
		n += m
		if m > 0 && p.quiet {
			p.quiet = false
		}
		if err == nil {
			return false, nil
		}
		if !p.parks || !errors.Is(err, os.ErrDeadlineExceeded) {
			return false, err
		}
		now := time.Now()
		if p.s.cfg.IdleTimeout > 0 && now.After(p.frameBy) {
			return false, err
		}
		if p.quiet && frameStart && n == 0 && len(p.free) == p.window {
			return true, nil
		}
		p.quiet = true
		p.conn.SetReadDeadline(now.Add(parkAfter))
	}
}

// track counts one slot entering the in-flight window.
func (p *connPipeline) track() {
	if obs.Disabled {
		return
	}
	p.s.submitted.Inc(p.exec.connID)
	p.s.inflight.Add(1)
	if p.opsInFlight.Add(1) == 1 {
		p.s.idleConns.Add(-1)
	}
}

// writeLoop is the completion stage: strict FIFO retirement with
// coalesced flushes — one Flush per burst of ready responses, not one per
// op. It keeps draining after a transport failure (dead) so every
// in-flight store call is waited out and every window slot recirculated.
// When the window drains it strips every idle slot's leased buffers back
// to the pool: a connection between bursts costs no buffer memory.
func (p *connPipeline) writeLoop() {
	for e := <-p.pending; e != nil; e = <-p.pending {
		if !e.done() {
			// The window head hasn't completed: get the already-encoded
			// burst onto the wire instead of sitting on it, then sleep
			// until the store is through with the head.
			p.flushResponses()
			if e.call != nil {
				p.await(e.call)
			}
			for _, c := range e.mcalls {
				p.await(c)
			}
		}
		p.exec.retire(e, p)
		p.batch++
		p.free <- e
		if !obs.Disabled && p.opsInFlight.Add(-1) == 0 {
			p.s.idleConns.Add(1)
		}
		if len(p.pending) == 0 {
			p.flushResponses()
			p.stripIdleBuffers()
		}
	}
	p.flushResponses()
	p.wdone <- struct{}{}
}

// await parks the completion stage on the connection's bell until c is
// done (hand-off invariant H1: it never sleeps on a completed call). Any of
// the connection's calls completing rings the bell, so a wake-up may find
// c still pending — typically a later call that overtook the head — and
// sleeps again.
func (p *connPipeline) await(c *rpc.Call) {
	for !c.Done() {
		p.bell.Arm()
		if c.Done() {
			p.bell.Disarm()
			return
		}
		p.s.connParks.Inc(p.exec.connID)
		p.bell.Sleep()
	}
}

// stripIdleBuffers returns every idle slot's leased buffers to the pool.
// Called by the completion stage when the pending FIFO is empty: the
// window is (momentarily) drained, so all but at most one slot — the one
// the decode stage may have claimed for a frame it is still reading — sit
// in the free channel. Each is pulled, stripped, and pushed straight
// back, so the decode stage never starves: it can hold at most one slot,
// and the channel always regains each slot before the next is taken.
func (p *connPipeline) stripIdleBuffers() {
	for i := 0; i < p.window; i++ {
		select {
		case e := <-p.free:
			e.releaseBufs(p.s.leaser)
			p.free <- e
		default:
			return
		}
	}
}

// writeOut encodes one response into the write buffer unless the
// transport already failed. A write error marks the connection dead and
// closes it, which also unblocks the decode stage.
func (p *connPipeline) writeOut(status byte, body []byte) {
	if p.dead {
		return
	}
	if err := writeResp(p.w, status, body); err != nil {
		p.fail()
	}
}

// flushResponses pushes the coalesced burst to the wire and records how
// many responses the flush carried.
func (p *connPipeline) flushResponses() {
	if p.batch > 0 && !obs.Disabled {
		p.s.flushBatch.Record(p.exec.connID, uint64(p.batch))
	}
	p.batch = 0
	if p.dead || p.w.Buffered() == 0 {
		return
	}
	if err := p.w.Flush(); err != nil {
		p.fail()
	}
}

// fail records a transport write failure. The peer can no longer receive
// responses, so writing stops; closing the connection makes the decode
// stage's next read fail, which ends the window drain cleanly.
func (p *connPipeline) fail() {
	p.dead = true
	p.conn.Close()
}
