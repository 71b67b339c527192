// Pipelined server-side execution for the goroutine transport: the
// per-connection serve loop as a submit/complete FSM instead of
// run-to-completion.
//
// The old loop read one frame, blocked on the synchronous store facade,
// wrote the response, and issued one Flush syscall per reply — so a
// pipelined client at depth 128 was serialized to depth 1 server-side and
// the receive ring idled unless the benchmark opened hundreds of
// connections. This file splits the loop into the same two-stage shape the
// CR workers already use:
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
// the client writes. Frame semantics (submit, FIFO retirement, barriers,
// shed-to-StatusBacklogged) live in the shared protocol layer
// (protocol.go); this file owns only the goroutine transport's halves of
// the exchange: blocking reads on one side, bufio-coalesced writes on the
// other.
//
// Buffer lifetime: slot buffers are leased from the server's arena.Leaser
// the first time a slot needs them and KEPT while the window is busy (the
// zero-alloc steady state), but the completion stage strips every slot's
// buffers back to the pool whenever the window drains — so a connection
// that goes idle holds no payload or destination buffers at all, no
// matter how large its bursts were.
package netserver

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"sync"
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

	free    chan *netOp // window slots available to the decode stage
	pending chan *netOp // submitted slots, in request order (the FIFO)

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

func newConnPipeline(s *Server, conn net.Conn, connID int) *connPipeline {
	window := s.window()
	b := bell.New()
	p := &connPipeline{
		s: s, conn: conn, window: window, bell: b,
		exec:    protoExec{s: s, connID: connID, notify: b},
		r:       bufio.NewReader(conn),
		w:       bufio.NewWriterSize(conn, pipeWriterBuf),
		free:    make(chan *netOp, window),
		pending: make(chan *netOp, window),
	}
	slots := make([]netOp, window)
	for i := range slots {
		p.free <- &slots[i]
	}
	return p
}

// run drives both stages and returns when the connection is done: the
// decode stage exits on read error (connection closed, idle timeout,
// fatal protocol error), and the completion stage then drains every
// still-pending slot — waiting out in-flight store calls so their buffers
// and pooled rpc.Calls are never abandoned mid-use — before returning.
// Every leased buffer is back in the pool by the time run returns.
func (p *connPipeline) run() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.writeLoop()
	}()
	p.readLoop()
	close(p.pending)
	wg.Wait()
	p.releaseAllBufs()
}

// readLoop is the decode stage: frame in, window slot claimed, request
// submitted, slot enqueued for FIFO retirement.
func (p *connPipeline) readLoop() {
	s := p.s
	var hdr [13]byte
	for {
		if s.cfg.IdleTimeout > 0 {
			p.conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		if _, err := io.ReadFull(p.r, hdr[:]); err != nil {
			return
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
			return
		}
		if uint32(cap(e.payload)) < plen {
			s.leaser.Put(e.payload)
			e.payload = s.leaser.Get(int(plen))
		}
		payload := e.payload[:plen]
		if _, err := io.ReadFull(p.r, payload); err != nil {
			// Half a frame: no response owed. The slot was never submitted,
			// so hand it straight back for the teardown sweep to strip.
			p.free <- e
			return
		}
		if !obs.Disabled && latIndex(e.op) >= 0 {
			e.t0 = time.Now()
		}
		p.exec.submit(e, payload)
		p.track()
		p.pending <- e
		if e.closeAfter {
			return
		}
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
	for e := range p.pending {
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

// releaseAllBufs returns the whole window's buffers after both stages
// have stopped (run's epilogue): every slot is either in free or was
// claimed by the dead decode stage, and no store call is in flight.
func (p *connPipeline) releaseAllBufs() {
	for {
		select {
		case e := <-p.free:
			e.releaseBufs(p.s.leaser)
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

// flushBarrier implements the protocol layer's pre-barrier flush.
func (p *connPipeline) flushBarrier() { p.flushResponses() }

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
