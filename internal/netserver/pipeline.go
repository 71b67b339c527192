package netserver

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// PipelineClient keeps many requests in flight on one connection: sends
// and receives run on separate goroutines and responses are matched to
// requests by order (the protocol is strictly FIFO per connection). It is
// the one client-side codec — Client drives it one request at a time — and
// the network analog of the paper's clients keeping the server's receive
// ring full.
//
// A connection ends once: by Close, or by the first transport failure
// (write error, read error or deadline, oversized response, peer
// half-close). After a failure the stream can no longer match responses
// to requests, so the end is terminal: every outstanding future completes
// with the cause and every later Send and Flush fails fast with it.
type PipelineClient struct {
	conn net.Conn
	w    *bufio.Writer

	sendMu  sync.Mutex
	dead    bool // set under sendMu by the exiting read loop: no later Send may enqueue
	pending chan *Future
	readWG  sync.WaitGroup
	// respHdr is the read loop's response-header scratch: a header array
	// on the loop's stack would escape through io.ReadFull.
	respHdr [5]byte

	failOnce sync.Once
	closed   chan struct{} // closed by fail, after cause and closeErr are set
	cause    error         // why the connection ended: ErrClosed or the first transport error
	closeErr error         // conn.Close result, returned by every Close call
}

// ErrClosed is returned by Send and Flush on a PipelineClient that has
// been Closed: the request was never enqueued and no future exists for it.
var ErrClosed = errors.New("netserver: pipeline client closed")

// errOversized ends a connection whose peer announced a response larger
// than any the protocol allows.
var errOversized = errors.New("netserver: oversized response")

// Future completion states, mirroring rpc.Call: pending until the reader
// fills it in, parked while a waiter blocks on the park channel, done once
// the result fields are valid.
const (
	futPending uint32 = iota
	futParked
	futDone
)

// Future is a pending pipelined response. Futures are pooled: Send draws
// from a sync.Pool and Release returns the future — and its response-body
// buffer — for reuse, so a pipelined client in steady state allocates
// nothing per request on the client side.
//
// Protocol rules: one goroutine Waits per future; Release at most once,
// only after Wait has returned; neither the future nor the body slice
// returned by Wait may be touched after Release (copy the body first if
// it must outlive the future). Release is optional — an unreleased future
// is simply collected by the GC and its buffer is not reused.
type Future struct {
	state atomic.Uint32
	park  chan struct{} // cap 1; reused across recycles

	status byte
	body   []byte
	err    error
}

var futurePool = sync.Pool{New: func() any {
	return &Future{park: make(chan struct{}, 1)}
}}

func newFuture() *Future {
	f := futurePool.Get().(*Future)
	f.state.Store(futPending)
	f.status = 0
	f.err = nil
	f.body = f.body[:0] // keep capacity: the read loop fills it in place
	return f
}

// complete publishes the result fields and wakes a parked waiter.
func (f *Future) complete() {
	if f.state.Swap(futDone) == futParked {
		f.park <- struct{}{}
	}
}

// Wait blocks until the response arrives and returns status and payload.
// The payload is only valid until Release. It checks once and then parks,
// like rpc.Call.Wait: a spin phase would take CPU from the stages the
// waiter waits on whenever client and server share a host's CPUs.
func (f *Future) Wait() (status byte, body []byte, err error) {
	if f.state.Load() != futDone && f.state.CompareAndSwap(futPending, futParked) {
		<-f.park
	}
	return f.status, f.body, f.err
}

// Release recycles the future and its body buffer; see the type comment
// for the rules.
func (f *Future) Release() { futurePool.Put(f) }

// DialPipeline opens a pipelined connection with the given maximum number
// of in-flight requests (≥1; it bounds memory, not correctness).
func DialPipeline(addr string, depth int) (*PipelineClient, error) {
	if depth < 1 {
		depth = 64
	}
	return dialPipeline(addr, depth, 0)
}

func dialPipeline(addr string, depth int, dialTimeout time.Duration) (*PipelineClient, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	c := &PipelineClient{
		conn:    conn,
		w:       bufio.NewWriter(conn),
		pending: make(chan *Future, depth),
		closed:  make(chan struct{}),
	}
	c.readWG.Add(1)
	go c.readLoop()
	return c, nil
}

// SetDeadline bounds every pending and future read and write on the
// connection, like net.Conn.SetDeadline (the zero time means no bound). A
// deadline that expires while a response is awaited or a request is being
// written ends the connection with a net.Error whose Timeout() is true.
func (c *PipelineClient) SetDeadline(t time.Time) error { return c.conn.SetDeadline(t) }

// fail ends the connection; the first caller's err becomes the cause.
// Closing the channel frees Sends parked on a full window, and closing the
// socket frees a Send blocked in a write and makes the read loop exit —
// which is what completes the outstanding futures (readerDone).
func (c *PipelineClient) fail(err error) {
	c.failOnce.Do(func() {
		c.cause = err
		c.closeErr = c.conn.Close()
		close(c.closed)
	})
}

// broken is the fail-fast error of an ended connection.
func (c *PipelineClient) broken() error {
	if c.cause == ErrClosed {
		return ErrClosed
	}
	return fmt.Errorf("netserver: connection broken by earlier failure: %w", c.cause)
}

func (c *PipelineClient) readLoop() {
	defer c.readWG.Done()
	r := bufio.NewReader(c.conn)
	hdr := c.respHdr[:]
	for {
		var f *Future
		select {
		case f = <-c.pending:
		case <-c.closed:
			c.readerDone(nil, c.cause)
			return
		}
		if _, err := io.ReadFull(r, hdr); err != nil {
			c.readerDone(f, err)
			return
		}
		plen := binary.LittleEndian.Uint32(hdr[1:5])
		if plen > maxPayload {
			c.readerDone(f, errOversized)
			return
		}
		body := f.body[:0] // recycled capacity from a released future
		if uint32(cap(body)) < plen {
			body = make([]byte, plen)
		}
		body = body[:plen]
		if _, err := io.ReadFull(r, body); err != nil {
			c.readerDone(f, err)
			return
		}
		f.status = hdr[0]
		f.body = body
		switch hdr[0] {
		case StatusError:
			f.err = fmt.Errorf("netserver: %s", body)
		case StatusBacklogged:
			f.err = ErrBacklogged // retryable; the stream stays in sync
		}
		f.complete()
	}
}

// readerDone is the read loop's only exit: with no reader left no response
// can ever be matched again, so the exit ends the connection and completes
// every future that will not be answered — cur, the one whose response was
// being read (nil when the loop was told to stop), then everything queued.
func (c *PipelineClient) readerDone(cur *Future, err error) {
	c.fail(err)
	// fail freed any Send parked on the window or blocked in a write, so
	// sendMu comes free. A Send that had passed the dead check may enqueue
	// one more future before releasing it; once dead is set nothing more
	// arrives and the sweep below is final. It is set before cur completes,
	// so a caller woken by cur already fails fast.
	c.sendMu.Lock()
	c.dead = true
	c.sendMu.Unlock()
	if cur != nil {
		cur.err = c.cause
		cur.complete()
	}
	for {
		select {
		case f := <-c.pending:
			f.err = c.cause
			f.complete()
		default:
			return
		}
	}
}

// Send enqueues one request and returns its future. It blocks when the
// in-flight window is full. Writes are buffered for batching: call Flush
// before waiting on the final futures of a burst, or the last requests may
// sit in the client buffer while their futures wait forever.
func (c *PipelineClient) Send(op byte, key uint64, payload []byte) (*Future, error) {
	f := newFuture()
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if c.dead {
		// Nothing is enqueued or written on an ended connection,
		// independent of bufio's sticky-error state.
		f.Release()
		return nil, c.broken()
	}
	select {
	case <-c.closed:
		f.Release() // never enqueued: no reader will ever touch it
		return nil, c.broken()
	case c.pending <- f:
	default:
		// The in-flight window is full. Everything buffered must reach the
		// wire before we block, or the reader would wait for responses to
		// requests the server never saw — a self-deadlock.
		if err := c.w.Flush(); err != nil {
			f.Release()
			return nil, c.writeFailed(err)
		}
		select {
		case <-c.closed:
			f.Release()
			return nil, c.broken()
		case c.pending <- f:
		}
	}
	hdr, err := headerBuf(c.w, 13)
	if err != nil {
		return nil, c.writeFailed(err)
	}
	hdr = append(hdr, op)
	hdr = binary.LittleEndian.AppendUint64(hdr, key)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(payload)))
	if _, err := c.w.Write(hdr); err != nil {
		return nil, c.writeFailed(err)
	}
	if _, err := c.w.Write(payload); err != nil {
		return nil, c.writeFailed(err)
	}
	// Flush opportunistically: batch consecutive sends, but never hold a
	// request hostage when the caller is about to Wait.
	if len(c.pending) <= 1 || c.w.Buffered() > 32<<10 {
		if err := c.w.Flush(); err != nil {
			return nil, c.writeFailed(err)
		}
	}
	return f, nil
}

// writeFailed ends the connection after a transport write error and
// returns the cause (err itself, unless the write failed because the
// connection had already ended for an earlier reason). Requests already
// enqueued can never reach the server; ending the connection makes the
// read loop complete their futures. A future enqueued by the failing Send
// is among them, and the caller never receives it, so nobody double-waits.
func (c *PipelineClient) writeFailed(err error) error {
	c.fail(err)
	return c.cause
}

// Flush pushes any buffered requests to the wire.
func (c *PipelineClient) Flush() error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if c.dead {
		return c.broken()
	}
	if err := c.w.Flush(); err != nil {
		return c.writeFailed(err)
	}
	return nil
}

// Close tears down the connection and fails outstanding futures with
// ErrClosed. It is idempotent — every call returns the first close's
// result — and strictly ordered against Send: once any Close call has
// returned, the read loop has exited, later Sends fail fast and no future
// is ever stranded.
func (c *PipelineClient) Close() error {
	c.fail(ErrClosed)
	c.readWG.Wait()
	return c.closeErr
}
