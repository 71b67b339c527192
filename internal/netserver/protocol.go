// The protocol layer of the network server: what a frame means,
// independent of how its bytes arrive and leave (DESIGN.md §10).
//
// pipeserve.go moves bytes between the socket and a window of slots; this
// file decodes a request into a slot, submits it through the store's async
// facade, and retires the completed slot into wire bytes, in strict FIFO
// order. There is one of each, so the bytes a client observes cannot
// depend on the transport: the transports (transport.go) differ only in
// where an idle connection waits.
//
// Buffer discipline: every buffer a slot owns — the decoded put payload,
// the get destination (rpc Dst), the per-key mget destinations — is
// leased from the shared arena.Leaser while a request is in flight and
// returned when the connection's window drains (netOp.releaseBufs). An
// idle connection therefore holds no buffer memory at all; this is what
// makes 100k mostly-idle connections cost ~0.
package netserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"mutps/internal/arena"
	"mutps/internal/bell"
	"mutps/internal/kvcore"
	"mutps/internal/obs"
	"mutps/internal/rpc"
)

// Pre-resolved error payloads for protocol violations, allocated once so
// rejecting a malformed frame stays allocation-free.
var (
	errMsgPayloadTooLarge = []byte("payload too large")
	errMsgScanPayload     = []byte("scan payload must be a uint32 count")
	errMsgScanCount       = []byte("scan count too large")
	errMsgMGetPayload     = []byte("mget payload must be count(4) + count*key(8)")
	errMsgMGetCount       = []byte("mget count too large")
	errMsgPutTTLPayload   = []byte("put-ttl payload must lead with ttl_nanos(8)")
)

// valLeaseBytes sizes the destination buffer leased for a get: it covers
// every arena-pooled value size (≤ arena.MaxClassBytes), so pooled values
// complete without the store growing the buffer on the heap.
const valLeaseBytes = arena.MaxClassBytes

// submitHook, when set, intercepts asynchronous submission with an
// injected error before the store sees the request. It exists so tests can
// drive the shed path (rpc.ErrBacklogged → StatusBacklogged) and the
// closed path deterministically; production code never sets it. Atomic so
// a test can install/clear it while server goroutines are live.
var submitHook atomic.Pointer[func(op byte, key uint64) error]

// netOp is one slot of a connection's in-flight window: the decoded
// request header, either the store's completion future (async ops) or a
// pre-resolved status (protocol errors, submit failures, barrier markers),
// and the slot-owned buffers the request and response flow through.
type netOp struct {
	op         byte
	status     byte // pre-resolved response status when call is nil
	barrier    bool // execute inline at retire time (Scan/Stats2)
	closeAfter bool // fatal protocol error: retire this, then drop the conn
	key        uint64
	scanCount  uint32
	call       *rpc.Call
	msg        []byte // pre-resolved response payload
	payload    []byte // leased put-payload buffer (stable until retire)
	val        []byte // get-destination buffer (rpc Dst)
	valLeased  bool   // val came from the leaser (vs adopted store growth)
	t0         time.Time

	// Batched multi-get state: one mget frame occupies one window slot but
	// fans out into len(mcalls) async store gets, which the completion
	// stage retires together as one response frame (one FIFO burst for the
	// whole batch). mvals are the per-key destination buffers, leased on
	// demand and kept across requests while the window is busy.
	mget    bool
	mgetErr error // submit failed mid-batch: whole frame fails after drain
	mcalls  []*rpc.Call
	mvals   [][]byte
	mleased []bool
}

// reset clears per-request state, keeping the slot's buffers for reuse.
func (e *netOp) reset(op byte, key uint64) {
	e.op = op
	e.key = key
	e.call = nil
	e.barrier = false
	e.closeAfter = false
	e.status = 0
	e.msg = nil
	e.mget = false
	e.t0 = time.Time{}
}

// done reports whether retiring the slot would not block: every store call
// it submitted has completed (pre-resolved and barrier slots have none;
// mcalls is empty outside an mget).
func (e *netOp) done() bool {
	if e.call != nil && !e.call.Done() {
		return false
	}
	for _, c := range e.mcalls {
		if !c.Done() {
			return false
		}
	}
	return true
}

// releaseBufs returns every leased buffer the slot holds. Called when the
// connection's window drains (so an idle connection holds no buffer
// memory) and when a connection dies. Safe only once the slot is retired:
// the response has been encoded and no store worker can still read the
// payload or write the destination.
func (e *netOp) releaseBufs(l *arena.Leaser) {
	l.Put(e.payload)
	e.payload = nil
	if e.valLeased {
		l.Put(e.val)
	}
	e.val = nil
	e.valLeased = false
	for i := range e.mvals {
		if e.mleased[i] {
			l.Put(e.mvals[i])
		}
		e.mvals[i] = nil
		e.mleased[i] = false
	}
}

// protoExec executes decoded frames against the store for one
// connection: the submit half enters a netOp into the async facade, the
// retire half resolves it into wire bytes in the pipeline's write buffer.
// One protoExec per pipeline; connID shards the per-op instruments and
// body is the reusable scan/stats/mget response build buffer. notify is
// the pipeline's bell, rung by every store call this connection submits as
// it completes; the completion stage parks on it.
type protoExec struct {
	s      *Server
	connID int
	body   []byte
	notify *bell.Bell
}

// leaseVal ensures the slot has a destination buffer for a get.
func (x *protoExec) leaseVal(e *netOp) {
	if e.val == nil {
		e.val = x.s.leaser.Get(valLeaseBytes)
		e.valLeased = true
	}
}

// submit enters one decoded request into the store's async path, or
// pre-resolves the slot for protocol errors, submit failures, and barrier
// ops. payload is the request payload (stable until the slot is retired —
// the store reads a put's value only when a worker executes it).
func (x *protoExec) submit(e *netOp, payload []byte) {
	if hook := submitHook.Load(); hook != nil {
		if err := (*hook)(e.op, e.key); err != nil {
			x.failSubmit(e, err)
			return
		}
	}
	store := x.s.store
	var err error
	switch e.op {
	case OpGet:
		x.leaseVal(e)
		e.call, err = store.GetAsync(e.key, e.val[:0], x.notify)
	case OpGetTTL:
		// Same store path as a get; the remaining TTL is encoded at retire
		// time from the call's expiry stamp.
		x.leaseVal(e)
		e.call, err = store.GetAsync(e.key, e.val[:0], x.notify)
	case OpPut:
		e.call, err = store.PutAsync(e.key, payload, x.notify)
	case OpPutTTL:
		if len(payload) < 8 {
			e.status, e.msg = StatusError, errMsgPutTTLPayload
			return
		}
		// ttl 0 on the wire selects the server's default, matching the
		// store facade's ttl <= 0 convention. The value subslice stays
		// valid until retire — it aliases the slot-owned payload buffer.
		ttl := time.Duration(binary.LittleEndian.Uint64(payload))
		e.call, err = store.PutTTLAsync(e.key, payload[8:], ttl, x.notify)
	case OpDelete:
		e.call, err = store.DeleteAsync(e.key, x.notify)
	case OpScan:
		if len(payload) != 4 {
			e.status, e.msg = StatusError, errMsgScanPayload
			return
		}
		count := binary.LittleEndian.Uint32(payload)
		if count > kvcore.MaxScanCount {
			e.status, e.msg = StatusError, errMsgScanCount
			return
		}
		e.scanCount = count
		e.barrier = true
	case OpStats2:
		e.barrier = true
	case OpMGet:
		x.submitMGet(e, payload)
	default:
		e.status, e.msg = StatusError, []byte(fmt.Sprintf("unknown op %d", e.op))
	}
	if err != nil {
		x.failSubmit(e, err)
	}
}

// submitMGet fans one mget frame out into per-key async gets. Every key
// enters the store's receive path at once (the batch shares the pipelined
// window slot, so the whole frame costs one unit of connection-level
// backpressure) and the completion stage retires them together. A submit
// failure mid-batch (backlogged, closing) fails the whole frame — gets are
// side-effect-free, so the client retries the frame safely — but the
// already-submitted prefix is still waited out at retire time so no pooled
// call or buffer is abandoned.
func (x *protoExec) submitMGet(e *netOp, payload []byte) {
	if len(payload) < 4 {
		e.status, e.msg = StatusError, errMsgMGetPayload
		return
	}
	n := int(binary.LittleEndian.Uint32(payload))
	if n > MaxMGetKeys {
		e.status, e.msg = StatusError, errMsgMGetCount
		return
	}
	if len(payload) != 4+8*n {
		e.status, e.msg = StatusError, errMsgMGetPayload
		return
	}
	e.mget = true
	e.mgetErr = nil
	e.mcalls = e.mcalls[:0]
	for len(e.mvals) < n {
		e.mvals = append(e.mvals, nil)
		e.mleased = append(e.mleased, false)
	}
	if !obs.Disabled {
		x.s.mgetKeys.Record(x.connID, uint64(n))
	}
	store := x.s.store
	for i := 0; i < n; i++ {
		key := binary.LittleEndian.Uint64(payload[4+8*i:])
		if e.mvals[i] == nil {
			e.mvals[i] = x.s.leaser.Get(valLeaseBytes)
			e.mleased[i] = true
		}
		c, err := store.GetAsync(key, e.mvals[i][:0], x.notify)
		if err != nil {
			e.mgetErr = err
			return
		}
		e.mcalls = append(e.mcalls, c)
	}
}

// errStatus maps a store error onto the wire: overload shedding becomes
// the retryable StatusBacklogged, everything else (including rpc.ErrClosed
// during shutdown) a StatusError carrying the message. Error paths may
// allocate; the hot paths never reach here.
func errStatus(err error) (status byte, msg []byte) {
	if errors.Is(err, rpc.ErrBacklogged) {
		return StatusBacklogged, nil
	}
	return StatusError, []byte(err.Error())
}

// failSubmit pre-resolves a slot whose request never entered the store,
// in request order.
func (x *protoExec) failSubmit(e *netOp, err error) {
	e.call = nil
	e.status, e.msg = errStatus(err)
}

// retire resolves one window slot into its wire response: wait out the
// store call (FIFO means the head must complete before anything later may
// be written), execute barrier ops inline, or emit the pre-resolved
// status. The slot's buffers are reusable as soon as this returns — the
// response bytes have been copied into the write buffer and the pooled
// call released.
func (x *protoExec) retire(e *netOp, w *connPipeline) {
	switch {
	case e.call != nil:
		c := e.call
		c.Wait()
		switch {
		case c.Err != nil:
			w.writeOut(errStatus(c.Err))
		case e.op == OpGet:
			switch {
			case c.Found:
				w.writeOut(StatusFound, c.Value)
			case c.Expired:
				w.writeOut(StatusExpired, nil)
			default:
				w.writeOut(StatusNotFound, nil)
			}
		case e.op == OpGetTTL:
			x.retireGetTTL(c, w)
		case e.op == OpPut, e.op == OpPutTTL:
			w.writeOut(StatusFound, nil)
		default: // OpDelete
			if c.Found {
				w.writeOut(StatusFound, nil)
			} else {
				w.writeOut(StatusNotFound, nil)
			}
		}
		// Keep a destination buffer the store had to grow, so the next get
		// through this slot fits without allocating; the abandoned lease
		// goes back to the pool.
		if cap(c.Value) > cap(e.val) {
			if e.valLeased {
				x.s.leaser.Put(e.val)
			}
			e.val = c.Value
			e.valLeased = false
		}
		e.call = nil
		c.Release()
	case e.mget:
		x.retireMGet(e, w)
	case e.barrier:
		x.retireBarrier(e, w)
	default:
		w.writeOut(e.status, e.msg)
	}
	if !obs.Disabled {
		// t0 is stamped only for a decoded, latency-tracked frame; one
		// rejected from its header alone (oversized payload) may carry none
		// and has no service time to record.
		if !e.t0.IsZero() {
			x.s.lat[latIndex(e.op)].Record(x.connID, uint64(time.Since(e.t0)))
		}
		x.s.retired.Inc(x.connID)
		x.s.inflight.Add(-1)
	}
}

// retireGetTTL encodes one completed get-ttl call: the found response
// leads with the remaining TTL in nanoseconds (0 = no expiry) followed by
// the value. A deadline that passed between the worker's check and encode
// time retires as StatusExpired rather than shipping a dead value.
func (x *protoExec) retireGetTTL(c *rpc.Call, w *connPipeline) {
	if !c.Found {
		if c.Expired {
			w.writeOut(StatusExpired, nil)
		} else {
			w.writeOut(StatusNotFound, nil)
		}
		return
	}
	var rem uint64
	if c.Expiry != 0 {
		d := int64(c.Expiry) - time.Now().UnixNano()
		if d <= 0 {
			w.writeOut(StatusExpired, nil)
			return
		}
		rem = uint64(d)
	}
	body := append(x.body[:0], 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint64(body, rem)
	body = append(body, c.Value...)
	x.body = body
	w.writeOut(StatusFound, body)
}

// retireMGet resolves one mget frame: wait every per-key call in request
// order (by FIFO, the whole batch retires as one burst at this slot's
// position), encode the positional response into the build buffer, and
// recirculate the grown destination buffers into the slot. If any submit
// or call failed, the frame degrades to a single whole-frame status —
// backlogged when retryable — after every in-flight call has been drained.
func (x *protoExec) retireMGet(e *netOp, w *connPipeline) {
	body := append(x.body[:0], 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(body, uint32(len(e.mcalls)))
	failed := e.mgetErr
	for i, c := range e.mcalls {
		c.Wait()
		if c.Err != nil && failed == nil {
			failed = c.Err
		}
		if failed == nil {
			body = appendMGetEntry(body, c.Found, c.Value)
		}
		// Keep a destination buffer the store had to grow, as retire does
		// for single gets.
		if cap(c.Value) > cap(e.mvals[i]) {
			if e.mleased[i] {
				x.s.leaser.Put(e.mvals[i])
			}
			e.mvals[i] = c.Value
			e.mleased[i] = false
		}
		c.Release()
	}
	e.mcalls = e.mcalls[:0]
	e.mgetErr = nil
	x.body = body
	if failed != nil {
		w.writeOut(errStatus(failed))
		return
	}
	w.writeOut(StatusFound, body)
}

// retireBarrier executes a Scan/Stats2 inline. Reaching here means
// the FIFO has retired every earlier response — the barrier semantics —
// so the op observes all prior writes on this connection; responses to
// already-buffered bursts are flushed first so a slow scan doesn't hold
// them hostage. A scan is submitted only now and waited out; its response
// is encoded straight from the call's pooled result slices before Release,
// so the entries are copied once, from ScanBuf into the build buffer.
func (x *protoExec) retireBarrier(e *netOp, w *connPipeline) {
	w.flushResponses()
	switch e.op {
	case OpStats2:
		x.body = x.s.appendStats2(x.body[:0])
		w.writeOut(StatusFound, x.body)
	case OpScan:
		c, err := x.s.store.ScanAsync(e.key, int(e.scanCount), nil)
		if err != nil {
			w.writeOut(errStatus(err))
			return
		}
		c.Wait()
		if c.Err != nil {
			w.writeOut(errStatus(c.Err))
		} else {
			body := binary.LittleEndian.AppendUint32(x.body[:0], uint32(len(c.ScanKeys)))
			for i, k := range c.ScanKeys {
				body = appendScanEntry(body, k, c.ScanVals[i])
			}
			x.body = body
			w.writeOut(StatusFound, body)
		}
		c.Release()
	}
}
