package loadgen

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"mutps/internal/netserver"
	"mutps/internal/workload"
)

// Driver is the windowed send/drain loop: a worker's request source and
// in-flight window, reusable across the connections the worker drives.
// Futures are recycled with Release after each response, so the client
// side allocates nothing per request in steady state. Latency is
// send-to-response (it includes queueing in the window, as for any
// pipelined client).
type Driver struct {
	w         *Worker
	src       Source
	opTimeout time.Duration
	putOp     byte   // OpPut, or OpPutTTL when puts carry a TTL
	ttlHdr    int    // bytes of TTL leading a put payload: 8 with OpPutTTL, else 0
	valueSize int    // put size for a request that names none (a trace line without one)
	buf       []byte // the TTL header, then zeros up to the largest value sent
	scanPl    [4]byte
	window    []sent // oldest first; cap is the in-flight limit
}

// sent is one request in flight: its future, when it was first sent, and
// the frame itself for the resend of a shed one.
type sent struct {
	fut     *netserver.Future
	t0      time.Time
	op      byte
	key     uint64
	payload []byte
}

// NewDriver returns a driver that keeps up to window requests from src in
// flight, recording into w. Puts carry valueSize zero bytes unless the
// request names a size, and a TTL when ttl is positive. With an opTimeout,
// a connection that returns nothing for that long after its last send
// fails the drive.
func NewDriver(w *Worker, src Source, window, valueSize int, ttl, opTimeout time.Duration) *Driver {
	d := &Driver{w: w, src: src, opTimeout: opTimeout, valueSize: valueSize,
		putOp: netserver.OpPut, window: make([]sent, 0, max(window, 1))}
	if ttl > 0 {
		d.putOp = netserver.OpPutTTL
		d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(ttl))
	}
	d.ttlHdr = len(d.buf)
	d.buf = append(d.buf, make([]byte, valueSize)...)
	return d
}

// frame maps a request to its wire op and payload. The payload aliases the
// driver's buffers; Send copies it out before the next frame reuses them.
func (d *Driver) frame(req workload.Request) (op byte, payload []byte) {
	switch req.Op {
	case workload.OpPut:
		n := req.ValueSize
		if n == 0 {
			n = d.valueSize
		}
		if grow := d.ttlHdr + n - len(d.buf); grow > 0 {
			d.buf = append(d.buf, make([]byte, grow)...)
		}
		return d.putOp, d.buf[:d.ttlHdr+n]
	case workload.OpDelete:
		return netserver.OpDelete, nil
	case workload.OpScan:
		binary.LittleEndian.PutUint32(d.scanPl[:], uint32(req.ScanCount))
		return netserver.OpScan, d.scanPl[:]
	}
	return netserver.OpGet, nil
}

// send issues one request on pc and appends it to the window. With an op
// timeout, each send pushes the connection's deadline out, so the deadline
// expires only when nothing has come back for that long after the last one.
func (d *Driver) send(pc *netserver.PipelineClient, s sent) (err error) {
	if d.opTimeout > 0 {
		// An error here means the connection is already closed; Send reports it.
		_ = pc.SetDeadline(time.Now().Add(d.opTimeout))
	}
	if s.fut, err = pc.Send(s.op, s.key, s.payload); err == nil {
		d.window = append(d.window, s)
	}
	return err
}

// drainOldest retires the head of the window. A shed request leaves the
// stream in sync; with a window of one it is the newest request too and is
// resent after a backoff, its clock still running from the first attempt.
// With more, the resend would reorder the FIFO window, so it is counted
// and skipped.
func (d *Driver) drainOldest(pc *netserver.PipelineClient) error {
	s := d.window[0]
	_, _, err := s.fut.Wait()
	s.fut.Release()
	d.window = append(d.window[:0], d.window[1:]...)
	if err == nil {
		d.w.record(1, time.Since(s.t0))
		return nil
	}
	if !errors.Is(err, netserver.ErrBacklogged) {
		return err
	}
	d.w.shed.Add(1)
	if cap(d.window) > 1 {
		return nil
	}
	time.Sleep(shedRetryDelay)
	if err := d.send(pc, s); err != nil {
		return err
	}
	_ = pc.Flush() // a failed flush ends the connection; the resent future reports it
	return d.drainOldest(pc)
}

// Drive issues n requests on pc through the window and drains every
// response before returning, so the connection goes back to fully idle.
// An error means pc is broken; the caller closes it.
func (d *Driver) Drive(pc *netserver.PipelineClient, n int) error {
	for i := 0; i < n; i++ {
		req := d.src.Next()
		if len(d.window) == cap(d.window) {
			_ = pc.Flush() // a failed flush ends the connection; the oldest future reports it
			if err := d.drainOldest(pc); err != nil {
				return err
			}
		}
		op, payload := d.frame(req)
		if err := d.send(pc, sent{t0: time.Now(), op: op, key: req.Key, payload: payload}); err != nil {
			return err
		}
	}
	_ = pc.Flush() // as above
	for len(d.window) > 0 {
		if err := d.drainOldest(pc); err != nil {
			return err
		}
	}
	return nil
}

// SparseBurst is how many pipelined requests one activation issues before
// the worker rotates to the next connection. Short enough that every
// connection cycles through idle many times per run, long enough to
// amortize the wakeup.
const SparseBurst = 32

// DialAll opens n pipelined connections of the given window to addr, 64
// dials at a time. On a failure it closes what it opened and returns the
// first error.
func DialAll(addr string, n, window int) ([]*netserver.PipelineClient, error) {
	pcs := make([]*netserver.PipelineClient, n)
	errs := make(chan error, 64) // a dialer sends at most one error, then stops
	var next atomic.Int64
	var wg sync.WaitGroup
	for d := 0; d < min(64, n); d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n && len(errs) == 0; i = int(next.Add(1)) - 1 {
				pc, err := netserver.DialPipeline(addr, window)
				if err != nil {
					errs <- err
					return
				}
				pcs[i] = pc
			}
		}()
	}
	wg.Wait()
	if len(errs) > 0 {
		CloseAll(pcs)
		return nil, <-errs
	}
	return pcs, nil
}

// CloseAll closes every open connection in pcs.
func CloseAll(pcs []*netserver.PipelineClient) {
	for _, pc := range pcs {
		if pc != nil {
			pc.Close()
		}
	}
}

// Sparse spreads ops requests over conns connections of which only active
// are busy at any instant: active workers claim connections round-robin
// and issue one SparseBurst per claim, so the peer sees active connections
// working and the rest idle at every moment, the active set continuously
// rotating. This is the million-connection front-end shape — most clients
// idle, a few bursting — that separates the transports: per-connection
// goroutines and buffers charge for every open socket, epoll only for the
// active ones.
//
// worker runs once on each worker's goroutine and returns its drive
// function, which issues n requests on connection conn and leaves it idle.
// No connection is driven by two workers at once.
func Sparse(conns, active, ops int, worker func(w *Worker) (drive func(conn, n int) error)) (Result, error) {
	locks := make([]sync.Mutex, conns)
	var remaining, cursor atomic.Int64
	remaining.Store(int64(ops))
	return Run(active, func(w *Worker) error {
		drive := worker(w)
		for {
			burst := SparseBurst
			if n := remaining.Add(-SparseBurst); n < 0 {
				burst += int(n) // final partial burst
			}
			if burst <= 0 {
				return nil
			}
			// Round-robin claim; the mutex only matters when the cursor
			// laps a still-busy connection (active ≈ conns).
			i := int((cursor.Add(1) - 1) % int64(conns))
			locks[i].Lock()
			err := drive(i, burst)
			locks[i].Unlock()
			if err != nil {
				return err
			}
		}
	})
}
