// Package netserver exposes a μTPS store over TCP with a compact binary
// protocol, making the library a network-attached KVS like the paper's
// system (the RDMA dataplane is replaced by the operating system's TCP
// stack; the thread architecture behind the listener is unchanged).
//
// There is one wire version. Frames are little-endian and strictly FIFO
// per connection:
//
//	request:  op(1) key(8) len(4) payload[len]
//	response: status(1) len(4) payload[len]
//
//	op  name     request payload            found/ok response payload
//	0   get      —                          value
//	1   put      value                      —
//	2   delete   —                          —
//	3   scan     count(4)                   count(4) then count × { key(8) vlen(4) val }
//	4   (reserved: answers status 2 "unknown op 4"; never reassigned)
//	5   stats2   —                          count(4) then count × { nlen(2) name float64bits(8) }
//	6   mget     count(4) then count×key(8) count(4) then count × { found(1) vlen(4) val }
//	7   put-ttl  ttl_nanos(8) then value    —
//	8   get-ttl  —                          ttl_nanos(8) then value
//
//	status  meaning
//	0       found / ok
//	1       not found
//	2       error: payload is the message; the connection stays usable
//	3       backlogged: the store shed the request unexecuted; retryable,
//	        the connection stays usable
//	4       expired: a TTL deadline passed; reads as missing, distinct
//	        from 1 so a client can tell expiry from absence
//
// key is the scan start for op 3 and unused for ops 5 and 6. A put-ttl of
// 0 selects the server's default TTL; a get-ttl of 0 means no expiry. The
// stats2 payload is self-describing (name/value pairs), so the server may
// add series without a protocol change. One mget frame occupies one slot
// of the connection's window: its keys enter the store's async path
// together, the response is positional with the request keys, and a
// rejection fails the whole frame (gets have no side effects; the caller
// retries).
package netserver

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mutps/internal/arena"
	"mutps/internal/kvcore"
	"mutps/internal/obs"
)

// Op codes on the wire. The numbers are the protocol: they are written out
// rather than counted so that an edit here cannot renumber a later op.
// 4 is reserved (see the package table) and must not be reassigned.
const (
	OpGet    byte = 0
	OpPut    byte = 1
	OpDelete byte = 2
	OpScan   byte = 3
	OpStats2 byte = 5
	OpMGet   byte = 6
	// OpPutTTL carries the item's TTL as the first 8 payload bytes
	// (nanoseconds; 0 selects the server's default TTL), then the value.
	OpPutTTL byte = 7
	// OpGetTTL is a get whose found-response payload leads with the
	// remaining TTL in nanoseconds (0 = no expiry), then the value.
	OpGetTTL byte = 8
)

// MaxMGetKeys bounds the keys one mget frame may carry: each key claims a
// pooled rpc.Call and a destination buffer while the frame is in flight,
// so the bound keeps one frame from reserving unbounded store-side state.
// Clients split larger batches across frames.
const MaxMGetKeys = 1024

// Status codes on the wire, written out for the same reason as the ops.
const (
	StatusFound    byte = 0
	StatusNotFound byte = 1
	StatusError    byte = 2
	// StatusBacklogged is a retryable rejection: the store's receive ring
	// stayed full for the whole backpressure budget and the request was
	// shed without executing. The connection remains usable.
	StatusBacklogged byte = 3
	// StatusExpired reports a key whose TTL deadline has passed: it reads
	// as missing, but a client can distinguish expiry from plain absence.
	StatusExpired byte = 4
)

// ErrBacklogged is returned by client calls when the server replies
// StatusBacklogged: the request did not execute and may be retried after
// backing off. The connection is still usable.
var ErrBacklogged = errors.New("netserver: server backlogged, retry later")

// maxPayload bounds request payloads (16 MB) to keep a malicious frame
// from exhausting memory.
const maxPayload = 16 << 20

// latShards bounds the per-connection latency histogram's shard set;
// connections hash onto shards by arrival order.
const latShards = 16

// Config tunes a Server's connection hygiene. The zero value disables
// both limits (accept everything, wait forever), matching the pre-config
// behaviour.
type Config struct {
	// IdleTimeout is the per-frame read deadline: a connection that sends
	// no complete request for this long is closed. Zero or negative
	// disables it.
	IdleTimeout time.Duration
	// MaxConns caps concurrently served connections. A connection over the
	// cap receives a StatusError reply ("connection limit reached") and is
	// closed — a graceful rejection the client can report, not a silent
	// drop. Zero or negative means unlimited.
	MaxConns int
	// MaxInflight is the per-connection pipelining window: how many decoded
	// requests may be in flight in the store at once before the connection's
	// decode stage stops reading (bounding per-connection memory at
	// MaxInflight request/response contexts; the client then backs up onto
	// TCP flow control). 1 degenerates to the old synchronous
	// one-op-at-a-time loop; zero or negative means DefaultInflight.
	MaxInflight int
}

// DefaultInflight is the per-connection window used when
// Config.MaxInflight is unset. It matches the receive-ring depth a single
// pipelined client needs to keep the CR layer busy without opening
// hundreds of connections.
const DefaultInflight = 128

// Server serves a kvcore store over TCP: it owns the protocol layer, the
// shared buffer leaser, the pipeline pool and the instruments; its
// transport (transport.go) owns the sockets.
type Server struct {
	store  *kvcore.Store
	cfg    Config
	tr     *transport
	leaser *arena.Leaser
	pipes  sync.Pool // *connPipeline, all of this server's window size

	nextConn  atomic.Uint64
	openConns *obs.Gauge
	idleConns *obs.Gauge
	rejected  *obs.Counter
	lat       [5]*obs.Histogram // wire op 0..3 + mget latency, ns
	mgetKeys  *obs.Histogram    // keys carried per served mget frame

	// Pipelined-executor instruments: window occupancy across connections
	// (submitted minus retired), the two counters that delta derives from,
	// and the flush-coalescing histogram (responses per Flush syscall).
	inflight   *obs.Gauge
	submitted  *obs.Counter
	retired    *obs.Counter
	flushBatch *obs.Histogram
	connParks  *obs.Counter // completion-stage sleeps on a connection bell

	// Parking-lot instruments: connections waiting in the lot, and
	// pipelines it has started. Activations over retired ops says whether
	// the park policy thrashes (1 = a pipeline start per request).
	parkedConns *obs.Gauge
	activations *obs.Counter
}

// window returns the effective per-connection pipelining window.
func (s *Server) window() int {
	if s.cfg.MaxInflight > 0 {
		return s.cfg.MaxInflight
	}
	return DefaultInflight
}

// netOpLabels renders wire-op labels; index 4 is OpMGet (see latIndex).
var netOpLabels = [5]string{`op="get"`, `op="put"`, `op="delete"`, `op="scan"`, `op="mget"`}

// latIndex maps a wire op onto its latency-histogram slot, or -1 for ops
// that are not latency-tracked (stats frames). The TTL variants share
// their base op's slot — the service path is the same.
func latIndex(op byte) int {
	switch {
	case op <= OpScan:
		return int(op)
	case op == OpMGet:
		return 4
	case op == OpPutTTL:
		return int(OpPut)
	case op == OpGetTTL:
		return int(OpGet)
	}
	return -1
}

// Serve starts accepting connections on ln with the zero Config and
// returns immediately.
func Serve(store *kvcore.Store, ln net.Listener) *Server {
	return ServeConfig(store, ln, Config{})
}

// ServeConfig starts serving the store on ln and returns immediately.
// The server registers its connection gauge and per-op latency histograms
// into the store's metric registry; registration is idempotent, so several
// servers over one store share series.
//
// Where an idle connection waits follows from the platform and ln (see
// transport.go): in the parking lot on Linux when ln is a
// *net.TCPListener, in its pipeline otherwise. Transport reports which.
func ServeConfig(store *kvcore.Store, ln net.Listener, cfg Config) *Server {
	s := newServer(store, cfg)
	s.tr = newTransport(s, ln)
	return s
}

// ListenAndServe binds addr and serves the store on it, like ServeConfig
// on a fresh TCP listener.
func ListenAndServe(store *kvcore.Store, addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return ServeConfig(store, ln, cfg), nil
}

// newServer builds the server core: protocol state, the buffer leaser and
// the instrument set.
func newServer(store *kvcore.Store, cfg Config) *Server {
	s := &Server{store: store, cfg: cfg, leaser: arena.NewLeaser()}
	reg := store.Metrics()
	s.openConns = reg.Gauge("mutps_net_connections", "", "Open client connections.")
	s.idleConns = reg.Gauge("mutps_net_idle_conns", "",
		"Open connections with no request in flight; they hold no leased buffers.")
	s.rejected = reg.Counter("mutps_net_conn_rejected_total", "",
		"Connections refused at the MaxConns cap.", 1)
	for op, l := range netOpLabels {
		s.lat[op] = reg.Histogram("mutps_net_op_latency_nanoseconds", l,
			"Per-request service time observed at the network server (decode to retired reply), in nanoseconds.",
			latShards)
	}
	s.mgetKeys = reg.Histogram("mutps_net_mget_keys", "",
		"Keys carried per served mget frame (server-side batching factor).", latShards)
	s.inflight = reg.Gauge("mutps_net_inflight", "",
		"Requests decoded but not yet retired, across all connections (per-connection pipelining window occupancy).")
	s.submitted = reg.Counter("mutps_net_ops_submitted_total", "",
		"Requests decoded and entered into a connection's in-flight window.", latShards)
	s.retired = reg.Counter("mutps_net_ops_retired_total", "",
		"Responses retired in FIFO order by connection completion stages.", latShards)
	s.flushBatch = reg.Histogram("mutps_net_flush_coalesce", "",
		"Responses carried by one connection flush (coalesced write syscalls per burst).", latShards)
	s.parkedConns = reg.Gauge("mutps_net_parked_conns", "",
		"Connections waiting in the epoll transport's parking lot: a descriptor each, no goroutine or buffer.")
	s.activations = reg.Counter("mutps_net_activations_total", "",
		"Pipelines the parking lot started for a connection that became readable.", 1)
	s.connParks = obs.NewCounter(latShards)
	reg.CounterFunc(kvcore.HandoffParksMetric, `site="conn"`, "",
		func() float64 { return float64(s.connParks.Value()) })
	reg.GaugeFunc("mutps_net_leased_buffer_bytes", "",
		"Request/response buffer bytes currently leased by in-flight requests; idle connections hold none.",
		func() float64 { return float64(s.leaser.LeasedBytes()) })
	return s
}

// Addr returns the listen address.
func (s *Server) Addr() net.Addr { return s.tr.ln.Addr() }

// Close stops accepting, closes every connection and waits for their
// in-flight store calls (transport.Close has the order). Calling it again
// is a no-op.
func (s *Server) Close() error { return s.tr.Close() }

// Transport reports where this server's idle connections wait —
// TransportEpoll when the platform delivered the parking lot, else
// TransportGoroutine — so startup logs show the real connection cost model.
func (s *Server) Transport() string {
	if s.tr.lot != nil {
		return TransportEpoll
	}
	return TransportGoroutine
}

// appendStats2 builds the stats2 payload: every sample the store's metric
// registry exports, under its series name.
func (s *Server) appendStats2(body []byte) []byte {
	samples := s.store.Metrics().Snapshot()
	body = binary.LittleEndian.AppendUint32(body, uint32(len(samples)))
	for _, smp := range samples {
		body = appendStat(body, smp.Name, smp.Value)
	}
	return body
}

// appendStat encodes one stats2 entry: nlen(2) name float64bits(8).
func appendStat(body []byte, name string, v float64) []byte {
	body = binary.LittleEndian.AppendUint16(body, uint16(len(name)))
	body = append(body, name...)
	return binary.LittleEndian.AppendUint64(body, math.Float64bits(v))
}

// appendMGetEntry encodes one positional mget response entry:
// found(1) vlen(4) val.
func appendMGetEntry(body []byte, found bool, val []byte) []byte {
	var flag byte
	if found {
		flag = 1
	}
	body = append(body, flag)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(val)))
	return append(body, val...)
}

// appendScanEntry encodes one scan response entry: key(8) vlen(4) val.
func appendScanEntry(body []byte, key uint64, val []byte) []byte {
	body = binary.LittleEndian.AppendUint64(body, key)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(val)))
	return append(body, val...)
}

func writeResp(w *bufio.Writer, status byte, payload []byte) error {
	hdr, err := headerBuf(w, 5)
	if err != nil {
		return err
	}
	hdr = append(hdr, status)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// headerBuf returns w's free buffer space, flushing first if it holds fewer
// than n bytes, so a frame header of n bytes is encoded in place: a header
// array on the stack would escape through bufio's io.Writer and cost an
// allocation per frame. The bytes on the wire are the same either way.
func headerBuf(w *bufio.Writer, n int) ([]byte, error) {
	if w.Available() < n {
		if err := w.Flush(); err != nil {
			return nil, err
		}
	}
	return w.AvailableBuffer(), nil
}

// Client is the synchronous client for the netserver protocol: a
// PipelineClient driven one request at a time, so the wire codec and the
// handling of a failed connection exist once. It is safe for concurrent
// use (calls serialize on the connection).
type Client struct {
	mu        sync.Mutex
	pc        *PipelineClient
	opTimeout time.Duration
}

// Dial connects to a μTPS network server with no per-op deadline.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 0, 0)
}

// DialTimeout connects like Dial but bounds the connect itself by
// dialTimeout and every subsequent operation by opTimeout (zero disables
// either). A timed-out operation leaves the request/response stream out of
// sync, so it ends the connection: every later call fails fast with a
// "connection broken" error and the caller reconnects.
func DialTimeout(addr string, dialTimeout, opTimeout time.Duration) (*Client, error) {
	pc, err := dialPipeline(addr, 1, dialTimeout)
	if err != nil {
		return nil, err
	}
	return &Client{pc: pc, opTimeout: opTimeout}, nil
}

// SetOpTimeout changes the per-operation deadline (zero disables it). It
// does not affect an operation already in flight.
func (c *Client) SetOpTimeout(d time.Duration) {
	c.mu.Lock()
	c.opTimeout = d
	c.mu.Unlock()
}

// Close closes the connection and waits for its read loop to exit.
func (c *Client) Close() error { return c.pc.Close() }

// roundTrip runs one request to completion. The body is copied out of the
// pooled future, so it is caller-owned. In-protocol error replies
// (StatusError, StatusBacklogged) come back as errors with the connection
// still usable; a transport failure or an expired deadline is terminal for
// the connection (see PipelineClient).
func (c *Client) roundTrip(op byte, key uint64, payload []byte) (byte, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var deadline time.Time
	if c.opTimeout > 0 {
		deadline = time.Now().Add(c.opTimeout)
	}
	// SetDeadline fails only on a connection that is already closed, which
	// Send reports.
	_ = c.pc.SetDeadline(deadline)
	f, err := c.pc.Send(op, key, payload)
	if err != nil {
		return 0, nil, err
	}
	defer f.Release()
	// A failed flush ends the connection, which completes f with the cause.
	_ = c.pc.Flush()
	st, body, err := f.Wait()
	if err != nil {
		return st, nil, err
	}
	return st, bytes.Clone(body), nil
}

// Get fetches the value for key.
func (c *Client) Get(key uint64) ([]byte, bool, error) {
	st, body, err := c.roundTrip(OpGet, key, nil)
	if err != nil {
		return nil, false, err
	}
	return body, st == StatusFound, nil
}

// Put stores val under key.
func (c *Client) Put(key uint64, val []byte) error {
	_, _, err := c.roundTrip(OpPut, key, val)
	return err
}

// PutTTL stores val under key with a per-item TTL. ttl <= 0 selects the
// server's configured default (and "never" when that is unset too).
func (c *Client) PutTTL(key uint64, val []byte, ttl time.Duration) error {
	payload := make([]byte, 8+len(val))
	if ttl > 0 {
		binary.LittleEndian.PutUint64(payload, uint64(ttl))
	}
	copy(payload[8:], val)
	_, _, err := c.roundTrip(OpPutTTL, key, payload)
	return err
}

// GetTTL fetches the value for key together with its remaining TTL
// (0 = no expiry set). Expired keys report found=false, exactly like
// absent ones; callers that only need the value can keep using Get.
func (c *Client) GetTTL(key uint64) (val []byte, ttl time.Duration, found bool, err error) {
	st, body, err := c.roundTrip(OpGetTTL, key, nil)
	if err != nil {
		return nil, 0, false, err
	}
	if st != StatusFound {
		return nil, 0, false, nil
	}
	if len(body) < 8 {
		return nil, 0, false, fmt.Errorf("netserver: get-ttl response too short (%d bytes)", len(body))
	}
	return body[8:], time.Duration(binary.LittleEndian.Uint64(body)), true, nil
}

// Delete removes key, reporting whether it existed.
func (c *Client) Delete(key uint64) (bool, error) {
	st, _, err := c.roundTrip(OpDelete, key, nil)
	if err != nil {
		return false, err
	}
	return st == StatusFound, nil
}

// StatsMap fetches the server's stats2 payload: every metric the server
// exports, keyed by series name as /metrics prints it, e.g.
// `mutps_ops_total{op="get"}` or `mutps_items`.
func (c *Client) StatsMap() (map[string]float64, error) {
	_, body, err := c.roundTrip(OpStats2, 0, nil)
	if err != nil {
		return nil, err
	}
	return decodeStats2(body)
}

// entryCount splits a response payload into its leading 32-bit entry count
// and the entries. The count comes off the wire and sizes the decoder's
// result, so one the remaining bytes cannot hold — at minEntry bytes per
// entry — is rejected here, before anything is allocated from it.
func entryCount(body []byte, minEntry int, what string) (int, []byte, error) {
	if len(body) < 4 {
		return 0, nil, fmt.Errorf("netserver: short %s response", what)
	}
	n := binary.LittleEndian.Uint32(body)
	body = body[4:]
	if uint64(n) > uint64(len(body)/minEntry) {
		return 0, nil, fmt.Errorf("netserver: %s response claims %d entries in %d bytes", what, n, len(body))
	}
	return int(n), body, nil
}

// decodeStats2 parses a stats2 payload into a name→value map.
func decodeStats2(body []byte) (map[string]float64, error) {
	n, body, err := entryCount(body, 2+8, "stats2")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		if len(body) < 2 {
			return nil, errors.New("netserver: truncated stats2 entry")
		}
		nlen := binary.LittleEndian.Uint16(body)
		body = body[2:]
		if len(body) < int(nlen)+8 {
			return nil, errors.New("netserver: truncated stats2 entry")
		}
		name := string(body[:nlen])
		body = body[nlen:]
		out[name] = math.Float64frombits(binary.LittleEndian.Uint64(body))
		body = body[8:]
	}
	return out, nil
}

// AppendMGetRequest appends the mget request payload for keys to dst and
// returns it: count(4) then count × key(8). Callers send it with OpMGet
// (the frame's key field is unused). len(keys) must be ≤ MaxMGetKeys.
func AppendMGetRequest(dst []byte, keys []uint64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(keys)))
	for _, k := range keys {
		dst = binary.LittleEndian.AppendUint64(dst, k)
	}
	return dst
}

// DecodeMGet parses an mget response payload into positional values and
// found flags. Values are copied out of body, so they stay valid after the
// caller releases the response buffer.
func DecodeMGet(body []byte) (vals [][]byte, found []bool, err error) {
	n, body, err := entryCount(body, 1+4, "mget")
	if err != nil {
		return nil, nil, err
	}
	vals = make([][]byte, n)
	found = make([]bool, n)
	for i := 0; i < n; i++ {
		if len(body) < 5 {
			return nil, nil, errors.New("netserver: truncated mget entry")
		}
		f := body[0] != 0
		vlen := binary.LittleEndian.Uint32(body[1:5])
		body = body[5:]
		if uint32(len(body)) < vlen {
			return nil, nil, errors.New("netserver: truncated mget value")
		}
		if f {
			v := make([]byte, vlen)
			copy(v, body[:vlen])
			vals[i], found[i] = v, true
		}
		body = body[vlen:]
	}
	return vals, found, nil
}

// MGet fetches several keys in one wire frame. Results are positional:
// vals[i]/found[i] answer keys[i].
func (c *Client) MGet(keys []uint64) (vals [][]byte, found []bool, err error) {
	if len(keys) > MaxMGetKeys {
		return nil, nil, fmt.Errorf("netserver: mget batch %d exceeds MaxMGetKeys %d", len(keys), MaxMGetKeys)
	}
	payload := AppendMGetRequest(nil, keys)
	_, body, err := c.roundTrip(OpMGet, 0, payload)
	if err != nil {
		return nil, nil, err
	}
	return DecodeMGet(body)
}

// Scan returns up to count entries with keys >= start.
func (c *Client) Scan(start uint64, count int) ([]kvcore.KV, error) {
	var pl [4]byte
	binary.LittleEndian.PutUint32(pl[:], uint32(count))
	_, body, err := c.roundTrip(OpScan, start, pl[:])
	if err != nil {
		return nil, err
	}
	return decodeScan(body)
}

// decodeScan parses a scan response payload; values are copied out of body.
func decodeScan(body []byte) ([]kvcore.KV, error) {
	n, body, err := entryCount(body, 8+4, "scan")
	if err != nil {
		return nil, err
	}
	out := make([]kvcore.KV, 0, n)
	for i := 0; i < n; i++ {
		if len(body) < 12 {
			return nil, errors.New("netserver: truncated scan entry")
		}
		key := binary.LittleEndian.Uint64(body[0:8])
		vlen := binary.LittleEndian.Uint32(body[8:12])
		body = body[12:]
		if uint32(len(body)) < vlen {
			return nil, errors.New("netserver: truncated scan value")
		}
		val := make([]byte, vlen)
		copy(val, body[:vlen])
		body = body[vlen:]
		out = append(out, kvcore.KV{Key: key, Value: val})
	}
	return out, nil
}
