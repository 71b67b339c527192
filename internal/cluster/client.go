package cluster

import (
	"fmt"

	"mutps/internal/netserver"
	"mutps/internal/obs"
)

// Config configures a cluster Client. Only Addrs is required.
type Config struct {
	// Addrs lists the shard servers. Order is the shard index used by the
	// per-shard metrics labels.
	Addrs []string
	// Inflight is the per-shard pipelined-connection window (default 128).
	Inflight int
	// MGetBatch caps the keys per mget wire frame (default 256, hard cap
	// netserver.MaxMGetKeys). Larger multi-gets split across frames.
	MGetBatch int
	// Registry receives the client's mutps_cluster_* metrics; nil creates
	// a private registry (reachable via Metrics).
	Registry *obs.Registry
}

// Client presents the shard set as one logical keyspace. It keeps one
// pipelined connection per shard and fans multi-key gets out as one
// batched mget frame per shard — the per-host batching that multi-node
// throughput comes from — while single-key ops route point-to-point on the
// consistent-hash ring. Every key lives on the one shard the ring names,
// so clients that share a shard set read each other's writes. Safe for
// concurrent use; concurrent callers share the per-shard windows.
type Client struct {
	cfg    Config
	ring   *Ring // over Addrs in their order: a member index is a shard index
	shards []*shard
	batch  int

	reg        *obs.Registry
	opsShard   []*obs.Counter
	mgetFrames *obs.Counter
	mgetKeys   *obs.Histogram
}

// shard is one member server and its pipelined connection.
type shard struct {
	addr string
	pc   *netserver.PipelineClient
}

// Dial connects to every shard and builds the ring.
func Dial(cfg Config) (*Client, error) {
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("cluster: no shard addresses")
	}
	if cfg.Inflight <= 0 {
		cfg.Inflight = 128
	}
	batch := cfg.MGetBatch
	if batch <= 0 {
		batch = 256
	}
	if batch > netserver.MaxMGetKeys {
		batch = netserver.MaxMGetKeys
	}
	ring, err := NewRing(cfg.Addrs)
	if err != nil {
		return nil, err
	}
	c := &Client{cfg: cfg, ring: ring, batch: batch}
	for _, addr := range cfg.Addrs {
		pc, err := netserver.DialPipeline(addr, cfg.Inflight)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: dial shard %s: %w", addr, err)
		}
		c.shards = append(c.shards, &shard{addr: addr, pc: pc})
	}
	c.reg = cfg.Registry
	if c.reg == nil {
		c.reg = obs.NewRegistry()
	}
	c.opsShard = make([]*obs.Counter, len(c.shards))
	for i := range c.shards {
		c.opsShard[i] = c.reg.Counter("mutps_cluster_ops_total",
			fmt.Sprintf(`shard="%d"`, i),
			"Wire operations sent to each shard (frames, not keys).", 4)
	}
	c.mgetFrames = c.reg.Counter("mutps_cluster_mget_frames_total", "",
		"Batched mget frames sent across all shards.", 4)
	c.mgetKeys = c.reg.Histogram("mutps_cluster_mget_keys_per_frame", "",
		"Keys carried per mget frame (per-shard fan-out batching factor).", 4)
	return c, nil
}

// Metrics returns the registry carrying the client's mutps_cluster_*
// series.
func (c *Client) Metrics() *obs.Registry { return c.reg }

// Shards returns the shard count.
func (c *Client) Shards() int { return len(c.shards) }

// ShardOf returns the index of the shard that owns key.
func (c *Client) ShardOf(key uint64) int { return c.ring.LocateIndex(key) }

// Close tears down every shard connection; the first error wins.
func (c *Client) Close() error {
	var first error
	for _, sh := range c.shards {
		if err := sh.pc.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// do runs one synchronous op against shard si: send, flush, wait. The
// returned body is copied out of the pooled future, so it is caller-owned.
func (c *Client) do(si int, op byte, key uint64, payload []byte) (status byte, body []byte, err error) {
	sh := c.shards[si]
	f, err := sh.pc.Send(op, key, payload)
	if err != nil {
		return 0, nil, err
	}
	if !obs.Disabled {
		c.opsShard[si].Inc(0)
	}
	// A failed flush ends the connection, which completes f with the cause.
	_ = sh.pc.Flush()
	st, b, err := f.Wait()
	if len(b) > 0 && err == nil {
		body = append([]byte(nil), b...)
	}
	f.Release()
	return st, body, err
}

// Get fetches key from its owning shard.
func (c *Client) Get(key uint64) ([]byte, bool, error) {
	st, body, err := c.do(c.ShardOf(key), netserver.OpGet, key, nil)
	if err != nil || st != netserver.StatusFound {
		return nil, false, err
	}
	return body, true, nil
}

// Put stores val under key on its owning shard.
func (c *Client) Put(key uint64, val []byte) error {
	_, _, err := c.do(c.ShardOf(key), netserver.OpPut, key, val)
	return err
}

// Delete removes key from its owning shard, reporting whether it existed.
func (c *Client) Delete(key uint64) (bool, error) {
	st, _, err := c.do(c.ShardOf(key), netserver.OpDelete, key, nil)
	if err != nil {
		return false, err
	}
	return st == netserver.StatusFound, nil
}

// frame is one in-flight mget wire frame of a fan-out; the response
// answers the idxs positions in order.
type frame struct {
	fut  *netserver.Future
	idxs []int
}

// MGet fetches keys from across the cluster with one batched mget frame
// per shard per MGetBatch keys: keys group by owning shard, each group
// rides the shard's pipelined window as whole frames, and every window
// fills concurrently — the cross-host fan-out that aggregate throughput
// comes from. Results are positional: vals[i]/found[i] answer keys[i],
// with vals caller-owned. A frame a shard rejects in-protocol (backlogged,
// shutting down) fails the call with that error; gets have no side
// effects, so the caller retries the whole MGet.
func (c *Client) MGet(keys []uint64) (vals [][]byte, found []bool, err error) {
	vals = make([][]byte, len(keys))
	found = make([]bool, len(keys))
	if len(keys) == 0 {
		return vals, found, nil
	}
	groups := make([][]int, len(c.shards))
	for i, k := range keys {
		si := c.ShardOf(k)
		groups[si] = append(groups[si], i)
	}
	if err := c.fanout(keys, groups, vals, found); err != nil {
		return nil, nil, err
	}
	return vals, found, nil
}

// fanout sends the grouped gets as mget frames, flushes every
// touched window once, then retires the frames in issue order and scatters
// results into vals/found. A send failure stops the issuing but not the
// rest: whatever was sent is still flushed, waited and released — a frame
// left in a write buffer would park its waiter forever — and the first
// error, from sending or from any frame, is returned.
func (c *Client) fanout(keys []uint64, groups [][]int, vals [][]byte, found []bool) error {
	var frames []frame
	var keybuf []uint64
	var payload []byte
	var firstErr error
issue:
	for si, idxs := range groups {
		sh := c.shards[si]
		for start := 0; start < len(idxs); start += c.batch {
			end := start + c.batch
			if end > len(idxs) {
				end = len(idxs)
			}
			sub := idxs[start:end]
			keybuf = keybuf[:0]
			for _, i := range sub {
				keybuf = append(keybuf, keys[i])
			}
			payload = netserver.AppendMGetRequest(payload[:0], keybuf)
			f, err := sh.pc.Send(netserver.OpMGet, 0, payload)
			if err != nil {
				firstErr = err
				break issue
			}
			if !obs.Disabled {
				c.opsShard[si].Inc(0)
				c.mgetFrames.Inc(0)
				c.mgetKeys.Record(0, uint64(len(sub)))
			}
			frames = append(frames, frame{fut: f, idxs: sub})
		}
	}
	for si, idxs := range groups {
		if len(idxs) > 0 {
			// A failed flush ends that shard's connection, which completes
			// its futures with the cause; the retire loop reports it.
			_ = c.shards[si].pc.Flush()
		}
	}
	for _, fr := range frames {
		_, body, err := fr.fut.Wait()
		if err == nil {
			err = scatterMGet(body, fr.idxs, vals, found)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		fr.fut.Release()
	}
	return firstErr
}

// scatterMGet decodes one mget response body into the positions the frame
// covered. Values are copied out of the pooled response buffer.
func scatterMGet(body []byte, idxs []int, vals [][]byte, found []bool) error {
	fvals, ffound, err := netserver.DecodeMGet(body)
	if err != nil {
		return err
	}
	if len(fvals) != len(idxs) {
		return fmt.Errorf("cluster: mget response carried %d entries for %d keys", len(fvals), len(idxs))
	}
	for j, i := range idxs {
		if ffound[j] {
			vals[i] = fvals[j]
			found[i] = true
		}
	}
	return nil
}
