package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"mutps/internal/kvcore"
	"mutps/internal/netserver"
	"mutps/internal/obs"
)

func launch(t *testing.T, n int) (*Local, *Client) {
	t.Helper()
	return launchCfg(t, n, Config{})
}

func launchCfg(t *testing.T, n int, cfg Config) (*Local, *Client) {
	t.Helper()
	l, err := LaunchLocal(n, LocalOptions{Config: kvcore.Config{Workers: 3, CRWorkers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Addrs = l.Addrs()
	c, err := Dial(cfg)
	if err != nil {
		l.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		l.Close()
	})
	return l, c
}

// TestClusterRoundTrip spawns N in-process netservers and verifies that
// every key routes to exactly one shard and round-trips through the
// cluster client: the value is readable via the cluster, present on the
// routed shard's store, and absent from every other shard.
func TestClusterRoundTrip(t *testing.T) {
	const nShards, nKeys = 3, 300
	l, c := launch(t, nShards)
	for k := uint64(0); k < nKeys; k++ {
		if err := c.Put(k, []byte(fmt.Sprintf("v%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	perShard := make([]int, nShards)
	for k := uint64(0); k < nKeys; k++ {
		v, ok, err := c.Get(k)
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", k) {
			t.Fatalf("cluster get %d: %q %v %v", k, v, ok, err)
		}
		holders := 0
		for s := 0; s < nShards; s++ {
			if _, found, err := l.Store(s).Get(k); err != nil {
				t.Fatal(err)
			} else if found {
				holders++
				if s != c.ShardOf(k) {
					t.Fatalf("key %d held by shard %d but routed to %d", k, s, c.ShardOf(k))
				}
			}
		}
		if holders != 1 {
			t.Fatalf("key %d held by %d shards, want exactly 1", k, holders)
		}
		perShard[c.ShardOf(k)]++
	}
	for s, n := range perShard {
		if n == 0 {
			t.Errorf("shard %d received no keys out of %d", s, nKeys)
		}
	}
	// Deletes route the same way.
	if ok, err := c.Delete(7); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if _, ok, _ := c.Get(7); ok {
		t.Fatal("key 7 still readable after delete")
	}
}

func TestClusterMGet(t *testing.T) {
	const nShards = 3
	_, c := launchCfg(t, nShards, Config{MGetBatch: 16})
	for k := uint64(0); k < 200; k += 2 {
		if err := c.Put(k, []byte(fmt.Sprintf("m%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	keys := make([]uint64, 200)
	for i := range keys {
		keys[i] = uint64(i)
	}
	vals, found, err := c.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		want := k%2 == 0
		if found[i] != want {
			t.Fatalf("key %d: found=%v want %v", k, found[i], want)
		}
		if want && string(vals[i]) != fmt.Sprintf("m%d", k) {
			t.Fatalf("key %d: %q", k, vals[i])
		}
	}
	// The fan-out histogram must show per-shard grouping: with 200 keys,
	// 3 shards, and batch 16, frames carry multiple keys each.
	if !obs.Disabled {
		m := c.Metrics().SnapshotMap()
		frames := m["mutps_cluster_mget_frames_total"]
		if frames == 0 {
			t.Fatal("no mget frames recorded")
		}
		avg := 200 / frames
		if avg < 2 {
			t.Errorf("avg keys/frame %.1f — fan-out not batching", avg)
		}
	}
}

func TestClusterMGetConcurrent(t *testing.T) {
	_, c := launchCfg(t, 2, Config{MGetBatch: 32})
	for k := uint64(0); k < 128; k++ {
		if err := c.Put(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			keys := make([]uint64, 64)
			for round := 0; round < 20; round++ {
				for i := range keys {
					keys[i] = uint64((g*17 + round*31 + i) % 128)
				}
				vals, found, err := c.MGet(keys)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				for i, k := range keys {
					if !found[i] || len(vals[i]) != 1 || vals[i][0] != byte(k) {
						t.Errorf("goroutine %d key %d: found=%v val=%v", g, k, found[i], vals[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// stubShard is a protocol peer for fault injection: it serves every
// accepted connection by answering each request frame with what reply
// returns. A nil reply hangs up on accept instead.
func stubShard(t *testing.T, reply func(op byte, payload []byte) (status byte, body []byte)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	serve := func(conn net.Conn) {
		defer wg.Done()
		defer conn.Close()
		if reply == nil {
			return
		}
		r := bufio.NewReader(conn)
		var hdr [13]byte
		for {
			if _, err := io.ReadFull(r, hdr[:]); err != nil {
				return
			}
			payload := make([]byte, binary.LittleEndian.Uint32(hdr[9:13]))
			if _, err := io.ReadFull(r, payload); err != nil {
				return
			}
			status, body := reply(hdr[0], payload)
			resp := binary.LittleEndian.AppendUint32([]byte{status}, uint32(len(body)))
			if _, err := conn.Write(append(resp, body...)); err != nil {
				return
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go serve(conn)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	return ln.Addr().String()
}

// keysOn returns n keys that route to shard si.
func keysOn(c *Client, si, n int) []uint64 {
	var keys []uint64
	for k := uint64(0); len(keys) < n; k++ {
		if c.ShardOf(k) == si {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestClusterMGetRejectedFrame pins what replaced the per-key degradation:
// a shard that rejects an mget frame in-protocol fails the MGet with the
// shard's error, and the fan-out still retires every frame it sent — the
// healthy shard's and the rejecting shard's connections both stay in sync
// for the calls that follow.
func TestClusterMGetRejectedFrame(t *testing.T) {
	l, err := LaunchLocal(1, LocalOptions{Config: kvcore.Config{Workers: 3, CRWorkers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rejecting := stubShard(t, func(op byte, _ []byte) (byte, []byte) {
		if op == netserver.OpMGet {
			return netserver.StatusError, []byte("mget refused")
		}
		return netserver.StatusNotFound, nil
	})
	c, err := Dial(Config{Addrs: append(l.Addrs(), rejecting), MGetBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	healthy := keysOn(c, 0, 12)
	for _, k := range healthy {
		if err := c.Put(k, []byte(fmt.Sprintf("h%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	mixed := append(append([]uint64(nil), healthy...), keysOn(c, 1, 12)...)
	if _, _, err := c.MGet(mixed); err == nil || !strings.Contains(err.Error(), "mget refused") {
		t.Fatalf("MGet across a rejecting shard: err = %v, want the shard's rejection", err)
	}
	if !obs.Disabled {
		if frames := c.Metrics().SnapshotMap()["mutps_cluster_mget_frames_total"]; frames != 6 {
			t.Errorf("%v mget frames for 24 keys at batch 4, want 6: the rejection must not add per-key retries", frames)
		}
	}
	// Nothing was left half-read on either connection.
	vals, found, err := c.MGet(healthy)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range healthy {
		if !found[i] || string(vals[i]) != fmt.Sprintf("h%d", k) {
			t.Fatalf("healthy shard after the rejection: key %d found=%v val=%q", k, found[i], vals[i])
		}
	}
	if _, ok, err := c.Get(keysOn(c, 1, 1)[0]); err != nil || ok {
		t.Fatalf("rejecting shard after the rejection: found=%v err=%v, want its plain not-found", ok, err)
	}
}

// TestClusterMGetSendFailureDrains kills one shard's connection and fans
// out across it: the Send that fails must not strand the frames already
// issued to the other shard. That shard answers slowly, so its later
// frames are still sitting in the client's write buffer when the failure
// hits — waiting on them without flushing first would never return.
func TestClusterMGetSendFailureDrains(t *testing.T) {
	slow := stubShard(t, func(op byte, payload []byte) (byte, []byte) {
		time.Sleep(20 * time.Millisecond)
		n := binary.LittleEndian.Uint32(payload)
		return netserver.StatusFound, append(payload[:4:4], make([]byte, 5*n)...) // n × not-found
	})
	dead := stubShard(t, nil)
	c, err := Dial(Config{Addrs: []string{slow, dead}, MGetBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The hang-up is noticed by the shard connection's read loop; once a
	// call on it has failed, every later Send fails fast.
	if _, _, err := c.Get(keysOn(c, 1, 1)[0]); err == nil {
		t.Fatal("get on a shard that hung up succeeded")
	}

	keys := append(keysOn(c, 0, 12), keysOn(c, 1, 2)...)
	done := make(chan error, 1)
	go func() {
		_, _, err := c.MGet(keys)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("MGet across a dead shard returned no error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("MGet hung: frames issued before the failed Send were never flushed")
	}
	// The slow shard's connection took no damage.
	if _, found, err := c.MGet(keysOn(c, 0, 4)); err != nil || found[0] {
		t.Fatalf("slow shard after the failure: found=%v err=%v", found, err)
	}
}

// TestCrossClientConsistency shares three shards between two clients that
// take turns rewriting every key, the value's size alternating between
// 4 KiB and 64 B, and then delete every key: after each round every Get
// and MGet from either client must return the last completed write.
// Placement that depends on what the writing client remembers fails here:
// a client that put a key large, and did not see the other client shrink
// it, reads its own stale copy.
func TestCrossClientConsistency(t *testing.T) {
	const nShards, nKeys, rounds = 3, 100, 4
	l, a := launch(t, nShards)
	b, err := Dial(Config{Addrs: l.Addrs()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	clients := []*Client{a, b}
	keys := make([]uint64, nKeys)
	for i := range keys {
		keys[i] = uint64(i)
	}
	// value is key k's value in round r: 4 KiB in even rounds, 64 B in odd
	// ones, led by the key and the round so a stale copy never matches.
	value := func(k uint64, r int) []byte {
		v := make([]byte, 64)
		if r%2 == 0 {
			v = make([]byte, 4096)
		}
		binary.LittleEndian.PutUint64(v, k)
		binary.LittleEndian.PutUint64(v[8:], uint64(r))
		return v
	}
	describe := func(v []byte, ok bool) string {
		switch {
		case !ok:
			return "no value"
		case len(v) < 16:
			return fmt.Sprintf("%d B", len(v))
		}
		return fmt.Sprintf("%d B from round %d", len(v), binary.LittleEndian.Uint64(v[8:]))
	}
	stale := make(map[uint64]string) // key → its first wrong read
	check := func(want func(k uint64) []byte) {
		for ci, c := range clients {
			vals, found, err := c.MGet(keys)
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range keys {
				v, ok, err := c.Get(k)
				if err != nil {
					t.Fatal(err)
				}
				w := want(k)
				reads := [...]struct {
					op string
					v  []byte
					ok bool
				}{{"Get", v, ok}, {"MGet", vals[i], found[i]}}
				for _, got := range reads {
					if _, seen := stale[k]; !seen && (got.ok != (w != nil) || !bytes.Equal(got.v, w)) {
						stale[k] = fmt.Sprintf("client %d %s read %s, want %s",
							ci, got.op, describe(got.v, got.ok), describe(w, w != nil))
					}
				}
			}
		}
	}
	for r := 0; r < rounds; r++ {
		for _, k := range keys {
			if err := clients[r%2].Put(k, value(k, r)); err != nil {
				t.Fatal(err)
			}
		}
		check(func(k uint64) []byte { return value(k, r) })
	}
	for _, k := range keys {
		if ok, err := clients[k%2].Delete(k); err != nil || !ok {
			t.Fatalf("client %d Delete(%d) = %v, %v; want found", k%2, k, ok, err)
		}
	}
	check(func(uint64) []byte { return nil })
	for _, k := range keys {
		if why, ok := stale[k]; ok {
			t.Fatalf("%d of %d keys read stale; first, key %d: %s", len(stale), nKeys, k, why)
		}
	}
}
