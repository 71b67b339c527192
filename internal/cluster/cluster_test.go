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

// TestSizeAwarePlacement verifies the Minos-style routing: small values
// stay on the small shard set, threshold-crossing puts move to the large
// set (with the stale small copy cleared), shrinking moves back, and reads
// stay correct throughout — including for a second client with no placement
// tracker, which must find large keys via the miss-probe path.
func TestSizeAwarePlacement(t *testing.T) {
	const nShards = 3
	l, err := LaunchLocal(nShards, LocalOptions{Config: kvcore.Config{Workers: 3, CRWorkers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cfg := Config{
		Addrs:         l.Addrs(),
		SizeThreshold: 1024,
		LargeShards:   []int{nShards - 1},
	}
	c, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	small := bytes.Repeat([]byte{7}, 64)
	big := bytes.Repeat([]byte{9}, 4096)

	// Small values never land on the large shard.
	for k := uint64(0); k < 50; k++ {
		if err := c.Put(k, small); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 50; k++ {
		if _, found, _ := l.Store(nShards - 1).Get(k); found {
			t.Fatalf("small key %d landed on the large shard", k)
		}
	}
	// Large values land only on the large shard.
	for k := uint64(100); k < 120; k++ {
		if err := c.Put(k, big); err != nil {
			t.Fatal(err)
		}
		if !c.router.TrackedLarge(k) {
			t.Fatalf("key %d not tracked large after large put", k)
		}
	}
	for k := uint64(100); k < 120; k++ {
		if _, found, _ := l.Store(nShards - 1).Get(k); !found {
			t.Fatalf("large key %d missing from the large shard", k)
		}
		v, ok, err := c.Get(k)
		if err != nil || !ok || len(v) != len(big) {
			t.Fatalf("cluster get of large key %d: %v %v len=%d", k, ok, err, len(v))
		}
	}
	// Crossing up: a small key regrown large must read back fresh (the
	// stale small copy is companion-deleted).
	if err := c.Put(3, big); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := c.Get(3); !ok || len(v) != len(big) {
		t.Fatalf("key 3 after growth: ok=%v len=%d", ok, len(v))
	}
	foundSmall := false
	for s := 0; s < nShards-1; s++ {
		if _, f, _ := l.Store(s).Get(3); f {
			foundSmall = true
		}
	}
	if foundSmall {
		t.Fatal("stale small copy of key 3 survived growth to large")
	}
	// Crossing down: shrink back below the threshold.
	if err := c.Put(3, small); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := c.Get(3); !ok || len(v) != len(small) {
		t.Fatalf("key 3 after shrink: ok=%v len=%d", ok, len(v))
	}
	if _, f, _ := l.Store(nShards - 1).Get(3); f {
		t.Fatal("stale large copy of key 3 survived shrink")
	}
	if c.router.TrackedLarge(3) {
		t.Fatal("key 3 still tracked large after shrink")
	}

	// A fresh client (empty tracker) must still read large keys via the
	// miss-probe, and its MGet must resolve a mix of small and large keys.
	c2, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if v, ok, err := c2.Get(110); err != nil || !ok || len(v) != len(big) {
		t.Fatalf("fresh client get of large key: %v %v len=%d", ok, err, len(v))
	}
	mixed := []uint64{1, 110, 2, 111, 999}
	vals, found, err := c2.MGet(mixed)
	if err != nil {
		t.Fatal(err)
	}
	wantLen := []int{len(small), len(big), len(small), len(big), 0}
	for i, k := range mixed {
		if k == 999 {
			if found[i] {
				t.Fatal("missing key reported found")
			}
			continue
		}
		if !found[i] || len(vals[i]) != wantLen[i] {
			t.Fatalf("mixed mget key %d: found=%v len=%d want %d", k, found[i], len(vals[i]), wantLen[i])
		}
	}
	// Delete clears both sets.
	if ok, err := c.Delete(110); err != nil || !ok {
		t.Fatalf("delete large: %v %v", ok, err)
	}
	if _, ok, _ := c.Get(110); ok {
		t.Fatal("large key readable after delete")
	}
}
