package cluster

import (
	"testing"
	"time"

	"mutps/internal/kvcore"
	"mutps/internal/netserver"
	"mutps/internal/obs"
)

// TestLocalShardsServeHot: an in-process shard is opened the way every
// store is, so its hot-set refresher runs and a skewed get burst ends up
// served at the cache-resident layer. (LaunchLocal used to open shards
// without a refresher: CR hits stayed 0 forever and -hot did nothing.)
func TestLocalShardsServeHot(t *testing.T) {
	if obs.Disabled {
		t.Skip("CR hits come from the obs instruments")
	}
	const nShards, perShard = 2, 4
	l, err := LaunchLocal(nShards, LocalOptions{
		Config: kvcore.Config{Workers: 3, CRWorkers: 1, HotItems: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := Dial(Config{Addrs: l.Addrs()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A handful of hot keys on every shard.
	var hot []uint64
	have := make([]int, nShards)
	for k := uint64(0); len(hot) < nShards*perShard; k++ {
		if si := c.ShardOf(k); have[si] < perShard {
			have[si]++
			hot = append(hot, k)
			if err := c.Put(k, []byte("hothotho")); err != nil {
				t.Fatal(err)
			}
		}
	}
	stats := make([]*netserver.Client, nShards)
	for i, addr := range l.Addrs() {
		if stats[i], err = netserver.Dial(addr); err != nil {
			t.Fatal(err)
		}
		defer stats[i].Close()
	}

	crHits := make([]float64, nShards)
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		for i := 0; i < 32; i++ {
			for _, k := range hot {
				if _, ok, err := c.Get(k); err != nil || !ok {
					t.Fatalf("get %d: found=%v err=%v", k, ok, err)
				}
			}
		}
		served := 0
		for i, sc := range stats {
			m, err := sc.StatsMap()
			if err != nil {
				t.Fatal(err)
			}
			if crHits[i] = m[`mutps_cr_requests_total{result="hit"}`]; crHits[i] > 0 {
				served++
			}
		}
		if served == nShards {
			return
		}
	}
	t.Fatalf("CR hits per shard after 1s of skewed gets = %v, want every shard > 0", crHits)
}
