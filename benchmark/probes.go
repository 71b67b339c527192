package main

import (
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"mutps"
	"mutps/internal/arena"
	"mutps/internal/btree"
	"mutps/internal/coldtier"
	"mutps/internal/cuckoo"
	"mutps/internal/epoch"
	"mutps/internal/hotset"
	"mutps/internal/ring"
	"mutps/internal/rpc"
	"mutps/internal/seqitem"
	"mutps/internal/workload"
)

// The probes time each layer's public calls from outside, in this process,
// single-threaded: what a call costs when nothing contends for it. They
// bound how much of a request's time a layer can account for; what the
// layers do not account for is wake-ups, hand-offs, the kernel and TCP.

const (
	probeBatch   = 20_000 // calls between two clock reads
	probeBatches = 11     // the result is the median batch
	indexKeys    = 1_000_000
	treeKeys     = 200_000
)

// probe returns the median over probeBatches of the mean ns per call of fn,
// timed probeBatch calls at a time so that the clock is not what is measured.
func probe(fn func(i int)) float64 {
	return probeN(probeBatch, fn)
}

func probeN(batch int, fn func(i int)) float64 {
	per := make([]float64, probeBatches)
	for b := range per {
		t0 := time.Now()
		for i := b * batch; i < (b+1)*batch; i++ {
			fn(i)
		}
		per[b] = float64(time.Since(t0)) / float64(batch)
	}
	sort.Float64s(per)
	return per[len(per)/2]
}

// sink keeps results alive so the compiler cannot drop the probed calls.
var sink atomic.Uint64

// requestStream draws n requests from the workload's own distribution.
func requestStream(s spec, seed uint64, n int) []workload.Request {
	g := workload.NewGenerator(workload.Config{
		Keys: s.keys, Theta: s.theta, Mix: s.mix, ValueSize: s.sizes, ScanLen: 50, Seed: seed,
	})
	return g.Fill(make([]workload.Request, n))
}

// hotEntries are the hotItems keys the request stream asks for most, each
// bound to an item of the workload's value size: what the server's hot set
// converges to under a skewed stream, and as good as any 4096 keys under a
// uniform one.
func hotEntries(s spec) ([]hotset.Entry, []byte) {
	g := workload.NewGenerator(workload.Config{Keys: s.keys, Theta: s.theta})
	val := encodeValue(nil, 0, 0, int(s.sizes.Mean()))
	entries := make([]hotset.Entry, 0, hotItems)
	for _, k := range g.HotKeys(hotItems) {
		entries = append(entries, hotset.Entry{Key: k, Item: seqitem.New(val)})
	}
	return entries, val
}

// layerProbes runs every P-column probe of the README's table.
func layerProbes(s spec, seed uint64, dir string) (map[string]metric, error) {
	out := map[string]metric{}
	ns := func(name string, v float64) { out[name] = metric{v, "ns"} }
	reqs := requestStream(s, seed, probeBatch*probeBatches)

	// rpc: the receive ring and the call future, one request at a time.
	srv := rpc.NewServer(1024, 1, 1)
	ns("rpc_roundtrip_ns", probe(func(i int) {
		call, err := srv.Send(rpc.Message{Op: workload.OpGet, Key: reqs[i].Key})
		if err != nil {
			panic(err) // the ring is drained on every iteration
		}
		m, _, _ := srv.Poll(0)
		m.Call().Complete()
		call.Wait()
		call.Release()
	}))

	// hotset: both views, keys that hit and keys that cannot.
	entries, val := hotEntries(s)
	for _, v := range []struct {
		name string
		view hotset.View
	}{{"hash", hotset.NewHashView(entries)}, {"sorted", hotset.NewSortedView(entries)}} {
		c := hotset.NewCache()
		c.Install(v.view)
		ns("hotset_"+v.name+"_hit_ns", probe(func(i int) {
			it, _ := c.Lookup(entries[(i*7919)%len(entries)].Key)
			sink.Add(uint64(it.Size()))
		}))
		ns("hotset_"+v.name+"_miss_ns", probe(func(i int) {
			if _, ok := c.Lookup(s.keys + uint64(i)); ok {
				sink.Add(1)
			}
		}))
	}

	// ring: one CR-MR ring, producer and consumer on this goroutine.
	for _, batch := range []int{1, 16} {
		q := ring.NewCRMR(1, 1, 64)
		p, c := q.Producer(0, batch), q.Consumer(0)
		ns(fmt.Sprintf("ring_pushpop_b%d_ns", batch), probe(func(i int) {
			if _, flushed := p.Add(ring.Request{Key: reqs[i].Key}, 0, 1); flushed {
				_, got, r := c.Poll(1)
				sink.Add(uint64(len(got)))
				r.Commit()
			}
		}))
	}

	// cuckoo: as large as uniform_mix's index, uniform keys, replacing puts.
	item := seqitem.New(val)
	h := cuckoo.New[*seqitem.Item](indexKeys)
	for k := uint64(0); k < indexKeys; k++ {
		h.Put(k, item)
	}
	rng := workload.NewRNG(seed)
	uniform := make([]uint64, probeBatch*probeBatches)
	for i := range uniform {
		uniform[i] = rng.Uint64n(indexKeys)
	}
	ns("cuckoo_get_ns", probe(func(i int) {
		if _, ok := h.Get(uniform[i]); ok {
			sink.Add(1)
		}
	}))
	ns("cuckoo_put_ns", probe(func(i int) { h.Put(uniform[i], item) }))

	// btree: scan_tree's keyspace and skew.
	t := btree.New[*seqitem.Item]()
	for k := uint64(0); k < treeKeys; k++ {
		t.Put(k, item)
	}
	tg := workload.NewGenerator(workload.Config{Keys: treeKeys, Theta: 0.99, Seed: seed})
	skewed := make([]uint64, probeBatch*probeBatches)
	for i := range skewed {
		skewed[i] = tg.Next().Key
	}
	ns("btree_get_ns", probe(func(i int) {
		if _, ok := t.Get(skewed[i]); ok {
			sink.Add(1)
		}
	}))
	ns("btree_put_ns", probe(func(i int) { t.Put(skewed[i], item) }))
	ns("btree_scan50_ns", probeN(probeBatch/20, func(i int) {
		sink.Add(uint64(t.Scan(skewed[i], 50, func(uint64, *seqitem.Item) bool { return true })))
	}))
	out["btree_depth"] = metric{float64(t.Depth()), "count"}

	// seqitem + arena + epoch, at the workload's value sizes.
	cache := arena.New(0).NewCache()
	pool := seqitem.NewPool(cache)
	vals := make([][]byte, 64)
	srng := workload.NewRNG(seed + 1)
	for i := range vals {
		vals[i] = encodeValue(nil, uint64(i), 0, s.sizes.Sample(srng))
	}
	ns("item_new_ns", probe(func(i int) { pool.Recycle(seqitem.NewIn(pool, vals[i%len(vals)])) }))
	items := make([]*seqitem.Item, len(vals))
	for i, v := range vals {
		items[i] = seqitem.NewIn(pool, v)
	}
	buf := make([]byte, 0, arena.MaxClassBytes)
	ns("item_read_ns", probe(func(i int) { sink.Add(uint64(len(items[i%len(items)].Read(buf)))) }))
	for _, class := range []int{64, 512} {
		ns(fmt.Sprintf("arena_getput_%d_ns", class), probe(func(int) {
			slot, _ := cache.Get(class)
			cache.Put(slot)
		}))
	}
	dom := epoch.NewDomain(2)
	ns("epoch_section_ns", probe(func(int) { dom.Enter(0); dom.Exit(0) }))

	// coldtier: no end-to-end workload reaches it yet (README, stated gaps).
	coldDir, err := os.MkdirTemp(dir, "cold-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(coldDir)
	cold, err := coldtier.Open(coldtier.Options{Dir: coldDir, CompactInterval: -1, CheckpointInterval: -1})
	if err != nil {
		return nil, err
	}
	var coldErr error
	const coldBatch = 2_000
	ns("cold_put_ns", probeN(coldBatch, func(i int) {
		if _, err := cold.Put(uint64(i), 0, vals[i%len(vals)]); err != nil {
			coldErr = err
		}
	}))
	now := time.Now().UnixNano()
	ns("cold_get_ns", probeN(coldBatch, func(i int) {
		if _, _, _, ok := cold.Get(uint64(i), buf, now); !ok {
			coldErr = fmt.Errorf("cold tier lost key %d", i)
		}
	}))
	if err := cold.Close(); err != nil && coldErr == nil {
		coldErr = err
	}
	if coldErr != nil {
		return nil, fmt.Errorf("coldtier probe: %w", coldErr)
	}
	return out, nil
}

// facadeProbes times the real multi-threaded store in this process, through
// its public API: one synchronous caller, so a call is the layers plus every
// hand-off between the caller, the CR worker and the MR worker.
func facadeProbes(s spec, seed uint64) (map[string]metric, error) {
	eng := mutps.Hash
	if s.engine == "tree" {
		eng = mutps.Tree
	}
	st, err := mutps.Open(mutps.Options{Engine: eng, Workers: 2, CRWorkers: 1, CapacityHint: int(s.keys)})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	rng := workload.NewRNG(seed + 2)
	var val []byte
	for k := uint64(0); k < s.keys; k++ {
		val = encodeValue(val, k, 0, s.sizes.Sample(rng))
		st.Preload(k, val)
	}
	const batch = 2_000
	reqs := requestStream(s, seed, 2*batch*probeBatches)
	buf := make([]byte, 0, arena.MaxClassBytes)
	var opErr error
	do := func(r workload.Request, as workload.OpType) {
		switch as {
		case workload.OpGet:
			v, ok, err := st.GetInto(r.Key, buf)
			if err == nil && ok {
				err = verifyValue(r.Key, v)
			} else if err == nil {
				err = fmt.Errorf("preloaded key %d missing", r.Key)
			}
			if err != nil {
				opErr = err
			}
		case workload.OpPut:
			val = encodeValue(val, r.Key, 1, max(r.ValueSize, minValueLen))
			if err := st.Put(r.Key, val); err != nil {
				opErr = err
			}
		case workload.OpScan:
			if _, err := st.Scan(r.Key, r.ScanCount); err != nil {
				opErr = err
			}
		}
	}
	// Let the refresher install a hot set from the stream before timing.
	for _, r := range reqs[batch*probeBatches:] {
		do(r, workload.OpGet)
	}
	out := map[string]metric{
		"facade_getinto_ns": {probeN(batch, func(i int) { do(reqs[i], workload.OpGet) }), "ns"},
		"facade_put_ns":     {probeN(batch, func(i int) { do(reqs[i], workload.OpPut) }), "ns"},
		"facade_mix_ns":     {probeN(batch, func(i int) { do(reqs[i], reqs[i].Op) }), "ns"},
	}
	if opErr != nil {
		return nil, fmt.Errorf("facade probe: %w", opErr)
	}
	return out, nil
}
