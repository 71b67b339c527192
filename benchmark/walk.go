package main

import (
	"fmt"
	"time"

	"mutps/internal/arena"
	"mutps/internal/btree"
	"mutps/internal/cuckoo"
	"mutps/internal/epoch"
	"mutps/internal/hotset"
	"mutps/internal/ring"
	"mutps/internal/rpc"
	"mutps/internal/seqitem"
	"mutps/internal/workload"
)

// walker is a single-threaded skeleton of the store's request path, written
// here from the layers' public calls in the order kvcore makes them: client
// Send, CR worker Poll and hot-set lookup, on a miss the CR-MR ring, the MR
// worker's index and item work, the piggybacked Commit, Complete and the
// client's Wait. Nothing waits for anything, so what a request costs here is
// what the layers cost; the real store adds the hand-offs between its
// goroutines, and that difference is what unexplained_ns reports.
type walker struct {
	rx    *rpc.Server
	cache *hotset.Cache
	prod  *ring.Producer
	cons  *ring.Consumer
	hash  *cuckoo.Map[*seqitem.Item] // one of hash and tree is set
	tree  *btree.Tree[*seqitem.Item]
	pool  *seqitem.Pool
	dom   *epoch.Domain
	slab  [1]rpc.Message // the CR worker's in-flight request contexts
	dst   []byte

	log *spanLog // nil: no spans, no clock reads
	req int
	id  int
}

func newWalker(s spec, seed uint64) *walker {
	w := &walker{
		rx:    rpc.NewServer(1024, 1, 1),
		cache: hotset.NewCache(),
		pool:  seqitem.NewPool(arena.New(0).NewCache()),
		dom:   epoch.NewDomain(2),
		dst:   make([]byte, 0, arena.MaxClassBytes),
	}
	q := ring.NewCRMR(1, 1, 64)
	w.prod, w.cons = q.Producer(0, 1), q.Consumer(0)
	if s.engine == "tree" {
		w.tree = btree.New[*seqitem.Item]()
	} else {
		w.hash = cuckoo.New[*seqitem.Item](int(s.keys))
	}
	rng := workload.NewRNG(seed + 3)
	var val []byte
	items := make(map[uint64]*seqitem.Item, hotItems)
	hot, _ := hotEntries(s)
	for _, e := range hot {
		items[e.Key] = nil
	}
	for k := uint64(0); k < s.keys; k++ {
		val = encodeValue(val, k, 0, s.sizes.Sample(rng))
		it := seqitem.NewIn(w.pool, val)
		w.indexPut(k, it)
		if _, ok := items[k]; ok {
			items[k] = it
		}
	}
	for i := range hot {
		hot[i].Item = items[hot[i].Key]
	}
	if w.tree != nil {
		w.cache.Install(hotset.NewSortedView(hot))
	} else {
		w.cache.Install(hotset.NewHashView(hot))
	}
	return w
}

func (w *walker) indexGet(k uint64) (*seqitem.Item, bool) {
	if w.tree != nil {
		return w.tree.Get(k)
	}
	return w.hash.Get(k)
}

func (w *walker) indexPut(k uint64, it *seqitem.Item) {
	if w.tree != nil {
		w.tree.Put(k, it)
	} else {
		w.hash.Put(k, it)
	}
}

// begin and end bracket one call into a layer. Untraced, they cost a nil
// check each.
func (w *walker) begin() time.Time {
	if w.log == nil {
		return time.Time{}
	}
	return time.Now()
}

func (w *walker) end(name string, t0 time.Time) {
	if w.log == nil {
		return
	}
	w.id++
	w.log.add(w.req, w.id, 1, name, t0, time.Now())
}

// request walks one request through the layers and checks what comes back.
func (w *walker) request(r workload.Request, val []byte) error {
	var root time.Time
	if w.log != nil {
		w.req, w.id, root = w.log.request(), 1, time.Now()
	}

	t := w.begin()
	call, err := w.rx.Send(rpc.Message{Op: r.Op, Key: r.Key, Value: val, ScanCount: r.ScanCount, Dst: w.dst})
	w.end("rpc.Send", t)
	if err != nil {
		return err
	}
	t = w.begin()
	m, ok, _ := w.rx.Poll(0)
	w.end("rpc.Poll", t)
	if !ok {
		return fmt.Errorf("rpc.Poll found nothing after Send")
	}

	// CR worker: serve from the hot set inside its epoch section, or forward.
	served := false
	if r.Op == workload.OpGet || r.Op == workload.OpPut {
		w.dom.Enter(0)
		t = w.begin()
		it, hit := w.cache.Lookup(r.Key)
		w.end("hotset.Lookup", t)
		if hit && r.Op == workload.OpGet {
			t = w.begin()
			call.Value, call.Found = it.Read(call.Dst[:0]), true
			w.end("seqitem.Read", t)
			served = true
		} else if hit {
			t = w.begin()
			served = it.Write(val)
			w.end("seqitem.Write", t)
		}
		w.dom.Exit(0)
	}
	if !served {
		w.slab[0] = m
		t = w.begin()
		w.prod.Add(ring.Request{Key: r.Key, Type: uint8(r.Op), Size: uint16(max(len(val), r.ScanCount))}, 0, 1)
		w.end("ring.Producer.Add", t)
		t = w.begin()
		_, reqs, q := w.cons.Poll(1)
		w.end("ring.Consumer.Poll", t)
		if len(reqs) != 1 {
			return fmt.Errorf("ring.Consumer.Poll returned %d requests after one Add", len(reqs))
		}
		w.dom.Enter(1)
		w.serveMR(&reqs[0], call)
		w.dom.Exit(1)
		t = w.begin()
		q.Commit()
		w.end("ring.SPSC.Commit", t)
	}
	t = w.begin()
	m.Call().Complete()
	w.end("rpc.Call.Complete", t)
	t = w.begin()
	call.Wait()
	w.end("rpc.Call.Wait", t)

	switch r.Op {
	case workload.OpGet:
		if !call.Found {
			err = fmt.Errorf("walk: key %d missing", r.Key)
		} else {
			err = verifyValue(r.Key, call.Value)
		}
	case workload.OpScan:
		if len(call.ScanKeys) == 0 || call.ScanKeys[0] < r.Key {
			err = fmt.Errorf("walk: scan from %d returned %v", r.Key, call.ScanKeys)
		}
	}
	call.Release()
	if w.log != nil {
		w.log.add(w.req, 1, 0, "walk:"+r.Op.String(), root, time.Now())
	}
	return err
}

// serveMR is the MR worker's part: the index and the item.
func (w *walker) serveMR(req *ring.Request, call *rpc.Call) {
	m := &w.slab[req.Buf]
	index := "cuckoo"
	if w.tree != nil {
		index = "btree"
	}
	switch workload.OpType(req.Type) {
	case workload.OpGet:
		t := w.begin()
		it, ok := w.indexGet(req.Key)
		w.end(index+".Get", t)
		if ok {
			t = w.begin()
			call.Value, call.Found = it.Read(call.Dst[:0]), true
			w.end("seqitem.Read", t)
		}
	case workload.OpPut:
		t := w.begin()
		it, ok := w.indexGet(req.Key)
		w.end(index+".Get", t)
		t = w.begin()
		written := ok && it.Write(m.Value)
		w.end("seqitem.Write", t)
		if !written {
			// A size change replaces the item. The old one is left to the
			// collector: recycling it needs the grace period only kvcore runs.
			t = w.begin()
			n := seqitem.NewIn(w.pool, m.Value)
			w.end("seqitem.NewIn", t)
			t = w.begin()
			w.indexPut(req.Key, n)
			w.end(index+".Put", t)
			if ok {
				it.MoveTo(n)
			}
		}
	case workload.OpScan:
		t := w.begin()
		call.ScanBuf = call.ScanBuf[:0]
		w.tree.Scan(req.Key, int(req.Size), func(k uint64, it *seqitem.Item) bool {
			off := len(call.ScanBuf)
			call.ScanBuf = append(call.ScanBuf, it.Read(w.dst)...)
			call.ScanKeys = append(call.ScanKeys, k)
			call.ScanVals = append(call.ScanVals, call.ScanBuf[off:])
			return true
		})
		w.end("btree.Scan", t)
	}
}

const (
	walkSpanRequests = 2_000 // requests walked with spans on
	walkBatch        = 5_000 // untraced requests between two clock reads
)

// layerWalk walks the workload's own request stream through the skeleton:
// first with spans into log, then untraced and batch-timed for walk_ns, the
// median batch's mean ns per request.
func layerWalk(s spec, seed uint64, log *spanLog) (float64, error) {
	w := newWalker(s, seed)
	reqs := requestStream(s, seed, walkSpanRequests+walkBatch*probeBatches)
	var val []byte
	var walkErr error
	one := func(i int) {
		r := reqs[i]
		var payload []byte
		if r.Op == workload.OpPut {
			val = encodeValue(val, r.Key, 1, r.ValueSize)
			payload = val
		}
		if err := w.request(r, payload); err != nil && walkErr == nil {
			walkErr = err
		}
	}
	w.log = log
	for i := 0; i < walkSpanRequests; i++ {
		one(i)
	}
	w.log = nil
	ns := probeN(walkBatch, func(i int) { one(walkSpanRequests + i) })
	return ns, walkErr
}
