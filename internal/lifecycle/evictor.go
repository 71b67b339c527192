// Package lifecycle implements the memory-budget half of the store's
// bounded-memory lifecycle: a background evictor that fires when live
// arena bytes cross a configurable budget, ranks victims by coldness
// using the store's hot-set sketch (expired items first, then the lowest
// CMS estimates), and retires them through the store's epoch-reclamation
// path — spilling values to the cold tier when one is attached.
//
// The evictor is deliberately not a worker: it runs on its own goroutine
// with its own epoch reader slot and retirement queue, so reclaiming
// memory never competes with request traffic for ring slots and never
// pollutes the hot-set tracker with its own scans.
package lifecycle

import (
	"sort"
	"sync"
	"time"

	"mutps/internal/obs"
)

// Store is the surface the evictor drives. It is implemented by
// kvcore.Store; the indirection keeps this package mechanism-only
// (ranking and pacing) with no knowledge of indexes or items.
type Store interface {
	// BudgetedBytes returns the live arena bytes that will remain once
	// everything already retired has been reclaimed — the signal the
	// budget is enforced against. (Raw live bytes would double-count
	// items the evictor has unlinked but grace periods still pin.)
	BudgetedBytes() uint64
	// WalkItems visits live items: key, arena slot bytes, hot-set sketch
	// estimate, and whether the item has passed its TTL deadline. Return
	// false to stop early.
	WalkItems(f func(key uint64, bytes int, hot uint32, expired bool) bool)
	// EvictKey unlinks key, spilling its value to the cold tier when one
	// is configured (expired items are dropped), and returns the arena
	// bytes the eviction will free.
	EvictKey(key uint64) (freed uint64, ok bool)
	// EvictorMaintain advances the epoch and drains the evictor's
	// retirement queue and deferred-spill fixups as far as the grace
	// period allows. Called only from the evictor goroutine.
	EvictorMaintain()
}

// Config bounds the evictor. A zero Interval selects the default.
type Config struct {
	Budget   uint64        // required: high watermark on live arena bytes
	Interval time.Duration // poll period (default 5ms)
}

// A pass that finds the budget exceeded ranks the maxVictims coldest items
// and evicts down to lowWater × Budget.
const (
	lowWater   = 0.9
	maxVictims = 1024
)

func (c *Config) defaults() {
	if c.Interval <= 0 {
		c.Interval = 5 * time.Millisecond
	}
}

// Evictor owns the eviction loop.
type Evictor struct {
	cfg    Config
	st     Store
	notify chan struct{}
	stop   chan struct{}
	wg     sync.WaitGroup

	heap victimHeap

	passes  *obs.Counter
	evicted *obs.Counter
	freed   *obs.Counter
}

// New creates an evictor enforcing cfg against st. Metrics register with
// reg when it is non-nil.
func New(cfg Config, st Store, reg *obs.Registry) *Evictor {
	cfg.defaults()
	e := &Evictor{
		cfg:     cfg,
		st:      st,
		notify:  make(chan struct{}, 1),
		stop:    make(chan struct{}),
		passes:  obs.NewCounter(1),
		evicted: obs.NewCounter(1),
		freed:   obs.NewCounter(1),
	}
	e.heap.cap = maxVictims
	if reg != nil && !obs.Disabled {
		reg.GaugeFunc("mutps_memory_budget_bytes", "", "Configured memory budget (high watermark on live arena bytes).",
			func() float64 { return float64(cfg.Budget) })
		reg.CounterFunc("mutps_evict_passes_total", "", "Eviction passes that found the budget exceeded.",
			func() float64 { return float64(e.passes.Value()) })
		reg.CounterFunc("mutps_evictions_total", "", "Items evicted by the budget loop.",
			func() float64 { return float64(e.evicted.Value()) })
		reg.CounterFunc("mutps_evict_freed_bytes_total", "", "Arena bytes released by budget evictions.",
			func() float64 { return float64(e.freed.Value()) })
	}
	return e
}

// Start launches the eviction goroutine.
func (e *Evictor) Start() {
	e.wg.Add(1)
	go e.loop()
}

// Close stops the loop and waits for it. The store's retirement queues
// are drained by the store's own Close, not here.
func (e *Evictor) Close() {
	close(e.stop)
	e.wg.Wait()
}

// Notify kicks the loop without waiting for the next tick; it never
// blocks and coalesces with a pending kick. The arena's pressure hook
// calls it from allocation slow paths.
func (e *Evictor) Notify() {
	select {
	case e.notify <- struct{}{}:
	default:
	}
}

func (e *Evictor) loop() {
	defer e.wg.Done()
	t := time.NewTicker(e.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-t.C:
		case <-e.notify:
		}
		e.Pass()
	}
}

// Pass runs one synchronous eviction pass and reports how many items it
// evicted and the bytes that will be freed. Exposed for tests; the loop
// calls it on every tick or pressure notification.
func (e *Evictor) Pass() (evictions int, freed uint64) {
	e.st.EvictorMaintain()
	live := e.st.BudgetedBytes()
	if live <= e.cfg.Budget {
		return 0, 0
	}
	e.passes.Inc(0)
	target := uint64(float64(e.cfg.Budget) * lowWater)
	need := live - target

	h := &e.heap
	h.reset()
	e.st.WalkItems(func(key uint64, bytes int, hot uint32, expired bool) bool {
		h.offer(victim{key: key, bytes: bytes, rank: rankOf(hot, expired)})
		return true
	})
	victims := h.ranked()

	for _, v := range victims {
		if freed >= need {
			break
		}
		if f, ok := e.st.EvictKey(v.key); ok {
			freed += f
			evictions++
		}
	}
	e.evicted.Add(0, uint64(evictions))
	e.freed.Add(0, freed)
	// Push what was just retired toward reclamation so the next pass sees
	// an honest byte count.
	e.st.EvictorMaintain()
	return evictions, freed
}

// rankOf orders candidates: expired items rank below any live one, then
// coldness ascending by sketch estimate.
func rankOf(hot uint32, expired bool) int64 {
	if expired {
		return -1
	}
	return int64(hot)
}

type victim struct {
	key   uint64
	bytes int
	rank  int64
}

// worse reports whether a is a worse eviction candidate than b: hotter,
// or equally hot but freeing fewer bytes.
func worse(a, b victim) bool {
	if a.rank != b.rank {
		return a.rank > b.rank
	}
	return a.bytes < b.bytes
}

// victimHeap keeps the cap best (coldest) candidates seen so far, as a
// max-heap whose root is the worst candidate currently kept — one full
// index walk yields the globally coldest cap items in O(n log cap).
type victimHeap struct {
	v   []victim
	cap int
}

func (h *victimHeap) reset() { h.v = h.v[:0] }

func (h *victimHeap) offer(c victim) {
	if len(h.v) < h.cap {
		h.v = append(h.v, c)
		// sift up
		i := len(h.v) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !worse(h.v[i], h.v[p]) {
				break
			}
			h.v[i], h.v[p] = h.v[p], h.v[i]
			i = p
		}
		return
	}
	if !worse(h.v[0], c) {
		return // the new candidate is no better than the worst kept
	}
	h.v[0] = c
	// sift down
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		w := i
		if l < len(h.v) && worse(h.v[l], h.v[w]) {
			w = l
		}
		if r < len(h.v) && worse(h.v[r], h.v[w]) {
			w = r
		}
		if w == i {
			return
		}
		h.v[i], h.v[w] = h.v[w], h.v[i]
		i = w
	}
}

// ranked returns the kept candidates ordered best-first (coldest, and
// largest within a rank). The slice is valid until the next reset.
func (h *victimHeap) ranked() []victim {
	sort.Slice(h.v, func(i, j int) bool { return worse(h.v[j], h.v[i]) })
	return h.v
}
