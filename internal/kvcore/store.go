package kvcore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mutps/internal/arena"
	"mutps/internal/bell"
	"mutps/internal/coldtier"
	"mutps/internal/epoch"
	"mutps/internal/hotset"
	"mutps/internal/lifecycle"
	"mutps/internal/obs"
	"mutps/internal/ring"
	"mutps/internal/rpc"
	"mutps/internal/seqitem"
	"mutps/internal/workload"
)

// Config describes a Store: the one struct every way of opening a store
// fills in (mutps.Options is an alias for it, cluster.LocalOptions embeds
// it, mutps-server's flags map onto it). Open rejects an invalid Workers/
// CRWorkers pair; every other zero field takes the default stated here,
// applied in applyDefaults and nowhere else.
type Config struct {
	// Engine selects μTPS-H (Hash, the zero value) or μTPS-T (Tree).
	Engine Engine
	// Workers is the total worker-goroutine count (≥ 2: one per layer).
	Workers int
	// CRWorkers is the initial cache-resident layer size, in
	// [1, Workers-1]. Adjust at runtime with SetSplit.
	CRWorkers int

	// HotItems is the hot-set cache target. 0 (or less) turns the
	// cache-resident hot path off: every request is forwarded to the MR
	// layer. (mutps.Open, the embedder's entry point, reads 0 as "default"
	// instead — see there.)
	HotItems int
	// RefreshInterval is the period of the background hot-set refresher
	// Open starts and Close stops (default 100ms), whatever HotItems is, so
	// a cache turned on later by SetHotItems or the tuner stays fresh.
	// Negative starts none: the view changes only when RefreshHotSet is
	// called.
	RefreshInterval time.Duration

	CapacityHint int // expected item count (hash engine pre-sizing, default 65536)

	// Bounded-memory lifecycle (DESIGN.md §13). MemoryBudget is the high
	// watermark on live arena bytes; when crossed, a background evictor
	// unlinks the coldest items (ranked by the hot-set sketch) until live
	// bytes fall to 0.9×MemoryBudget (lifecycle's low-water mark),
	// spilling values to the cold tier when ColdDir is set and dropping
	// them otherwise.
	MemoryBudget int64 // 0 = unbounded

	// ColdDir, when set, attaches an SSD-backed cold tier at that
	// directory: evicted values spill to an append-only log and gets
	// missing RAM are served from it (and promoted back).
	ColdDir          string
	ColdSegmentBytes int64 // cold-tier segment size (default 64 MiB)

	// ColdCheckpointInterval is the period of the cold tier's background
	// location-index checkpoint (0 = coldtier default of 30s, <0 = disable
	// checkpointing entirely, including the clean-Close checkpoint).
	// Restart from a checkpoint replays only the log suffix past its
	// frontier instead of rescanning every segment.
	ColdCheckpointInterval time.Duration

	// DefaultTTL is stamped on every put that carries no explicit TTL
	// (0 = items never expire). Expiry is lazy: expired items read as
	// missing and are unlinked by the first read that notices, or by the
	// evictor, whichever comes first.
	DefaultTTL time.Duration
}

// Hot-set tracker shape.
const (
	sampleEvery = 8    // sampling period: one access in 8 is ranked
	trackRing   = 1024 // per-worker sample ring
)

// geometry is a store's fixed plumbing: how many requests its rings and
// slabs hold, how many share one CR-MR ring slot, and how often its
// evictor polls. No caller chooses it: every store opens with geom, and
// only this package's tests swap geom (restoring it in t.Cleanup) to reach
// the full-slab paths with a few requests. slabSlots must be at least
// batch: runCR waits for a free slot without pushing its partial batch,
// which could otherwise hold the whole slab.
type geometry struct {
	rxSlots     int           // receive-ring slots
	crmrSlots   int           // slots of each CR-MR ring
	slabSlots   int           // in-flight request contexts per CR worker
	batch       int           // CR→MR requests per ring slot, at most ring.MaxBatch
	evictPeriod time.Duration // evictor poll period; allocation pressure wakes it early
}

var geom = geometry{
	rxSlots:     1024,
	crmrSlots:   64,
	slabSlots:   4096,
	batch:       8,
	evictPeriod: 5 * time.Millisecond,
}

func (c *Config) applyDefaults() error {
	if c.Workers < 2 {
		return fmt.Errorf("kvcore: need at least 2 workers, got %d", c.Workers)
	}
	if c.CRWorkers < 1 || c.CRWorkers >= c.Workers {
		return fmt.Errorf("kvcore: CRWorkers must be in [1, Workers-1], got %d/%d",
			c.CRWorkers, c.Workers)
	}
	if c.MemoryBudget < 0 {
		return fmt.Errorf("kvcore: MemoryBudget must be >= 0, got %d", c.MemoryBudget)
	}
	if c.HotItems < 0 {
		c.HotItems = 0
	}
	if c.RefreshInterval == 0 {
		c.RefreshInterval = 100 * time.Millisecond
	}
	if c.CapacityHint <= 0 {
		c.CapacityHint = 1 << 16
	}
	return nil
}

// Store is a running μTPS key-value store.
type Store struct {
	cfg Config

	idx     Index
	scanIdx RangeIndex // nil for hash engine

	rpc     *rpc.Server
	crmr    *ring.CRMR
	cache   *hotset.Cache
	tracker *hotset.Tracker
	cms     *hotset.CMS
	recent  *hotset.Recent // eviction veto: victims skip hot-set admission
	slabs   []*slab
	crp     []*crPersist
	mrscr   []*mrScratch
	mrcons  []*ring.Consumer

	// keyLocks stripes size-changing puts and deletes. The stripe count is
	// a power of two derived from Config.Workers (≥64) so that write-heavy
	// workloads on wide stores don't hit a fixed contention ceiling.
	keyLocks []sync.Mutex
	lockMask uint64

	// The GC-quiet write path: items draw their headers and value words
	// from per-worker pools over the shared slab arena, and retired items
	// pass through epoch grace periods (reader slots: one per worker plus
	// one for the serialized hot-set refresher) before their slots
	// recycle. See reclaim.go and DESIGN.md §11.
	arena       *arena.Arena
	dom         *epoch.Domain
	pools       []*seqitem.Pool
	retq        []*retireQ
	retiredPend atomic.Int64

	// Bounded-memory lifecycle (DESIGN.md §13). The evictor goroutine owns
	// pool/queue index cfg.Workers and epoch reader slot cfg.Workers+1, so
	// reclaiming memory never rides the RPC ring; fixups and evScratch are
	// evictor-goroutine-private. retiredBytes projects how many live arena
	// bytes are already retired and merely waiting out grace periods — the
	// budget is enforced against live-minus-retired, or eviction would
	// re-fire on memory it has already freed.
	cold         *coldtier.Log
	evictor      *lifecycle.Evictor
	fixups       []spillFixup
	evScratch    []byte
	retiredBytes atomic.Int64

	// Preload bypasses the RPC path, so it gets its own serialized pool
	// and retire queue (drained at Close, when no readers remain).
	preMu   sync.Mutex
	prePool *seqitem.Pool
	preRet  []retiredItem

	// refreshMu serializes RefreshHotSet: the refresher owns one epoch
	// reader slot and one install-generation sequence, neither of which
	// tolerates concurrent refreshes. It also guards the tracker's snapshot
	// scratch and hotEntries, the entry list each refresh rebuilds in place
	// so that only the published view is new.
	refreshMu  sync.Mutex
	hotEntries []hotset.Entry

	nCR       atomic.Int32
	hotTarget atomic.Int32
	stop      atomic.Bool
	crDone    atomic.Int32 // workers retired from the terminal RPC schedule
	wg        sync.WaitGroup
	closeOnce sync.Once

	// The background hot-set refresher: refreshStop is nil when the store
	// runs none (a negative RefreshInterval at Open).
	refreshStop chan struct{}
	refreshWG   sync.WaitGroup

	// met holds every instrument (sharded counters, latency histograms,
	// derived gauges); trace records reconfiguration decisions.
	met   *storeMetrics
	trace *obs.DecisionTrace
}

// Open validates cfg, builds the store, and starts its workers.
func Open(cfg Config) (*Store, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	s := &Store{cfg: cfg}
	s.met = newStoreMetrics(cfg.Workers)
	s.trace = obs.NewDecisionTrace(256)
	if cfg.Engine == Tree {
		ti := newTreeIndex()
		s.idx, s.scanIdx = ti, ti
	} else {
		s.idx = newHashIndex(cfg.CapacityHint)
	}
	s.rpc = rpc.NewServer(geom.rxSlots, cfg.Workers, cfg.CRWorkers)
	s.crmr = ring.NewCRMR(cfg.Workers, cfg.Workers, geom.crmrSlots)
	s.cache = hotset.NewCache()
	s.tracker = hotset.NewTracker(cfg.Workers, sampleEvery, trackRing)
	s.cms = hotset.NewCMS(4 * trackRing * cfg.Workers)
	s.recent = hotset.NewRecent(4096)
	s.slabs = make([]*slab, cfg.Workers)
	s.crp = make([]*crPersist, cfg.Workers)
	s.mrscr = make([]*mrScratch, cfg.Workers)
	s.mrcons = make([]*ring.Consumer, cfg.Workers)
	for i := range s.slabs {
		s.slabs[i] = newSlab(geom.slabSlots)
		s.crp[i] = &crPersist{
			prod: s.crmr.Producer(i, geom.batch),
			cols: make([]crState, cfg.Workers),
		}
		s.mrscr[i] = &mrScratch{}
		s.mrcons[i] = s.crmr.Consumer(i)
		// One bell per worker, whatever its role: a batch pushed into its
		// column wakes it exactly like a request published into its slot.
		s.crmr.SetBell(i, s.rpc.Bell(i))
	}
	stripes := 64
	for stripes < 16*cfg.Workers {
		stripes <<= 1
	}
	s.keyLocks = make([]sync.Mutex, stripes)
	s.lockMask = uint64(stripes - 1)
	s.arena = arena.New(arena.DefaultChunkBytes)
	// Reader slots: one per worker, cfg.Workers for the refresher,
	// cfg.Workers+1 for the evictor. Pool/queue index cfg.Workers is the
	// evictor's (workers use their own ids).
	s.dom = epoch.NewDomain(cfg.Workers + 2)
	s.pools = make([]*seqitem.Pool, cfg.Workers+1)
	s.retq = make([]*retireQ, cfg.Workers+1)
	for i := range s.pools {
		s.pools[i] = seqitem.NewPool(s.arena.NewCache())
		s.retq[i] = &retireQ{}
	}
	s.prePool = seqitem.NewPool(s.arena.NewCache())
	if cfg.ColdDir != "" {
		cold, err := coldtier.Open(coldtier.Options{
			Dir:                cfg.ColdDir,
			SegmentBytes:       cfg.ColdSegmentBytes,
			CheckpointInterval: cfg.ColdCheckpointInterval,
		})
		if err != nil {
			return nil, fmt.Errorf("kvcore: cold tier: %w", err)
		}
		s.cold = cold
		s.cold.Instrument(s.met.reg)
	}
	s.nCR.Store(int32(cfg.CRWorkers))
	s.hotTarget.Store(int32(cfg.HotItems))
	s.registerDerived()

	if cfg.MemoryBudget > 0 {
		s.evictor = lifecycle.New(lifecycle.Config{
			Budget:   uint64(cfg.MemoryBudget),
			Interval: geom.evictPeriod,
		}, s, s.met.reg)
		// Kick the evictor from allocation slow paths too, so a put burst
		// between ticks can't overshoot the budget by a full interval.
		s.arena.SetPressureHook(uint64(cfg.MemoryBudget), s.evictor.Notify)
		s.evictor.Start()
	}

	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker(i)
	}
	if cfg.RefreshInterval > 0 {
		s.startRefresher(cfg.RefreshInterval)
	}
	return s, nil
}

// startRefresher launches the background hot-set refresher; Close stops
// it. Open is its only caller: a store cannot be left without one by
// forgetting a call.
func (s *Store) startRefresher(period time.Duration) {
	s.refreshStop = make(chan struct{})
	s.refreshWG.Add(1)
	go func() {
		defer s.refreshWG.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-s.refreshStop:
				return
			case <-t.C:
				s.RefreshHotSet()
			}
		}
	}()
}

// Engine returns the configured index engine.
func (s *Store) Engine() Engine { return s.cfg.Engine }

// Close drains and stops the store; it is idempotent and safe to call
// under concurrent load. Every request accepted before Close completes
// with its result; concurrent and later requests fail with rpc.ErrClosed.
// No accepted call is ever stranded (§3.5's residual-request guarantee,
// extended to shutdown).
func (s *Store) Close() {
	s.closeOnce.Do(func() {
		// Order matters: close the RPC ring first so new Sends fail and a
		// terminal schedule phase retires each worker only after it has
		// consumed every slot it owns; then wait for the workers, so none
		// exits while it still owns live slots. stop is set only after the
		// drain completes — it is a backstop for out-of-band stoppers, not
		// the shutdown signal.
		s.rpc.Close()
		if s.refreshStop != nil {
			close(s.refreshStop)
			s.refreshWG.Wait()
		}
		if s.evictor != nil {
			s.evictor.Close()
		}
		s.wg.Wait()
		s.stop.Store(true)
		// Under the graceful drain above this finds nothing; it is the
		// safety net that turns any future drain bug into failed calls
		// instead of hung callers.
		s.rpc.DrainStranded()
		// Workers and the background refresher are gone; refreshMu excludes
		// a manual RefreshHotSet still in flight. With no readers left,
		// every retirement grace period is satisfied, so the drain returns
		// all in-flight retirements to the arena — a closed store leaks no
		// slots.
		// Deferred spill fixups run first (force=true: no writer can race
		// anymore), so the cold tier closes consistent.
		s.refreshMu.Lock()
		s.runFixups(true)
		s.drainRetired()
		s.refreshMu.Unlock()
		if s.cold != nil {
			s.cold.Close()
		}
	})
}

// --- client API -----------------------------------------------------------

// reply is what a completed call carried, taken before its Release.
type reply struct {
	val    []byte
	found  bool
	expiry uint64 // absolute unix-nano deadline, 0 = none
	kvs    []KV   // scans only
}

// roundTrip is the body of every synchronous op: stamp, Send, Wait, take
// the reply, Release, and — for a request that executed — record its
// latency under m.Op. A get's value is the caller's Dst or freshly
// allocated, so it outlives the Release; scan values alias the call's
// pooled buffer and are copied out first.
func (s *Store) roundTrip(m rpc.Message) (r reply, err error) {
	var start time.Time
	if !obs.Disabled {
		start = time.Now()
	}
	call, err := s.rpc.Send(m)
	if err != nil {
		return r, err
	}
	call.Wait()
	if err = call.Err; err == nil {
		r = reply{val: call.Value, found: call.Found, expiry: call.Expiry}
		if m.Op == workload.OpScan {
			r.kvs = copyScan(call)
		}
	}
	call.Release()
	if err == nil && !obs.Disabled {
		s.met.lat[m.Op].Record(int(m.Key), uint64(time.Since(start)))
	}
	return r, err
}

// Get fetches the value stored under key. The returned slice is freshly
// allocated; use GetInto on hot paths to reuse a caller-owned buffer. The
// error is rpc.ErrClosed after Close and rpc.ErrBacklogged (retryable)
// when the receive ring is saturated; mutps re-exports both.
func (s *Store) Get(key uint64) ([]byte, bool, error) {
	return s.GetInto(key, nil)
}

// GetInto fetches the value for key, appending it into buf[:0]. When buf
// has enough capacity the returned value aliases it and the whole request
// lifecycle is allocation-free (pooled call, reused buffer); otherwise a
// fresh slice is returned. On a miss (and on error) it returns buf[:0] and
// false, so a loop can keep threading one buffer regardless of outcome:
//
//	buf, _, _ = st.GetInto(key, buf)
//
// buf must not be touched by the caller while the request is in flight.
func (s *Store) GetInto(key uint64, buf []byte) ([]byte, bool, error) {
	r, err := s.roundTrip(rpc.Message{Op: workload.OpGet, Key: key, Dst: buf})
	if err != nil {
		return buf[:0], false, err
	}
	if r.val == nil {
		r.val = buf[:0]
	}
	return r.val, r.found, nil
}

// Put stores val under key. The value bytes are copied into the item
// before Put returns, so the caller may immediately reuse val. A non-nil
// error (rpc.ErrClosed, rpc.ErrBacklogged) means the put did not execute.
func (s *Store) Put(key uint64, val []byte) error {
	return s.PutTTL(key, val, 0)
}

// expireAt converts a relative TTL into the absolute unix-nano deadline
// stamped into the item header. ttl == 0 falls back to Config.DefaultTTL;
// a zero result means "never expires".
func (s *Store) expireAt(ttl time.Duration) uint64 {
	if ttl <= 0 {
		ttl = s.cfg.DefaultTTL
	}
	if ttl <= 0 {
		return 0
	}
	return uint64(time.Now().UnixNano() + int64(ttl))
}

// PutTTL stores val under key with a per-item TTL. ttl <= 0 selects
// Config.DefaultTTL (and "never" when that is unset too). Expiry is lazy:
// after the deadline the key reads as missing on every path (hot set, MR
// index, cold tier) and its memory is reclaimed by the first read that
// notices or by the evictor.
func (s *Store) PutTTL(key uint64, val []byte, ttl time.Duration) error {
	_, err := s.roundTrip(rpc.Message{Op: workload.OpPut, Key: key, Value: val, Expire: s.expireAt(ttl)})
	return err
}

// GetTTL fetches the value for key together with its remaining TTL
// (0 = no expiry set). Expired keys report found=false.
func (s *Store) GetTTL(key uint64) (val []byte, ttl time.Duration, found bool, err error) {
	r, err := s.roundTrip(rpc.Message{Op: workload.OpGet, Key: key})
	if err != nil {
		return nil, 0, false, err
	}
	if r.found && r.expiry != 0 {
		if ttl = time.Duration(int64(r.expiry) - time.Now().UnixNano()); ttl <= 0 {
			// Deadline passed between the worker's check and now.
			return nil, 0, false, nil
		}
	}
	return r.val, ttl, r.found, nil
}

// Delete removes key, reporting whether it existed.
func (s *Store) Delete(key uint64) (bool, error) {
	r, err := s.roundTrip(rpc.Message{Op: workload.OpDelete, Key: key})
	return r.found, err
}

// KV is one scan result entry.
type KV struct {
	Key   uint64
	Value []byte
}

// MaxScanCount is the largest per-scan entry count the compact 16-bit
// CR-MR request encoding can carry (Fig. 6). Larger requests are rejected
// at the facade rather than silently truncated.
const MaxScanCount = 0xFFFF

// Scan returns up to count entries with keys >= start in ascending order.
// It requires the Tree engine and 0 ≤ count ≤ MaxScanCount.
func (s *Store) Scan(start uint64, count int) ([]KV, error) {
	if err := s.checkScan(count); err != nil {
		return nil, err
	}
	r, err := s.roundTrip(rpc.Message{Op: workload.OpScan, Key: start, ScanCount: count})
	return r.kvs, err
}

// checkScan is the validation Scan and ScanAsync share.
func (s *Store) checkScan(count int) error {
	if s.scanIdx == nil {
		return fmt.Errorf("kvcore: scan requires the tree engine")
	}
	if count < 0 || count > MaxScanCount {
		return fmt.Errorf("kvcore: scan count %d outside [0, %d]", count, MaxScanCount)
	}
	return nil
}

// copyScan copies a completed scan's entries out of the call's pooled
// ScanBuf — into one shared backing array, not one allocation per entry —
// so they survive the call's Release.
func copyScan(call *rpc.Call) []KV {
	out := make([]KV, len(call.ScanKeys))
	total := 0
	for _, v := range call.ScanVals {
		total += len(v)
	}
	blob := make([]byte, 0, total)
	for i := range out {
		n := len(blob)
		blob = append(blob, call.ScanVals[i]...)
		out[i] = KV{Key: call.ScanKeys[i], Value: blob[n:len(blob):len(blob)]}
	}
	return out
}

// SendAsync exposes the raw asynchronous RPC path for benchmarks and load
// generators (many requests in flight per client goroutine). On error
// (rpc.ErrClosed, rpc.ErrBacklogged) no request was enqueued and the call
// is nil; a non-nil call always completes, possibly with call.Err set.
func (s *Store) SendAsync(m rpc.Message) (*rpc.Call, error) { return s.rpc.Send(m) }

// GetAsync submits a get and returns its completion future without
// waiting. dst is the caller-owned destination buffer (GetInto's buf):
// the value is appended into dst[:0] when its capacity suffices, and dst
// must not be touched until the call completes (poll with call.Done,
// block with call.Wait). After completion call.Value/call.Found carry the
// result; Release the call when done with them. A nil call (with
// rpc.ErrClosed or rpc.ErrBacklogged) means nothing was enqueued.
//
// notify, here and on the other async submits, is an optional bell rung
// when the call completes (rpc.Message.Notify): a caller keeping a window
// of calls in flight parks on it once instead of blocking in Wait call by
// call. Pass nil to rely on Wait alone.
//
// The async facade trades the facade's per-op latency instrumentation for
// pipelining: callers that keep N calls in flight (the netserver's
// per-connection window, load generators) record their own latency.
func (s *Store) GetAsync(key uint64, dst []byte, notify *bell.Bell) (*rpc.Call, error) {
	return s.rpc.Send(rpc.Message{Op: workload.OpGet, Key: key, Dst: dst, Notify: notify})
}

// PutAsync submits a put and returns its completion future without
// waiting. val must stay untouched until the call completes: the value is
// copied into the item only when a worker executes the request, not at
// submit time (the synchronous Put hides this by blocking).
func (s *Store) PutAsync(key uint64, val []byte, notify *bell.Bell) (*rpc.Call, error) {
	return s.PutTTLAsync(key, val, 0, notify)
}

// PutTTLAsync is PutAsync with a per-item TTL (ttl <= 0 selects the
// configured default).
func (s *Store) PutTTLAsync(key uint64, val []byte, ttl time.Duration, notify *bell.Bell) (*rpc.Call, error) {
	return s.rpc.Send(rpc.Message{Op: workload.OpPut, Key: key, Value: val, Expire: s.expireAt(ttl), Notify: notify})
}

// DeleteAsync submits a delete and returns its completion future without
// waiting; call.Found reports whether the key existed.
func (s *Store) DeleteAsync(key uint64, notify *bell.Bell) (*rpc.Call, error) {
	return s.rpc.Send(rpc.Message{Op: workload.OpDelete, Key: key, Notify: notify})
}

// ScanAsync submits a scan of up to count entries with keys >= start and
// returns its completion future without waiting; it rejects what Scan
// rejects (a hash store, count outside [0, MaxScanCount]) before
// submitting. After completion call.ScanKeys/call.ScanVals carry the
// entries, and the values alias the call's pooled ScanBuf: they are valid
// only until Release, so a caller that keeps them copies them first.
func (s *Store) ScanAsync(start uint64, count int, notify *bell.Bell) (*rpc.Call, error) {
	if err := s.checkScan(count); err != nil {
		return nil, err
	}
	return s.rpc.Send(rpc.Message{Op: workload.OpScan, Key: start, ScanCount: count, Notify: notify})
}

// --- manager operations ----------------------------------------------------

// Split returns the current (CR, MR) worker allocation.
func (s *Store) Split() (nCR, nMR int) {
	n := int(s.nCR.Load())
	return n, s.cfg.Workers - n
}

// SetSplit reassigns workers so that nCR of them serve the cache-resident
// layer. It follows §3.5: the RPC schedule switches at a future slot index,
// shrunk CR workers drain their owned slots then move to the MR layer, and
// grown CR workers drain their CR-MR columns before switching. Request
// processing is never blocked.
func (s *Store) SetSplit(nCR int) error {
	if nCR < 1 || nCR >= s.cfg.Workers {
		return fmt.Errorf("kvcore: nCR must be in [1, Workers-1], got %d", nCR)
	}
	if s.rpc.Closed() {
		return rpc.ErrClosed
	}
	old := int(s.nCR.Swap(int32(nCR)))
	if old == nCR {
		return nil
	}
	s.rpc.Reconfigure(nCR)
	s.trace.Record(obs.Decision{Event: "split",
		OldSplit: old, NewSplit: nCR, OldCache: -1, NewCache: -1})
	return nil
}

// SetHotItems adjusts the hot-set cache target (0 empties it). It takes
// effect at the next refresh: the background refresher's, or — on a store
// opened without one (a negative RefreshInterval) — the caller's next
// RefreshHotSet.
func (s *Store) SetHotItems(k int) {
	if k < 0 {
		k = 0
	}
	old := int(s.hotTarget.Swap(int32(k)))
	if old != k {
		s.trace.Record(obs.Decision{Event: "cache",
			OldSplit: -1, NewSplit: -1, OldCache: old, NewCache: k})
	}
}

// HotItems returns the hot-set target size.
func (s *Store) HotItems() int { return int(s.hotTarget.Load()) }

// RefreshHotSet samples the trackers and installs a fresh hot-set view,
// returning the number of cached entries. It is called periodically by the
// background refresher or manually by tests and tuners. Refreshes are
// serialized and run inside the refresher's own epoch reader slot: item
// reclamation relies on a retired item's grace period covering any refresh
// that read the index before the item was unlinked, and on install
// generations reaching items (MarkViewed) strictly before their view is
// published.
func (s *Store) RefreshHotSet() int {
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	k := int(s.hotTarget.Load())
	if k <= 0 && s.cache.Len() == 0 {
		// Cache off and already empty: nothing to install and nothing
		// superseded, so no ring either — a store with the cache off gets
		// no periodic wake-up from its refresher.
		return 0
	}
	// Once the new view is in and this reader section has closed, retired
	// items parked behind the superseded view can move on — the one wake
	// condition of an idle worker nothing else rings for. (Deferred before
	// the section exit so it runs after it.)
	defer s.rpc.RingAll()
	s.dom.Enter(s.cfg.Workers)
	defer s.dom.Exit(s.cfg.Workers)
	if k <= 0 {
		s.cache.Install(hotset.NewSortedView(nil))
		return 0
	}
	hot := s.tracker.Snapshot(s.cms, k)
	entries := s.hotEntries[:0]
	for _, h := range hot {
		if s.recent.Contains(h.Key) {
			// Eviction-aware admission: the evictor just chose this key as a
			// victim; re-admitting it would pin its replacement chain and
			// undo the eviction. The veto ages out over the next two
			// refreshes (Sweep below) — if the key is genuinely hot it will
			// still rank in the sketch then.
			s.met.hotVeto.Inc(0)
			continue
		}
		if it, ok := s.idx.Get(h.Key); ok && !it.Dead() {
			entries = append(entries, hotset.Entry{Key: h.Key, Item: it.Latest()})
		}
	}
	s.recent.Sweep()
	gen := s.cache.Installs() + 1 // the generation Install below gets
	for _, e := range entries {
		e.Item.MarkViewed(gen)
	}
	var v hotset.View
	if s.cfg.Engine == Tree {
		v = hotset.NewSortedView(entries)
	} else {
		v = hotset.NewHashView(entries)
	}
	s.cache.Install(v)
	// Both views copied the entries; cleared, the kept list pins no item.
	n := len(entries)
	clear(entries)
	s.hotEntries = entries[:0]
	return n
}

// Stats is a snapshot of store counters.
type Stats struct {
	Ops       uint64 // completed operations
	CRHits    uint64 // served entirely at the cache-resident layer
	Forwarded uint64 // forwarded over the CR-MR queue
	Items     int    // indexed items
	HotSize   int    // current hot-set view size
}

// Stats returns a snapshot of the store's counters. (Merged from the
// sharded obs instruments; under the obs_off measurement build these all
// read zero.)
func (s *Store) Stats() Stats {
	return Stats{
		Ops:       s.met.opsTotal(),
		CRHits:    s.met.crHit.Value(),
		Forwarded: s.met.forwarded.Value(),
		Items:     s.idx.Len(),
		HotSize:   s.cache.Len(),
	}
}

// Ops returns the completed-operation counter (monotonic), the feedback
// signal the auto-tuner's monitor differentiates.
func (s *Store) Ops() uint64 { return s.met.opsTotal() }

// Preload inserts directly into the index, bypassing the RPC path; used
// for bulk pre-population before serving. The value is copied into the
// item, so the caller may reuse val. Preloads are serialized among
// themselves and take the key-stripe lock against concurrent worker
// writes; an overwritten item is retired like any other (its queue is
// drained at Close).
func (s *Store) Preload(key uint64, val []byte) {
	s.preMu.Lock()
	defer s.preMu.Unlock()
	mu := &s.keyLocks[key&s.lockMask]
	mu.Lock()
	defer mu.Unlock()
	n := seqitem.NewIn(s.prePool, val)
	if it, ok := s.idx.Get(key); ok {
		s.idx.Put(key, n)
		it.MoveTo(n)
		n.MarkViewed(it.ViewGen()) // propagate view reachability (§11)
		s.preRet = append(s.preRet, retiredItem{it: it})
		s.retiredPend.Add(1)
		s.retiredBytes.Add(int64(it.SlotBytes()))
		s.met.retired.Inc(0)
		return
	}
	s.idx.Put(key, n)
}
