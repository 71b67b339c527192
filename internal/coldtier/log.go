// Package coldtier implements the SSD half of the store's bounded-memory
// lifecycle: an append-only value log plus an in-memory location index.
// Evicted values are appended to the log instead of vanishing; a get that
// misses RAM consults the location index and reads the value back with one
// pread. A background compactor rewrites the live tail of mostly-dead
// segments and deletes them, bounding log growth under churn.
//
// The log is a cache tier, not a durability layer: appends are not fsynced
// and a crash may lose recently written records. Within that contract
// recovery is exact (DESIGN.md §13): every mutation appends its record and
// updates the index under one stripe lock, so the in-memory index is always
// the last-record-wins view of the completed appends; reopen replays to the
// same view, truncating a torn tail, and a reopened log never resurrects a
// deleted key or serves a value older than the last one acknowledged.
//
// Open is checkpoint-accelerated: a periodic (and clean-Close) atomic
// snapshot of the location index — `index-<seq>.ckpt`, tmp+fsync+rename —
// records the entries plus the segment frontier it covers, and reopen loads
// the newest valid checkpoint and replays only the segment suffix past its
// frontier, falling back to a full rescan when no checkpoint survives
// validation. Every record carries a CRC32C, so torn or corrupted records
// are detected rather than replayed.
//
// Concurrency: appends serialize on one mutex (eviction and compaction are
// background work, not the request fast path); reads are lock-free preads
// against immutable sealed segments plus striped-RWMutex index lookups.
// Mutations hold their key's stripe lock across both the append and the
// index update (lock order: stripe before append mutex), which is what
// makes the crash contract above hold.
package coldtier

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mutps/internal/obs"
)

// Record kinds.
const (
	recValue     byte = 0
	recTombstone byte = 1
)

// A record is kind(1) key(8) expiry(8) vlen(4) crc(4) value[vlen]; the
// CRC32C covers the recSumOff bytes before it and the value.
const (
	recSumOff    = 1 + 8 + 8 + 4
	recHeaderLen = recSumOff + 4
)

// segMagic leads every segment file. A segment that does not start with it
// is not this log's data and is never replayed, appended to or truncated.
var segMagic = [8]byte{'M', 'T', 'P', 'S', 'S', 'G', '2', '\n'}

const segHeaderLen = int64(len(segMagic))

// castagnoli is the CRC32C table shared by record and checkpoint checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxValue bounds a single record's payload; matches the wire protocol's
// frame cap so nothing the server accepts is unspillable.
const maxValue = 16 << 20

// ErrClosed is returned by mutations on a closed Log.
var ErrClosed = errors.New("coldtier: log closed")

// Loc names a record's position: segment id, byte offset, value length.
// Segment ids start at 1, so the zero Loc never names a real record.
type Loc struct {
	Seg uint32
	Off int64
	Len uint32
}

// Options configures a Log. Zero values select defaults.
type Options struct {
	Dir             string
	SegmentBytes    int64         // rotate the active segment past this size (default 64 MiB)
	CompactMinDead  float64       // compact sealed segments once this fraction is dead (default 0.4)
	CompactInterval time.Duration // background compactor period (default 2s; <0 disables the goroutine)

	// CheckpointInterval is the period of the background index-checkpoint
	// writer (default 30s). <0 disables checkpointing entirely, including
	// the final checkpoint a clean Close otherwise writes; Open then always
	// rebuilds by full segment rescan.
	CheckpointInterval time.Duration

	// WriteHook, when non-nil, intercepts every segment-record append: it
	// receives the encoded record and returns how many of its bytes to
	// persist plus an error to surface. A non-nil error simulates a crash
	// mid-write — the prefix is written, the record is not published, and
	// the append fails — so tests can produce torn tails ("crash after N
	// writes") deterministically. After the hook returns an error the Log
	// must be treated as crashed: abandon it and reopen the directory.
	WriteHook func(rec []byte) (int, error)
}

func (o *Options) defaults() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.CompactMinDead <= 0 {
		o.CompactMinDead = 0.4
	}
	if o.CompactInterval == 0 {
		o.CompactInterval = 2 * time.Second
	}
	if o.CheckpointInterval == 0 {
		o.CheckpointInterval = 30 * time.Second
	}
}

type segment struct {
	id   uint32
	f    *os.File
	size atomic.Int64 // bytes appended (stable once sealed)
	dead atomic.Int64 // bytes belonging to superseded/deleted records
}

// recordSum is the checksum a record carries: hdr is its first recSumOff
// bytes (or more).
func recordSum(hdr, val []byte) uint32 {
	return crc32.Update(crc32.Checksum(hdr[:recSumOff], castagnoli), castagnoli, val)
}

// segSet is the copy-on-write view of the segment list, ordered by id.
// Readers load it atomically; rotation and compaction publish new copies.
type segSet struct {
	segs []*segment // ascending id; last is the active segment
}

func (s *segSet) find(id uint32) *segment {
	i := sort.Search(len(s.segs), func(i int) bool { return s.segs[i].id >= id })
	if i < len(s.segs) && s.segs[i].id == id {
		return s.segs[i]
	}
	return nil
}

const idxStripes = 16

type idxEnt struct {
	loc Loc
	exp uint64
}

type stripe struct {
	sync.RWMutex
	m map[uint64]idxEnt
}

// frontier names a position in the log's replay order (segments ascending
// by id, offsets ascending within a segment). A checkpoint's frontier is
// the append head at snapshot time: the snapshot is exactly the
// last-record-wins view of everything strictly before it.
type frontier struct {
	Seg uint32
	Off int64
}

// covers reports whether the record at (seg, off) is strictly before f.
func (f frontier) covers(seg uint32, off int64) bool {
	return seg < f.Seg || (seg == f.Seg && off < f.Off)
}

// Recovery modes reported by mutps_cold_open_recovery_mode.
const (
	recoverFresh      = 0 // no segments on disk
	recoverRescan     = 1 // full segment rescan
	recoverCheckpoint = 2 // checkpoint load + suffix replay
)

// Log is an append-only value log with an in-memory location index.
type Log struct {
	opts Options

	mu     sync.Mutex // append path: active-segment writes and rotation
	active *segment
	nextID uint32
	wbuf   []byte // append scratch, guarded by mu

	set atomic.Pointer[segSet]

	stripes [idxStripes]stripe
	entries atomic.Int64

	// graveyard holds segments removed from the set but not yet closed, so
	// a reader holding the previous segSet snapshot can finish its pread.
	// Each compact pass closes the previous pass's graveyard.
	gmu       sync.Mutex
	graveyard []*segment

	// Checkpoint state. ckptMu serializes writers; ckptSeq is the sequence
	// of the newest checkpoint on disk; ckptFrontier is the frontier of the
	// oldest checkpoint still on disk (nil when none) — the compactor may
	// only drop a tombstone that every surviving checkpoint already
	// reflects, i.e. one strictly before this frontier.
	ckptMu       sync.Mutex
	ckptSeq      uint64
	ckptFrontier atomic.Pointer[frontier]

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
	closed    atomic.Bool

	appends     *obs.Counter
	reads       *obs.Counter
	readErrs    *obs.Counter
	compactions *obs.Counter
	rewrites    *obs.Counter
	ckptWrites  *obs.Counter
	ckptErrors  *obs.Counter

	// Open/recovery stats, written once during replay.
	recMode     atomic.Int32
	recReplayed atomic.Int64 // records scanned (suffix only in checkpoint mode)
	recLoaded   atomic.Int64 // index entries restored from the checkpoint
	recTorn     atomic.Int64 // torn-tail truncations performed
	recOrphans  atomic.Int64 // orphaned tmp/invalid files removed at open
	openNanos   atomic.Int64
}

// Open opens (or creates) a value log in opts.Dir, rebuilding the location
// index from the newest valid checkpoint plus the segment suffix past its
// frontier, or by full segment rescan when no checkpoint survives.
func Open(opts Options) (*Log, error) {
	opts.defaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("coldtier: Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{
		opts:        opts,
		stop:        make(chan struct{}),
		appends:     obs.NewCounter(1),
		reads:       obs.NewCounter(1),
		readErrs:    obs.NewCounter(1),
		compactions: obs.NewCounter(1),
		rewrites:    obs.NewCounter(1),
		ckptWrites:  obs.NewCounter(1),
		ckptErrors:  obs.NewCounter(1),
	}
	for i := range l.stripes {
		l.stripes[i].m = make(map[uint64]idxEnt)
	}
	start := time.Now()
	if err := l.replay(); err != nil {
		return nil, err
	}
	l.openNanos.Store(int64(time.Since(start)))
	if l.opts.CompactInterval > 0 {
		l.wg.Add(1)
		go l.compactLoop()
	}
	if l.opts.CheckpointInterval > 0 {
		l.wg.Add(1)
		go l.ckptLoop()
	}
	return l, nil
}

// Close stops the background goroutines, writes a final index checkpoint
// (unless checkpointing is disabled), and closes every segment file. It is
// idempotent: the first call does the work and every call returns the
// first call's error.
func (l *Log) Close() error {
	l.closeOnce.Do(func() {
		close(l.stop)
		l.wg.Wait()
		if l.opts.CheckpointInterval >= 0 {
			// A clean Close leaves a checkpoint at the exact append head, so
			// the next Open replays an empty suffix.
			if err := l.Checkpoint(); err != nil && l.closeErr == nil {
				l.closeErr = err
			}
		}
		l.closed.Store(true)
		l.gmu.Lock()
		for _, s := range l.graveyard {
			s.f.Close()
		}
		l.graveyard = nil
		l.gmu.Unlock()
		for _, s := range l.set.Load().segs {
			if e := s.f.Close(); e != nil && l.closeErr == nil {
				l.closeErr = e
			}
		}
	})
	return l.closeErr
}

func segName(id uint32) string { return fmt.Sprintf("seg-%06d.log", id) }

// parseSegName reports the id of an exactly-named segment file. Prefix
// matches like "seg-000001.log.tmp" or "seg-000001.logx" — precisely the
// debris a crashed checkpoint writer or a foreign tool can leave — must
// not be replayed (or truncated!) as a segment, so the name is required to
// round-trip through segName.
func parseSegName(name string) (uint32, bool) {
	const pre, suf = "seg-", ".log"
	if len(name) < len(pre)+6+len(suf) ||
		!strings.HasPrefix(name, pre) || !strings.HasSuffix(name, suf) {
		return 0, false
	}
	digits := name[len(pre) : len(name)-len(suf)]
	var id uint64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		id = id*10 + uint64(c-'0')
		if id > 1<<32-1 {
			return 0, false
		}
	}
	if id == 0 || name != segName(uint32(id)) {
		return 0, false
	}
	return uint32(id), true
}

// replay rebuilds the location index at Open: it garbage-collects orphaned
// files, opens every segment, loads the newest valid checkpoint and
// replays the suffix past its frontier — or falls back to a full rescan —
// and truncates a torn tail on the active segment.
func (l *Log) replay() error {
	dents, err := os.ReadDir(l.opts.Dir)
	if err != nil {
		return err
	}
	var ids []uint32
	var ckpts []uint64
	for _, d := range dents {
		if d.IsDir() {
			continue
		}
		name := d.Name()
		if id, ok := parseSegName(name); ok {
			ids = append(ids, id)
			continue
		}
		if seq, ok := parseCkptName(name); ok {
			ckpts = append(ckpts, seq)
			continue
		}
		if strings.HasSuffix(name, ".tmp") &&
			(strings.HasPrefix(name, "seg-") || strings.HasPrefix(name, "index-")) {
			// Startup GC: a half-written checkpoint (or other rewrite debris)
			// that never reached its atomic rename is garbage.
			if os.Remove(filepath.Join(l.opts.Dir, name)) == nil {
				l.recOrphans.Add(1)
			}
		}
		// Anything else is a foreign file: skip it, never truncate it.
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] > ckpts[j] }) // newest first

	set := &segSet{}
	for i, id := range ids {
		seg, err := openSegment(l.opts.Dir, id, i == len(ids)-1)
		if err != nil {
			for _, s := range set.segs {
				s.f.Close()
			}
			return err
		}
		set.segs = append(set.segs, seg)
		if id >= l.nextID {
			l.nextID = id + 1
		}
	}
	l.set.Store(set)

	now := uint64(time.Now().UnixNano())
	recovered := false
	for _, seq := range ckpts {
		if seq > l.ckptSeq {
			l.ckptSeq = seq // never reuse a sequence, valid or not
		}
		path := filepath.Join(l.opts.Dir, ckptName(seq))
		if recovered {
			os.Remove(path) // superseded by the newer checkpoint we loaded
			continue
		}
		c, err := readCheckpoint(path)
		if err != nil || !l.recoverFromCheckpoint(c, now) {
			// Checksum mismatch or a frontier the surviving segments cannot
			// satisfy: this checkpoint is garbage; try an older one, else
			// rescan everything.
			os.Remove(path)
			l.recOrphans.Add(1)
			l.ckptErrors.Inc(0)
			continue
		}
		l.ckptFrontier.Store(&frontier{Seg: c.frontierSeg, Off: c.frontierOff})
		recovered = true
	}
	if !recovered && len(set.segs) > 0 {
		l.fullRescan(now)
		l.recMode.Store(recoverRescan)
	} else if recovered {
		l.recMode.Store(recoverCheckpoint)
	}

	if len(set.segs) == 0 {
		l.nextID = 1
		seg, err := l.newSegment()
		if err != nil {
			return err
		}
		ns := &segSet{segs: []*segment{seg}}
		l.set.Store(ns)
		set = ns
		l.recMode.Store(recoverFresh)
	}
	l.active = set.segs[len(set.segs)-1]
	return nil
}

// openSegment opens one segment file and checks its magic. A file shorter
// than the magic can only be the active segment (the last one) caught by a
// crash between its creation and the end of the header write: no record
// was ever appended behind a torn header, so the magic is stamped afresh.
// Anything else without the magic is not a segment this log wrote; Open
// fails naming it rather than guess at its format, and the file is left
// exactly as found.
func openSegment(dir string, id uint32, active bool) (*segment, error) {
	path := filepath.Join(dir, segName(id))
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := fi.Size()
	var hdr [8]byte
	switch {
	case size >= segHeaderLen:
		_, err = f.ReadAt(hdr[:], 0)
		if err == nil && hdr != segMagic {
			err = fmt.Errorf("coldtier: %s does not start with the segment magic; refusing to replay or modify it", path)
		}
	case active:
		_, err = f.WriteAt(segMagic[:], 0)
		size = segHeaderLen
	default:
		err = fmt.Errorf("coldtier: sealed segment %s is %d bytes, shorter than the segment magic; refusing to replay or modify it", path, size)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	seg := &segment{id: id, f: f}
	seg.size.Store(size)
	return seg, nil
}

// fullRescan replays every segment from its base, last-record-wins.
func (l *Log) fullRescan(now uint64) {
	segs := l.set.Load().segs
	for i, seg := range segs {
		l.scanSegment(seg, segHeaderLen, now, i == len(segs)-1)
	}
}

// scanSegment replays seg's records from offset from, updating the index
// and dead-byte accounting. On the active (last) segment an invalid or
// torn record truncates the file there — the crash contract's torn-tail
// rule; on sealed segments the scan just stops (never destroy bytes that
// later segments may shadow anyway).
func (l *Log) scanSegment(seg *segment, from int64, now uint64, last bool) {
	size := seg.size.Load()
	end, clean := l.replayRecords(seg, from, size, now)
	if last && (!clean || end < size) {
		if err := seg.f.Truncate(end); err == nil {
			seg.size.Store(end)
			l.recTorn.Add(1)
		}
	}
}

// replayRecords indexes seg's records in [from, size) and returns the
// offset just past the last valid record plus whether the whole range
// parsed cleanly. Every record is CRC-verified (the value bytes are read
// and checked).
func (l *Log) replayRecords(seg *segment, from, size int64, now uint64) (int64, bool) {
	if from < segHeaderLen {
		from = segHeaderLen
	}
	if from >= size {
		return from, from == size
	}
	br := bufio.NewReaderSize(io.NewSectionReader(seg.f, from, size-from), 256<<10)
	var hdr [recHeaderLen]byte
	var vbuf []byte
	off := from
	for off+recHeaderLen <= size {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return off, false
		}
		kind := hdr[0]
		key := binary.LittleEndian.Uint64(hdr[1:9])
		exp := binary.LittleEndian.Uint64(hdr[9:17])
		vlen := binary.LittleEndian.Uint32(hdr[17:21])
		if kind > recTombstone || vlen > maxValue || (kind == recTombstone && vlen != 0) ||
			off+recHeaderLen+int64(vlen) > size {
			return off, false
		}
		if cap(vbuf) < int(vlen) {
			vbuf = make([]byte, vlen)
		}
		if _, err := io.ReadFull(br, vbuf[:vlen]); err != nil {
			return off, false
		}
		if recordSum(hdr[:], vbuf[:vlen]) != binary.LittleEndian.Uint32(hdr[recSumOff:]) {
			return off, false
		}
		recLen := recHeaderLen + int64(vlen)
		l.recReplayed.Add(1)
		st := &l.stripes[key%idxStripes]
		switch kind {
		case recValue:
			if exp != 0 && now >= exp {
				seg.dead.Add(recLen)
				// an expired record still supersedes older ones
				if old, had := st.m[key]; had {
					l.deadAt(old.loc)
					delete(st.m, key)
					l.entries.Add(-1)
				}
			} else {
				if old, had := st.m[key]; had {
					l.deadAt(old.loc)
				} else {
					l.entries.Add(1)
				}
				st.m[key] = idxEnt{loc: Loc{Seg: seg.id, Off: off, Len: vlen}, exp: exp}
			}
		case recTombstone:
			seg.dead.Add(recLen)
			if old, had := st.m[key]; had {
				l.deadAt(old.loc)
				delete(st.m, key)
				l.entries.Add(-1)
			}
		}
		off += recLen
	}
	return off, off == size
}

// deadAt charges a superseded record's bytes to its segment; a no-op if
// the segment has already been compacted away.
func (l *Log) deadAt(loc Loc) {
	if seg := l.set.Load().find(loc.Seg); seg != nil {
		seg.dead.Add(recHeaderLen + int64(loc.Len))
	}
}

func (l *Log) newSegment() (*segment, error) {
	id := l.nextID
	l.nextID++
	f, err := os.OpenFile(filepath.Join(l.opts.Dir, segName(id)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(segMagic[:]); err != nil {
		f.Close()
		os.Remove(filepath.Join(l.opts.Dir, segName(id)))
		return nil, err
	}
	seg := &segment{id: id, f: f}
	seg.size.Store(segHeaderLen)
	return seg, nil
}

// append writes one record to the active segment (rotating first if it
// would overflow) and returns its location. Callers hold their key's
// stripe lock where per-key ordering matters (lock order: stripe before
// this mutex; never the reverse).
func (l *Log) append(kind byte, key, exp uint64, val []byte) (Loc, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed.Load() {
		return Loc{}, ErrClosed
	}
	if sz := l.active.size.Load(); sz > segHeaderLen &&
		sz+recHeaderLen+int64(len(val)) > l.opts.SegmentBytes {
		seg, err := l.newSegment()
		if err != nil {
			return Loc{}, err
		}
		old := l.set.Load()
		ns := &segSet{segs: make([]*segment, len(old.segs), len(old.segs)+1)}
		copy(ns.segs, old.segs)
		ns.segs = append(ns.segs, seg)
		l.set.Store(ns)
		l.active = seg
	}
	seg := l.active
	need := recHeaderLen + len(val)
	off := seg.size.Load()
	if cap(l.wbuf) < need {
		l.wbuf = make([]byte, need)
	}
	buf := l.wbuf[:need]
	buf[0] = kind
	binary.LittleEndian.PutUint64(buf[1:9], key)
	binary.LittleEndian.PutUint64(buf[9:17], exp)
	binary.LittleEndian.PutUint32(buf[17:21], uint32(len(val)))
	binary.LittleEndian.PutUint32(buf[recSumOff:], recordSum(buf, val))
	copy(buf[recHeaderLen:], val)
	if l.opts.WriteHook != nil {
		if n, err := l.opts.WriteHook(buf); err != nil {
			if n > 0 {
				if n > len(buf) {
					n = len(buf)
				}
				seg.f.WriteAt(buf[:n], off) // the torn prefix a crash leaves
			}
			return Loc{}, err
		}
	}
	if _, err := seg.f.WriteAt(buf, off); err != nil {
		return Loc{}, err
	}
	seg.size.Store(off + int64(need))
	l.appends.Inc(0)
	return Loc{Seg: seg.id, Off: off, Len: uint32(len(val))}, nil
}

// Put appends a value record for key and points the index at it. The
// stripe lock spans both, so per key the log order always matches the
// index order and replay after a crash agrees with pre-crash memory.
func (l *Log) Put(key, exp uint64, val []byte) (Loc, error) {
	st := &l.stripes[key%idxStripes]
	st.Lock()
	loc, err := l.append(recValue, key, exp, val)
	if err != nil {
		st.Unlock()
		return Loc{}, err
	}
	old, had := st.m[key]
	st.m[key] = idxEnt{loc: loc, exp: exp}
	if !had {
		l.entries.Add(1)
	}
	st.Unlock()
	if had {
		l.deadAt(old.loc)
	}
	return loc, nil
}

// PutIf appends a value record but only if the index still points at
// expect — the conditional spill used to correct a value that changed
// under a racing in-place write, without ever clobbering a newer
// generation of the key. Returns whether the index was updated.
func (l *Log) PutIf(key, exp uint64, val []byte, expect Loc) (bool, error) {
	st := &l.stripes[key%idxStripes]
	st.Lock()
	cur, had := st.m[key]
	if !had || cur.loc != expect {
		st.Unlock()
		return false, nil // the CAS lost; nothing was appended
	}
	loc, err := l.append(recValue, key, exp, val)
	if err != nil {
		st.Unlock()
		return false, err
	}
	st.m[key] = idxEnt{loc: loc, exp: exp}
	st.Unlock()
	l.deadAt(expect)
	return true, nil
}

// Delete removes key from the index and appends a tombstone so replay
// cannot resurrect it. Returns whether the key was present. The tombstone
// append and the index removal happen under one stripe-lock critical
// section: a racing Put can no longer slot its value record after the
// tombstone yet lose its index entry, which would make reopen disagree
// with pre-crash memory (or resurrect the key).
func (l *Log) Delete(key uint64) bool {
	st := &l.stripes[key%idxStripes]
	st.RLock()
	_, had := st.m[key]
	st.RUnlock()
	if !had {
		return false
	}
	st.Lock()
	cur, had := st.m[key]
	if !had {
		st.Unlock()
		return false
	}
	tomb, err := l.append(recTombstone, key, 0, nil)
	if err != nil {
		// No tombstone on disk means replay would resurrect the key, so the
		// delete must not be acked: keep the entry and report failure. (A
		// torn tombstone prefix, if any, is truncated at the next open.)
		st.Unlock()
		return false
	}
	delete(st.m, key)
	l.entries.Add(-1)
	st.Unlock()
	l.deadAt(cur.loc)
	l.deadAt(tomb) // a tombstone is dead weight from birth
	return true
}

// Has reports whether key has a live log record.
func (l *Log) Has(key uint64) bool {
	st := &l.stripes[key%idxStripes]
	st.RLock()
	_, ok := st.m[key]
	st.RUnlock()
	return ok
}

// Locate returns key's current record location.
func (l *Log) Locate(key uint64) (Loc, bool) {
	st := &l.stripes[key%idxStripes]
	st.RLock()
	ent, ok := st.m[key]
	st.RUnlock()
	return ent.loc, ok
}

// Get reads key's value into buf (append-style, like seqitem.Read) and
// returns the filled slice, the record's expiry deadline, and its
// location. Records past their deadline at now read as misses and are
// dropped from the index lazily. The record's CRC is verified before it is
// served, so a torn or corrupted record reads as a miss, never as a wrong
// value.
func (l *Log) Get(key uint64, buf []byte, now int64) (val []byte, exp uint64, loc Loc, ok bool) {
	for attempt := 0; attempt < 4; attempt++ {
		st := &l.stripes[key%idxStripes]
		st.RLock()
		ent, had := st.m[key]
		st.RUnlock()
		if !had {
			return nil, 0, Loc{}, false
		}
		if ent.exp != 0 && uint64(now) >= ent.exp {
			st.Lock()
			if cur, had := st.m[key]; had && cur.loc == ent.loc {
				delete(st.m, key)
				l.entries.Add(-1)
				st.Unlock()
				l.deadAt(ent.loc)
			} else {
				st.Unlock()
			}
			return nil, 0, Loc{}, false
		}
		seg := l.set.Load().find(ent.loc.Seg)
		if seg == nil {
			continue // compacted away between lookup and read; index moved
		}
		n := recHeaderLen + int(ent.loc.Len)
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		b := buf[:n]
		if _, err := seg.f.ReadAt(b, ent.loc.Off); err != nil {
			l.readErrs.Inc(0)
			continue // segment closed under us; retry through the index
		}
		if b[0] != recValue || binary.LittleEndian.Uint64(b[1:9]) != key {
			l.readErrs.Inc(0)
			return nil, 0, Loc{}, false
		}
		if recordSum(b, b[recHeaderLen:]) != binary.LittleEndian.Uint32(b[recSumOff:]) {
			l.readErrs.Inc(0)
			return nil, 0, Loc{}, false
		}
		l.reads.Inc(0)
		copy(b, b[recHeaderLen:])
		return b[:ent.loc.Len], ent.exp, ent.loc, true
	}
	return nil, 0, Loc{}, false
}

// Len returns the number of live keys in the location index.
func (l *Log) Len() int { return int(l.entries.Load()) }

// LogBytes returns the total bytes across all segment files.
func (l *Log) LogBytes() int64 {
	var n int64
	for _, s := range l.set.Load().segs {
		n += s.size.Load()
	}
	return n
}

// DeadBytes returns the bytes charged to superseded/deleted records.
func (l *Log) DeadBytes() int64 {
	var n int64
	for _, s := range l.set.Load().segs {
		n += s.dead.Load()
	}
	return n
}

// Segments returns the current segment count.
func (l *Log) Segments() int { return len(l.set.Load().segs) }

func (l *Log) compactLoop() {
	defer l.wg.Done()
	t := time.NewTicker(l.opts.CompactInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.Compact()
		}
	}
}

// Compact rewrites the live records of every sealed segment whose dead
// fraction crossed CompactMinDead, then deletes those segments. Returns
// how many segments were removed. Safe to call concurrently with reads
// and appends; only one compaction runs at a time (the append mutex
// serializes rewrites record by record, not the whole pass).
func (l *Log) Compact() int {
	if l.closed.Load() {
		return 0
	}
	// Close the previous pass's graveyard: any reader that raced segment
	// removal has long since retried through the index.
	l.gmu.Lock()
	dead := l.graveyard
	l.graveyard = nil
	l.gmu.Unlock()
	for _, s := range dead {
		s.f.Close()
	}

	set := l.set.Load()
	if len(set.segs) < 2 {
		return 0
	}
	minID := set.segs[0].id
	removed := 0
	for _, seg := range set.segs[:len(set.segs)-1] { // never the active segment
		sz := seg.size.Load()
		if sz <= segHeaderLen || float64(seg.dead.Load()) < l.opts.CompactMinDead*float64(sz) {
			continue
		}
		if l.compactSegment(seg, seg.id == minID) {
			removed++
			minID = l.set.Load().segs[0].id
		}
	}
	return removed
}

// compactSegment relocates seg's live records to the active segment and
// removes seg — rewrite-then-publish: the copies land in the live log
// (where replay finds them, past any checkpoint frontier) strictly before
// the original file is unlinked, so a crash at any point mid-compact
// loses no live record and resurrects no dead one. oldest reports whether
// seg is the lowest-id live segment.
func (l *Log) compactSegment(seg *segment, oldest bool) bool {
	size := seg.size.Load()
	var hdr [recHeaderLen]byte
	val := make([]byte, 0, 4096)
	now := uint64(time.Now().UnixNano())
	for off := segHeaderLen; off+recHeaderLen <= size; {
		if _, err := seg.f.ReadAt(hdr[:], off); err != nil {
			return false
		}
		kind := hdr[0]
		key := binary.LittleEndian.Uint64(hdr[1:9])
		exp := binary.LittleEndian.Uint64(hdr[9:17])
		vlen := binary.LittleEndian.Uint32(hdr[17:21])
		if kind > recTombstone || off+recHeaderLen+int64(vlen) > size {
			return false // should not happen on a sealed segment
		}
		thisLoc := Loc{Seg: seg.id, Off: off, Len: vlen}
		switch kind {
		case recValue:
			cur, ok := l.Locate(key)
			if ok && cur == thisLoc {
				if exp != 0 && now >= exp {
					// expired while spilled: drop the index entry with it
					st := &l.stripes[key%idxStripes]
					st.Lock()
					if e, had := st.m[key]; had && e.loc == thisLoc {
						delete(st.m, key)
						l.entries.Add(-1)
					}
					st.Unlock()
				} else {
					if cap(val) < int(vlen) {
						val = make([]byte, vlen)
					}
					if _, err := seg.f.ReadAt(val[:vlen], off+recHeaderLen); err != nil {
						return false
					}
					if recordSum(hdr[:], val[:vlen]) != binary.LittleEndian.Uint32(hdr[recSumOff:]) {
						return false // corrupt record: leave the segment alone
					}
					if ok, err := l.PutIf(key, exp, val[:vlen], thisLoc); err != nil {
						return false
					} else if ok {
						l.rewrites.Inc(0)
					}
				}
			}
		case recTombstone:
			// A tombstone must survive as long as any persistent state could
			// resurrect the key: an older segment holding a stale value
			// record (handled by oldest), or a checkpoint whose snapshot
			// predates the delete — a checkpoint acts as a virtual oldest
			// segment covering everything before its frontier, so only
			// tombstones the oldest surviving checkpoint already reflects
			// (strictly before its frontier) may be dropped. If the key is
			// live again its index target replays last anyway.
			covered := true
			if fr := l.ckptFrontier.Load(); fr != nil {
				covered = fr.covers(seg.id, off)
			}
			if (!oldest || !covered) && !l.Has(key) {
				if _, err := l.append(recTombstone, key, 0, nil); err != nil {
					return false
				}
			}
		}
		off += recHeaderLen + int64(vlen)
	}
	// Unpublish, then retire the file. Readers holding the old set finish
	// their preads against the still-open fd; it joins the graveyard and
	// is closed on the next pass.
	l.mu.Lock()
	old := l.set.Load()
	ns := &segSet{segs: make([]*segment, 0, len(old.segs)-1)}
	for _, s := range old.segs {
		if s.id != seg.id {
			ns.segs = append(ns.segs, s)
		}
	}
	l.set.Store(ns)
	l.mu.Unlock()
	os.Remove(filepath.Join(l.opts.Dir, segName(seg.id)))
	l.gmu.Lock()
	l.graveyard = append(l.graveyard, seg)
	l.gmu.Unlock()
	l.compactions.Inc(0)
	return true
}

// Instrument registers the log's metrics with reg.
func (l *Log) Instrument(reg *obs.Registry) {
	if reg == nil || obs.Disabled {
		return
	}
	reg.GaugeFunc("mutps_cold_log_bytes", "", "Total bytes across cold-tier segment files.",
		func() float64 { return float64(l.LogBytes()) })
	reg.GaugeFunc("mutps_cold_dead_bytes", "", "Bytes held by superseded or deleted cold-tier records.",
		func() float64 { return float64(l.DeadBytes()) })
	reg.GaugeFunc("mutps_cold_segments", "", "Cold-tier segment file count.",
		func() float64 { return float64(l.Segments()) })
	reg.GaugeFunc("mutps_cold_entries", "", "Live keys in the cold-tier location index.",
		func() float64 { return float64(l.Len()) })
	reg.CounterFunc("mutps_cold_appends_total", "", "Records appended to the cold-tier log.",
		func() float64 { return float64(l.appends.Value()) })
	reg.CounterFunc("mutps_cold_reads_total", "", "Values served from the cold-tier log.",
		func() float64 { return float64(l.reads.Value()) })
	reg.CounterFunc("mutps_cold_read_errors_total", "", "Cold-tier reads that failed validation or I/O.",
		func() float64 { return float64(l.readErrs.Value()) })
	reg.CounterFunc("mutps_cold_compactions_total", "", "Cold-tier segments compacted away.",
		func() float64 { return float64(l.compactions.Value()) })
	reg.CounterFunc("mutps_cold_rewrites_total", "", "Live records relocated by the compactor.",
		func() float64 { return float64(l.rewrites.Value()) })
	reg.CounterFunc("mutps_cold_ckpt_writes_total", "", "Cold-tier index checkpoints written.",
		func() float64 { return float64(l.ckptWrites.Value()) })
	reg.CounterFunc("mutps_cold_ckpt_errors_total", "", "Cold-tier checkpoints that failed to write or validate.",
		func() float64 { return float64(l.ckptErrors.Value()) })
	reg.GaugeFunc("mutps_cold_open_recovery_mode", "", "How the last Open rebuilt the index: 0 fresh, 1 full rescan, 2 checkpoint+suffix.",
		func() float64 { return float64(l.recMode.Load()) })
	reg.GaugeFunc("mutps_cold_open_replayed_records", "", "Log records scanned by the last Open (suffix only in checkpoint mode).",
		func() float64 { return float64(l.recReplayed.Load()) })
	reg.GaugeFunc("mutps_cold_open_ckpt_entries", "", "Index entries restored from the checkpoint by the last Open.",
		func() float64 { return float64(l.recLoaded.Load()) })
	reg.GaugeFunc("mutps_cold_open_seconds", "", "Wall time of the last Open's index rebuild.",
		func() float64 { return float64(l.openNanos.Load()) / 1e9 })
	reg.CounterFunc("mutps_cold_torn_truncations_total", "", "Torn segment tails truncated at Open.",
		func() float64 { return float64(l.recTorn.Load()) })
	reg.CounterFunc("mutps_cold_orphans_removed_total", "", "Orphaned tmp/invalid files garbage-collected at Open.",
		func() float64 { return float64(l.recOrphans.Load()) })
}
