package coldtier

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Checkpoint format (index-<seq>.ckpt, little-endian, CRC32C-trailed):
//
//	magic[8] "MTPSCKP1"
//	seq       u64   checkpoint sequence number
//	frontier  u32+i64  segment id + offset of the append head at snapshot time
//	segCount  u32   then {id u32, dead i64} per segment present at snapshot
//	entCount  u64   then {key u64, seg u32, off i64, len u32, exp u64} per entry
//	crc       u32   CRC32C over everything above
//
// The snapshot is exactly the last-record-wins view of the log prefix
// strictly before the frontier: it is taken with every index stripe locked
// (and then the append mutex, matching the stripe→append lock order), so
// no append below the frontier can have a pending index update the scan
// misses. Recovery loads the entries and replays only the suffix past the
// frontier; because replay is last-record-wins, re-applying a suffix
// record whose effect the snapshot happens to include is idempotent.
//
// The file is published atomically — written to a .tmp, fsynced, renamed
// over the final name, directory fsynced — and the previous checkpoint is
// removed only after the rename lands, so a crash mid-write leaves either
// the old checkpoint or both, never a half file under the real name.

var ckptMagic = [8]byte{'M', 'T', 'P', 'S', 'C', 'K', 'P', '1'}

const (
	ckptHeaderLen = 8 + 8 + 4 + 8 // magic, seq, frontier seg, frontier off
	ckptSegLen    = 4 + 8
	ckptEntLen    = 8 + 4 + 8 + 4 + 8
)

func ckptName(seq uint64) string { return fmt.Sprintf("index-%06d.ckpt", seq) }

// parseCkptName mirrors parseSegName: only exact, canonical checkpoint
// names count; "index-000001.ckpt.tmp" and friends are debris, not
// checkpoints.
func parseCkptName(name string) (uint64, bool) {
	const pre, suf = "index-", ".ckpt"
	if len(name) < len(pre)+6+len(suf) ||
		!strings.HasPrefix(name, pre) || !strings.HasSuffix(name, suf) {
		return 0, false
	}
	digits := name[len(pre) : len(name)-len(suf)]
	var seq uint64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		n := seq*10 + uint64(c-'0')
		if n < seq {
			return 0, false // overflow
		}
		seq = n
	}
	if seq == 0 || name != ckptName(seq) {
		return 0, false
	}
	return seq, true
}

type ckptSeg struct {
	id   uint32
	dead int64
}

type ckptEnt struct {
	key uint64
	loc Loc
	exp uint64
}

type checkpoint struct {
	seq         uint64
	frontierSeg uint32
	frontierOff int64
	segs        []ckptSeg
	ents        []ckptEnt
}

func encodeCheckpoint(c *checkpoint) []byte {
	n := ckptHeaderLen + 4 + len(c.segs)*ckptSegLen + 8 + len(c.ents)*ckptEntLen + 4
	b := make([]byte, 0, n)
	b = append(b, ckptMagic[:]...)
	b = binary.LittleEndian.AppendUint64(b, c.seq)
	b = binary.LittleEndian.AppendUint32(b, c.frontierSeg)
	b = binary.LittleEndian.AppendUint64(b, uint64(c.frontierOff))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(c.segs)))
	for _, s := range c.segs {
		b = binary.LittleEndian.AppendUint32(b, s.id)
		b = binary.LittleEndian.AppendUint64(b, uint64(s.dead))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(c.ents)))
	for _, e := range c.ents {
		b = binary.LittleEndian.AppendUint64(b, e.key)
		b = binary.LittleEndian.AppendUint32(b, e.loc.Seg)
		b = binary.LittleEndian.AppendUint64(b, uint64(e.loc.Off))
		b = binary.LittleEndian.AppendUint32(b, e.loc.Len)
		b = binary.LittleEndian.AppendUint64(b, e.exp)
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
	return b
}

// readCheckpoint loads and validates one checkpoint file. Any structural
// or checksum mismatch returns an error: the caller falls back to an older
// checkpoint or a full rescan, never to a partial load.
func readCheckpoint(path string) (*checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b) < ckptHeaderLen+4+8+4 || [8]byte(b[:8]) != ckptMagic {
		return nil, fmt.Errorf("coldtier: %s: not a checkpoint", filepath.Base(path))
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("coldtier: %s: checksum mismatch", filepath.Base(path))
	}
	c := &checkpoint{
		seq:         binary.LittleEndian.Uint64(b[8:16]),
		frontierSeg: binary.LittleEndian.Uint32(b[16:20]),
		frontierOff: int64(binary.LittleEndian.Uint64(b[20:28])),
	}
	off := ckptHeaderLen
	segCount := int(binary.LittleEndian.Uint32(b[off : off+4]))
	off += 4
	if segCount < 0 || off+segCount*ckptSegLen+8 > len(body) {
		return nil, fmt.Errorf("coldtier: %s: truncated segment table", filepath.Base(path))
	}
	c.segs = make([]ckptSeg, segCount)
	for i := range c.segs {
		c.segs[i].id = binary.LittleEndian.Uint32(b[off : off+4])
		c.segs[i].dead = int64(binary.LittleEndian.Uint64(b[off+4 : off+12]))
		off += ckptSegLen
	}
	entCount := binary.LittleEndian.Uint64(b[off : off+8])
	off += 8
	if uint64(len(body)-off) != entCount*ckptEntLen {
		return nil, fmt.Errorf("coldtier: %s: truncated entries", filepath.Base(path))
	}
	c.ents = make([]ckptEnt, entCount)
	for i := range c.ents {
		c.ents[i].key = binary.LittleEndian.Uint64(b[off : off+8])
		c.ents[i].loc.Seg = binary.LittleEndian.Uint32(b[off+8 : off+12])
		c.ents[i].loc.Off = int64(binary.LittleEndian.Uint64(b[off+12 : off+20]))
		c.ents[i].loc.Len = binary.LittleEndian.Uint32(b[off+20 : off+24])
		c.ents[i].exp = binary.LittleEndian.Uint64(b[off+24 : off+32])
		off += ckptEntLen
	}
	return c, nil
}

// recoverFromCheckpoint rebuilds the index from a validated checkpoint and
// replays the segment suffix past its frontier. It returns false — with
// the index reset — when the surviving segments cannot satisfy the
// frontier (the log on disk is behind the checkpoint, e.g. after losing
// unsynced file data), in which case the caller falls back.
func (l *Log) recoverFromCheckpoint(c *checkpoint, now uint64) bool {
	set := l.set.Load()
	if fseg := set.find(c.frontierSeg); fseg != nil {
		if c.frontierOff > fseg.size.Load() {
			return false // checkpoint is ahead of the surviving bytes
		}
	} else if c.frontierSeg != 0 {
		// The frontier segment may legitimately be compacted away, but then
		// nothing older than the frontier may survive either.
		for _, s := range set.segs {
			if s.id <= c.frontierSeg {
				return false
			}
		}
	}

	// Restore per-segment dead-byte accounting for segments the snapshot
	// knew; segments newer than the frontier accumulate theirs during the
	// suffix replay.
	for _, cs := range c.segs {
		if seg := set.find(cs.id); seg != nil && cs.dead <= seg.size.Load() {
			seg.dead.Store(cs.dead)
		}
	}

	loaded := int64(0)
	for _, e := range c.ents {
		seg := set.find(e.loc.Seg)
		if seg == nil {
			// Compacted away after the snapshot; the relocated record sits in
			// the suffix and the replay below re-adds the key.
			continue
		}
		if e.loc.Off < segHeaderLen || e.loc.Off+recHeaderLen+int64(e.loc.Len) > seg.size.Load() {
			continue // dangling entry: the record's bytes did not survive
		}
		if e.exp != 0 && now >= e.exp {
			seg.dead.Add(recHeaderLen + int64(e.loc.Len))
			continue
		}
		st := &l.stripes[e.key%idxStripes]
		if old, had := st.m[e.key]; had {
			l.deadAt(old.loc) // duplicate key in a corrupt-but-checksummed file
		} else {
			l.entries.Add(1)
		}
		st.m[e.key] = idxEnt{loc: e.loc, exp: e.exp}
		loaded++
	}
	l.recLoaded.Store(loaded)

	// Replay only the suffix: the frontier segment past the frontier
	// offset, and every later segment in full.
	segs := set.segs
	for i, seg := range segs {
		if seg.id < c.frontierSeg {
			continue
		}
		from := segHeaderLen
		if seg.id == c.frontierSeg {
			from = c.frontierOff
		}
		l.scanSegment(seg, from, now, i == len(segs)-1)
	}
	return true
}

// Checkpoint atomically snapshots the location index to a new
// index-<seq>.ckpt and removes the previous one. The snapshot holds every
// stripe lock plus the append mutex for the copy (microseconds per 100k
// entries); encoding and file I/O happen outside the locks. A no-op when
// the append head has not moved since the last checkpoint.
func (l *Log) Checkpoint() error {
	if l.closed.Load() {
		return ErrClosed
	}
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()

	for i := range l.stripes {
		l.stripes[i].Lock()
	}
	l.mu.Lock()
	fr := frontier{Seg: l.active.id, Off: l.active.size.Load()}
	if prev := l.ckptFrontier.Load(); prev != nil && *prev == fr {
		// Nothing appended since the last checkpoint. In-memory-only changes
		// (lazy expiry drops) need no new snapshot: recovery re-drops
		// expired entries by deadline anyway.
		l.mu.Unlock()
		for i := idxStripes - 1; i >= 0; i-- {
			l.stripes[i].Unlock()
		}
		return nil
	}
	set := l.set.Load()
	c := &checkpoint{
		seq:         l.ckptSeq + 1,
		frontierSeg: fr.Seg,
		frontierOff: fr.Off,
		segs:        make([]ckptSeg, 0, len(set.segs)),
	}
	for _, s := range set.segs {
		c.segs = append(c.segs, ckptSeg{id: s.id, dead: s.dead.Load()})
	}
	l.mu.Unlock()
	c.ents = make([]ckptEnt, 0, l.entries.Load())
	for i := range l.stripes {
		for k, e := range l.stripes[i].m {
			c.ents = append(c.ents, ckptEnt{key: k, loc: e.loc, exp: e.exp})
		}
	}
	for i := idxStripes - 1; i >= 0; i-- {
		l.stripes[i].Unlock()
	}

	if err := l.publishCheckpoint(c); err != nil {
		l.ckptErrors.Inc(0)
		return err
	}
	prevSeq := l.ckptSeq
	l.ckptSeq = c.seq
	if prevSeq != 0 {
		os.Remove(filepath.Join(l.opts.Dir, ckptName(prevSeq)))
	}
	// Only after the predecessor is gone may the compactor rely on the new
	// frontier for tombstone dropping: ckptFrontier must never run ahead
	// of the oldest checkpoint a recovery could still load.
	l.ckptFrontier.Store(&fr)
	l.ckptWrites.Inc(0)
	return nil
}

// publishCheckpoint writes c via tmp + fsync + rename + directory fsync.
func (l *Log) publishCheckpoint(c *checkpoint) error {
	final := filepath.Join(l.opts.Dir, ckptName(c.seq))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	b := encodeCheckpoint(c)
	if _, err := f.Write(b); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(l.opts.Dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (l *Log) ckptLoop() {
	defer l.wg.Done()
	t := time.NewTicker(l.opts.CheckpointInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.Checkpoint()
		}
	}
}
