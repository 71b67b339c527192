package coldtier

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// openTest opens a log with background goroutines and checkpointing
// disabled, so reopen tests exercise the full-rescan path; checkpoint
// behavior has its own helpers in checkpoint_test.go.
func openTest(t *testing.T, dir string, segBytes int64) *Log {
	t.Helper()
	l, err := Open(Options{Dir: dir, SegmentBytes: segBytes,
		CompactInterval: -1, CheckpointInterval: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

// crash abandons l without Close: background goroutines are stopped and
// the segment files are closed with no final checkpoint, so a subsequent
// Open sees exactly what a killed process would have left on disk.
func crash(l *Log) {
	l.closeOnce.Do(func() {
		close(l.stop)
		l.wg.Wait()
		l.closed.Store(true)
		l.gmu.Lock()
		for _, s := range l.graveyard {
			s.f.Close()
		}
		l.graveyard = nil
		l.gmu.Unlock()
		for _, s := range l.set.Load().segs {
			s.f.Close()
		}
	})
}

func val(key uint64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(key + uint64(i))
	}
	return b
}

func TestPutGetRoundtrip(t *testing.T) {
	l := openTest(t, t.TempDir(), 1<<20)
	defer l.Close()
	for k := uint64(1); k <= 100; k++ {
		if _, err := l.Put(k, 0, val(k, int(k)%256)); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
	}
	if l.Len() != 100 {
		t.Fatalf("Len = %d, want 100", l.Len())
	}
	now := time.Now().UnixNano()
	for k := uint64(1); k <= 100; k++ {
		v, exp, _, ok := l.Get(k, nil, now)
		if !ok {
			t.Fatalf("Get(%d): miss", k)
		}
		if exp != 0 {
			t.Fatalf("Get(%d): exp = %d, want 0", k, exp)
		}
		if !bytes.Equal(v, val(k, int(k)%256)) {
			t.Fatalf("Get(%d): wrong value", k)
		}
	}
	if _, _, _, ok := l.Get(999, nil, now); ok {
		t.Fatal("Get(999): unexpected hit")
	}
}

func TestOverwriteAndDeadAccounting(t *testing.T) {
	l := openTest(t, t.TempDir(), 1<<20)
	defer l.Close()
	l.Put(7, 0, val(7, 64))
	if l.DeadBytes() != 0 {
		t.Fatalf("DeadBytes = %d before overwrite", l.DeadBytes())
	}
	l.Put(7, 0, val(8, 64))
	if want := int64(recHeaderLen + 64); l.DeadBytes() != want {
		t.Fatalf("DeadBytes = %d, want %d", l.DeadBytes(), want)
	}
	v, _, _, ok := l.Get(7, nil, time.Now().UnixNano())
	if !ok || !bytes.Equal(v, val(8, 64)) {
		t.Fatal("overwrite not visible")
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1", l.Len())
	}
}

func TestDeleteTombstone(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, 1<<20)
	l.Put(1, 0, val(1, 32))
	l.Put(2, 0, val(2, 32))
	if !l.Delete(1) {
		t.Fatal("Delete(1) = false")
	}
	if l.Delete(1) {
		t.Fatal("second Delete(1) = true")
	}
	if _, _, _, ok := l.Get(1, nil, time.Now().UnixNano()); ok {
		t.Fatal("deleted key still readable")
	}
	l.Close()

	// Reopen: the tombstone must keep key 1 dead.
	l2 := openTest(t, dir, 1<<20)
	defer l2.Close()
	if _, _, _, ok := l2.Get(1, nil, time.Now().UnixNano()); ok {
		t.Fatal("deleted key resurrected by replay")
	}
	if v, _, _, ok := l2.Get(2, nil, time.Now().UnixNano()); !ok || !bytes.Equal(v, val(2, 32)) {
		t.Fatal("live key lost across reopen")
	}
}

func TestExpiryMiss(t *testing.T) {
	l := openTest(t, t.TempDir(), 1<<20)
	defer l.Close()
	now := time.Now().UnixNano()
	l.Put(1, uint64(now+int64(time.Hour)), val(1, 16))
	l.Put(2, uint64(now-1), val(2, 16)) // already expired
	if _, _, _, ok := l.Get(1, nil, now); !ok {
		t.Fatal("unexpired key missed")
	}
	if _, _, _, ok := l.Get(2, nil, now); ok {
		t.Fatal("expired key served")
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d after lazy expiry drop, want 1", l.Len())
	}
}

func TestReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, 2048) // small segments force rotation
	for k := uint64(1); k <= 200; k++ {
		l.Put(k, 0, val(k, 100))
	}
	for k := uint64(1); k <= 200; k += 2 {
		l.Put(k, 0, val(k+1000, 100)) // overwrite odd keys
	}
	segs := l.Segments()
	if segs < 2 {
		t.Fatalf("expected multiple segments, got %d", segs)
	}
	l.Close()

	l2 := openTest(t, dir, 2048)
	defer l2.Close()
	if l2.Len() != 200 {
		t.Fatalf("Len = %d after reopen, want 200", l2.Len())
	}
	now := time.Now().UnixNano()
	for k := uint64(1); k <= 200; k++ {
		want := val(k, 100)
		if k%2 == 1 {
			want = val(k+1000, 100)
		}
		v, _, _, ok := l2.Get(k, nil, now)
		if !ok || !bytes.Equal(v, want) {
			t.Fatalf("Get(%d) wrong after reopen", k)
		}
	}
}

func TestReopenTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, 1<<20)
	l.Put(1, 0, val(1, 64))
	l.Put(2, 0, val(2, 64))
	l.Close()

	name := filepath.Join(dir, segName(1))
	fi, err := os.Stat(name)
	if err != nil {
		t.Fatal(err)
	}
	// Chop into the middle of the second record.
	if err := os.Truncate(name, fi.Size()-10); err != nil {
		t.Fatal(err)
	}

	l2 := openTest(t, dir, 1<<20)
	defer l2.Close()
	if l2.Len() != 1 {
		t.Fatalf("Len = %d after torn-tail reopen, want 1", l2.Len())
	}
	if v, _, _, ok := l2.Get(1, nil, time.Now().UnixNano()); !ok || !bytes.Equal(v, val(1, 64)) {
		t.Fatal("intact record lost")
	}
	if _, _, _, ok := l2.Get(2, nil, time.Now().UnixNano()); ok {
		t.Fatal("torn record served")
	}
	// The log must keep appending cleanly after the truncation.
	if _, err := l2.Put(3, 0, val(3, 64)); err != nil {
		t.Fatal(err)
	}
	if v, _, _, ok := l2.Get(3, nil, time.Now().UnixNano()); !ok || !bytes.Equal(v, val(3, 64)) {
		t.Fatal("post-truncation append unreadable")
	}
}

func TestCompactReclaimsSpace(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, 4096)
	for k := uint64(1); k <= 100; k++ {
		l.Put(k, 0, val(k, 100))
	}
	for k := uint64(1); k <= 100; k++ {
		if k%2 == 0 {
			l.Delete(k)
		} else {
			l.Put(k, 0, val(k+7, 100)) // re-put: old record dead
		}
	}
	before := l.LogBytes()
	segsBefore := l.Segments()
	// Two passes: the first may leave carried tombstones in the graveyard era.
	l.Compact()
	removed := l.Compact()
	_ = removed
	if l.LogBytes() >= before {
		t.Fatalf("LogBytes %d -> %d: compaction reclaimed nothing", before, l.LogBytes())
	}
	if l.Segments() >= segsBefore {
		t.Fatalf("Segments %d -> %d: compaction removed nothing", segsBefore, l.Segments())
	}
	now := time.Now().UnixNano()
	for k := uint64(1); k <= 100; k++ {
		v, _, _, ok := l.Get(k, nil, now)
		if k%2 == 0 {
			if ok {
				t.Fatalf("deleted key %d alive after compact", k)
			}
		} else if !ok || !bytes.Equal(v, val(k+7, 100)) {
			t.Fatalf("live key %d wrong after compact", k)
		}
	}
	// On-disk state must also survive a reopen after compaction.
	l.Close()
	l2 := openTest(t, dir, 4096)
	defer l2.Close()
	for k := uint64(1); k <= 100; k += 2 {
		v, _, _, ok := l2.Get(k, nil, now)
		if !ok || !bytes.Equal(v, val(k+7, 100)) {
			t.Fatalf("live key %d wrong after compact+reopen", k)
		}
	}
	if l2.Len() != 50 {
		t.Fatalf("Len = %d after compact+reopen, want 50", l2.Len())
	}
}

func TestPutIfConditional(t *testing.T) {
	l := openTest(t, t.TempDir(), 1<<20)
	defer l.Close()
	loc1, _ := l.Put(1, 0, val(1, 32))
	// Matching expectation: index repointed.
	ok, err := l.PutIf(1, 0, val(2, 32), loc1)
	if err != nil || !ok {
		t.Fatalf("PutIf with matching loc: ok=%v err=%v", ok, err)
	}
	v, _, _, _ := l.Get(1, nil, time.Now().UnixNano())
	if !bytes.Equal(v, val(2, 32)) {
		t.Fatal("PutIf did not publish")
	}
	// Stale expectation: index untouched.
	ok, err = l.PutIf(1, 0, val(3, 32), loc1)
	if err != nil || ok {
		t.Fatalf("PutIf with stale loc: ok=%v err=%v", ok, err)
	}
	v, _, _, _ = l.Get(1, nil, time.Now().UnixNano())
	if !bytes.Equal(v, val(2, 32)) {
		t.Fatal("stale PutIf clobbered the index")
	}
	// Absent key: no-op.
	if ok, _ := l.PutIf(42, 0, val(4, 8), Loc{Seg: 1, Off: 0, Len: 8}); ok {
		t.Fatal("PutIf on absent key succeeded")
	}
}

func TestConcurrentStress(t *testing.T) {
	l := openTest(t, t.TempDir(), 8192)
	defer l.Close()
	const keys = 64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	time.AfterFunc(100*time.Millisecond, func() { close(stop) })
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := uint64(g)
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := i % keys
				switch i % 5 {
				case 0, 1:
					l.Put(k, 0, val(k, 40))
				case 2:
					now := time.Now().UnixNano()
					if v, _, _, ok := l.Get(k, nil, now); ok {
						if len(v) != 40 || v[0] != byte(k) {
							panic(fmt.Sprintf("corrupt read for key %d", k))
						}
					}
				case 3:
					l.Delete(k)
				case 4:
					l.Compact()
				}
				i += 7
			}
		}(g)
	}
	wg.Wait()
}

func TestCloseIdempotent(t *testing.T) {
	l := openTest(t, t.TempDir(), 1<<20)
	l.Put(1, 0, val(1, 32))
	err1 := l.Close()
	// A second Close must not panic on the stop channel and must return
	// the first call's result.
	err2 := l.Close()
	if err1 != err2 {
		t.Fatalf("Close results differ: %v vs %v", err1, err2)
	}
	if _, err := l.Put(2, 0, val(2, 8)); err == nil {
		t.Fatal("Put after Close succeeded")
	}
}

func TestCloseRacingCompact(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		l := openTest(t, t.TempDir(), 2048)
		for k := uint64(1); k <= 60; k++ {
			l.Put(k, 0, val(k, 100))
		}
		for k := uint64(1); k <= 60; k += 2 {
			l.Delete(k)
		}
		var wg sync.WaitGroup
		wg.Add(3)
		go func() { defer wg.Done(); l.Compact() }()
		go func() { defer wg.Done(); l.Close() }()
		go func() { defer wg.Done(); l.Close() }()
		wg.Wait()
	}
}

// TestForeignFilesSkipped pins the segment-name parsing fix: prefix
// matches like seg-000001.log.tmp used to be replayed — and truncated! —
// as segment 1. Foreign files must be skipped untouched, and orphaned
// .tmp debris from our own tooling garbage-collected.
func TestForeignFilesSkipped(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, 1<<20)
	l.Put(1, 0, val(1, 64))
	l.Close()

	foreign := map[string][]byte{
		"seg-000001.logx":    []byte("not a segment"),
		"seg-00001.log":      []byte("too few digits"),
		"seg-.log":           []byte("no digits"),
		"notes.txt":          []byte("user file"),
		"index-000001.ckptx": []byte("not a checkpoint"),
	}
	for name, body := range foreign {
		if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Orphaned tmp files from a crashed checkpoint/rewrite: removed at open.
	orphans := []string{"seg-000001.log.tmp", "index-000002.ckpt.tmp"}
	for _, name := range orphans {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("half-written"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	l2 := openTest(t, dir, 1<<20)
	defer l2.Close()
	if l2.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (foreign files replayed?)", l2.Len())
	}
	if v, _, _, ok := l2.Get(1, nil, time.Now().UnixNano()); !ok || !bytes.Equal(v, val(1, 64)) {
		t.Fatal("live key lost")
	}
	for name, body := range foreign {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("foreign file %s modified or removed (err=%v)", name, err)
		}
	}
	for _, name := range orphans {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			t.Fatalf("orphan %s not garbage-collected", name)
		}
	}
}

func TestParseSegName(t *testing.T) {
	cases := map[string]struct {
		id uint32
		ok bool
	}{
		"seg-000001.log":     {1, true},
		"seg-123456.log":     {123456, true},
		"seg-4294967295.log": {4294967295, true},
		"seg-000000.log":     {0, false},
		"seg-000001.log.tmp": {0, false},
		"seg-000001.logx":    {0, false},
		"xseg-000001.log":    {0, false},
		"seg-00001.log":      {0, false}, // not canonical (5 digits)
		"seg-0000001.log":    {0, false}, // not canonical (padded 7 digits)
		"seg-abc001.log":     {0, false},
		"seg-4294967296.log": {0, false}, // > uint32
	}
	for name, want := range cases {
		id, ok := parseSegName(name)
		if ok != want.ok || (ok && id != want.id) {
			t.Errorf("parseSegName(%q) = (%d, %v), want (%d, %v)", name, id, ok, want.id, want.ok)
		}
	}
}

// TestTornSegmentHeaderRestamped crashes the log between creating its
// active segment and finishing the 8-byte magic. Every length short of the
// magic must reopen as an empty segment: the file leads with the magic
// again and every record appended afterwards carries a CRC.
func TestTornSegmentHeaderRestamped(t *testing.T) {
	for torn := 0; torn < int(segHeaderLen); torn++ {
		dir := t.TempDir()
		path := filepath.Join(dir, segName(1))
		if err := os.WriteFile(path, segMagic[:torn], 0o644); err != nil {
			t.Fatal(err)
		}
		l := openTest(t, dir, 1<<20)
		for k := uint64(1); k <= 3; k++ {
			if _, err := l.Put(k, 0, val(k, 40)); err != nil {
				t.Fatalf("torn=%d: Put(%d): %v", torn, k, err)
			}
		}
		crash(l)

		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// parseRecords insists on the magic and stops at the first record
		// whose checksum does not verify.
		recs := parseRecords(t, img)
		if len(recs) != 3 || recs[2].end != int64(len(img)) {
			t.Fatalf("torn=%d: %d checksummed records covering %d of %d bytes, want 3 covering all",
				torn, len(recs), recs[len(recs)-1].end, len(img))
		}
		l2 := openTest(t, dir, 1<<20)
		checkState(t, l2, recs[2].state, "torn-header="+itoa(int64(torn)))
		crash(l2)
	}
}

// TestForeignSegmentRefused: a file with a segment's exact name but not the
// magic must fail Open with an error that names it, and must keep every
// byte. The cases are a full-size checksum-less log, as the only segment
// and as a sealed one, and a sealed segment cut short of its header (only
// the active one can be torn there).
func TestForeignSegmentRefused(t *testing.T) {
	var plain []byte
	for k := uint64(1); k <= 2; k++ {
		rec := make([]byte, recSumOff+40)
		binary.LittleEndian.PutUint64(rec[1:9], k)
		binary.LittleEndian.PutUint32(rec[17:21], 40)
		copy(rec[recSumOff:], val(k, 40))
		plain = append(plain, rec...)
	}
	for _, tc := range []struct {
		name    string
		foreign []byte
		sealed  bool // a real segment 2 follows the foreign segment 1
	}{
		{"no-magic-active", plain, false},
		{"no-magic-sealed", plain, true},
		{"short-sealed", segMagic[:5], true},
	} {
		dir := t.TempDir()
		if tc.sealed {
			l := openTest(t, dir, 1<<20)
			if _, err := l.Put(9, 0, val(9, 40)); err != nil {
				t.Fatal(err)
			}
			crash(l)
			if err := os.Rename(filepath.Join(dir, segName(1)), filepath.Join(dir, segName(2))); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, segName(1))
		if err := os.WriteFile(path, tc.foreign, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(Options{Dir: dir, CompactInterval: -1, CheckpointInterval: -1})
		if err == nil || !strings.Contains(err.Error(), segName(1)) {
			t.Fatalf("%s: Open err = %v, want a refusal naming %s", tc.name, err, segName(1))
		}
		if got, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(got, tc.foreign) {
			t.Fatalf("%s: refused file was modified (%d bytes, was %d; %v)", tc.name, len(got), len(tc.foreign), rerr)
		}
	}
}

// TestDeletePutRaceReplayConsistent pins the Delete/Put ordering fix: the
// tombstone append now happens inside the stripe-lock critical section, so
// whatever state a racing Put and Delete leave in memory, replaying the
// log after a crash reproduces it exactly. Before the fix a Put could
// append its value record after the tombstone yet have its index entry
// deleted — reopen then resurrected the key.
func TestDeletePutRaceReplayConsistent(t *testing.T) {
	iters := 60
	if testing.Short() {
		iters = 10
	}
	for iter := 0; iter < iters; iter++ {
		dir := t.TempDir()
		l := openTest(t, dir, 1<<20)
		const key = uint64(7)
		l.Put(key, 0, val(1, 32))
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			l.Put(key, 0, val(2, 32))
		}()
		go func() {
			defer wg.Done()
			l.Delete(key)
		}()
		wg.Wait()
		memV, _, _, memOK := l.Get(key, nil, time.Now().UnixNano())
		memCopy := append([]byte(nil), memV...)
		crash(l)

		l2 := openTest(t, dir, 1<<20)
		v, _, _, ok := l2.Get(key, nil, time.Now().UnixNano())
		if ok != memOK {
			t.Fatalf("iter %d: replay disagrees with pre-crash memory: mem ok=%v, replay ok=%v",
				iter, memOK, ok)
		}
		if ok && !bytes.Equal(v, memCopy) {
			t.Fatalf("iter %d: replay value %v != pre-crash %v", iter, v[:4], memCopy[:4])
		}
		l2.Close()
	}
}
