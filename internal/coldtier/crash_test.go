package coldtier

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// parseRecords is the test's independent oracle for the v2 segment format:
// it decodes whole records from a raw segment image and returns, for every
// record, the byte offset at which it ends plus the last-record-wins state
// of the prefix up to and including it.
type recState struct {
	end   int64
	state map[uint64][]byte // key -> value, absent = deleted/never written
}

func parseRecords(t *testing.T, img []byte) []recState {
	t.Helper()
	if len(img) < int(segHeaderLen) || [8]byte(img[:8]) != segMagic {
		t.Fatal("oracle: segment does not start with the magic")
	}
	state := map[uint64][]byte{}
	var out []recState
	off := segHeaderLen
	for off+recHeaderLen <= int64(len(img)) {
		h := img[off : off+recHeaderLen]
		kind := h[0]
		key := binary.LittleEndian.Uint64(h[1:9])
		vlen := int64(binary.LittleEndian.Uint32(h[17:21]))
		if (kind != recValue && kind != recTombstone) || off+recHeaderLen+vlen > int64(len(img)) {
			break
		}
		val := img[off+recHeaderLen : off+recHeaderLen+vlen]
		if recordSum(h, val) != binary.LittleEndian.Uint32(h[recSumOff:]) {
			break
		}
		if kind == recTombstone {
			delete(state, key)
		} else {
			state[key] = append([]byte(nil), val...)
		}
		off += recHeaderLen + vlen
		snap := make(map[uint64][]byte, len(state))
		for k, v := range state {
			snap[k] = v
		}
		out = append(out, recState{end: off, state: snap})
	}
	return out
}

// checkState asserts the reopened log serves exactly want.
func checkState(t *testing.T, l *Log, want map[uint64][]byte, tag string) {
	t.Helper()
	if l.Len() != len(want) {
		t.Fatalf("%s: Len = %d, want %d", tag, l.Len(), len(want))
	}
	now := time.Now().UnixNano()
	for k, wv := range want {
		v, _, _, ok := l.Get(k, nil, now)
		if !ok || !bytes.Equal(v, wv) {
			t.Fatalf("%s: key %d wrong (ok=%v)", tag, k, ok)
		}
	}
}

// buildTornWorkload writes a small mixed workload into one segment and
// returns the dir and the raw segment image.
func buildTornWorkload(t *testing.T) (string, []byte) {
	t.Helper()
	dir := t.TempDir()
	l := openTest(t, dir, 1<<20)
	for k := uint64(1); k <= 12; k++ {
		l.Put(k, 0, val(k, 3+int(k)*5))
	}
	l.Delete(3)
	l.Put(5, 0, val(500, 20))
	l.Delete(8)
	l.Put(3, 0, val(300, 9)) // re-put after delete
	crash(l)
	img, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	return dir, img
}

// TestTornTailEveryByteBoundary truncates the segment at every byte offset
// and asserts the reopened index is exactly the last-record-wins view of
// the longest whole-record prefix — no panic, no resurrection, no skipped
// surviving record.
func TestTornTailEveryByteBoundary(t *testing.T) {
	_, img := buildTornWorkload(t)
	recs := parseRecords(t, img)
	if len(recs) != 16 {
		t.Fatalf("oracle parsed %d records, want 16", len(recs))
	}

	prefixState := func(n int64) map[uint64][]byte {
		st := map[uint64][]byte{}
		for _, r := range recs {
			if r.end <= n {
				st = r.state
			}
		}
		cp := make(map[uint64][]byte, len(st))
		for k, v := range st {
			cp[k] = v
		}
		return cp
	}

	step := int64(1)
	if testing.Short() {
		step = 17 // prime stride still hits mid-header, mid-value, boundaries
	}
	for cut := segHeaderLen; cut <= int64(len(img)); cut += step {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), img[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l := openTest(t, dir, 1<<20)
		checkState(t, l, prefixState(cut), "cut@"+itoa(cut))
		// The torn bytes must be gone: appending and reopening again stays
		// consistent.
		l.Put(9999, 0, val(9999, 11))
		crash(l)
		l2 := openTest(t, dir, 1<<20)
		want := prefixState(cut)
		want[9999] = val(9999, 11)
		checkState(t, l2, want, "cut+append@"+itoa(cut))
		crash(l2)
	}
}

// TestCorruptTailEveryByte flips one byte at every offset in the record
// area. Replay must stop at the record containing the flip (its checksum no
// longer matches) and serve exactly the records before it.
func TestCorruptTailEveryByte(t *testing.T) {
	_, img := buildTornWorkload(t)
	recs := parseRecords(t, img)

	// State of all records that end at or before byte i — the guaranteed
	// surviving prefix when byte i is corrupted.
	stateBefore := func(i int64) map[uint64][]byte {
		st := map[uint64][]byte{}
		for _, r := range recs {
			if r.end <= i {
				st = r.state
			}
		}
		return st
	}

	step := int64(1)
	if testing.Short() {
		step = 13
	}
	for i := segHeaderLen; i < int64(len(img)); i += step {
		dir := t.TempDir()
		mut := append([]byte(nil), img...)
		mut[i] ^= 0xA5
		if err := os.WriteFile(filepath.Join(dir, segName(1)), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		l := openTest(t, dir, 1<<20)
		checkState(t, l, stateBefore(i), "flip@"+itoa(i))
		crash(l)
	}
}

// TestWriteHookCrashMidAppend drives the failpoint: the hook persists only
// a prefix of the Nth record and fails the append, simulating a process
// killed mid-write. The torn record must be invisible both to the running
// log and after reopen.
func TestWriteHookCrashMidAppend(t *testing.T) {
	errBoom := errors.New("injected crash")
	for _, torn := range []int{0, 1, recSumOff, recHeaderLen, recHeaderLen + 5} {
		dir := t.TempDir()
		writes := 0
		crashAfter := 5
		l, err := Open(Options{Dir: dir, SegmentBytes: 1 << 20,
			CompactInterval: -1, CheckpointInterval: -1,
			WriteHook: func(rec []byte) (int, error) {
				writes++
				if writes > crashAfter {
					return torn, errBoom
				}
				return len(rec), nil
			}})
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(1); k <= 5; k++ {
			if _, err := l.Put(k, 0, val(k, 40)); err != nil {
				t.Fatalf("pre-crash Put(%d): %v", k, err)
			}
		}
		if _, err := l.Put(6, 0, val(6, 40)); !errors.Is(err, errBoom) {
			t.Fatalf("failpoint Put: err = %v, want injected crash", err)
		}
		if _, _, _, ok := l.Get(6, nil, time.Now().UnixNano()); ok {
			t.Fatal("torn record visible in the running index")
		}
		crash(l)

		l2 := openTest(t, dir, 1<<20)
		want := map[uint64][]byte{}
		for k := uint64(1); k <= 5; k++ {
			want[k] = val(k, 40)
		}
		checkState(t, l2, want, "torn="+itoa(int64(torn)))
		if torn > 0 && l2.recTorn.Load() != 1 {
			t.Fatalf("torn=%d: recTorn = %d, want 1 truncation", torn, l2.recTorn.Load())
		}
		// Appends continue over the truncated tail.
		if _, err := l2.Put(7, 0, val(7, 40)); err != nil {
			t.Fatal(err)
		}
		crash(l2)
		l3 := openTest(t, dir, 1<<20)
		want[7] = val(7, 40)
		checkState(t, l3, want, "torn-reopen="+itoa(int64(torn)))
		crash(l3)
	}
}

// TestWriteHookCrashDuringDelete: the crash hits the tombstone append. The
// delete fails, the key stays live, and reopen agrees.
func TestWriteHookCrashDuringDelete(t *testing.T) {
	errBoom := errors.New("injected crash")
	dir := t.TempDir()
	armed := false
	l, err := Open(Options{Dir: dir, SegmentBytes: 1 << 20,
		CompactInterval: -1, CheckpointInterval: -1,
		WriteHook: func(rec []byte) (int, error) {
			if armed && rec[0] == recTombstone {
				return 3, errBoom // torn tombstone prefix on disk
			}
			return len(rec), nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	l.Put(1, 0, val(1, 32))
	armed = true
	if l.Delete(1) {
		t.Fatal("Delete reported success despite failed tombstone append")
	}
	if _, _, _, ok := l.Get(1, nil, time.Now().UnixNano()); !ok {
		t.Fatal("key vanished from index though its tombstone never landed")
	}
	crash(l)
	l2 := openTest(t, dir, 1<<20)
	defer crash(l2)
	if v, _, _, ok := l2.Get(1, nil, time.Now().UnixNano()); !ok || !bytes.Equal(v, val(1, 32)) {
		t.Fatal("reopen disagrees: key must survive a failed delete")
	}
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
