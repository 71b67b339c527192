package netserver

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"runtime"
	"testing"
	"time"

	"mutps/internal/kvcore"
)

// hostileCount is a payload whose entry count claims 2^32-1 entries and
// carries none: sizing a result from it before looking at the body was an
// unrecoverable out-of-memory crash (mget) or a map allocation that does
// not finish (stats2).
var hostileCount = []byte{0xff, 0xff, 0xff, 0xff}

// TestDecodersRejectHostileCount is the direct regression for the fuzz
// seeds: each decoder must refuse the hostile count having allocated next
// to nothing.
func TestDecodersRejectHostileCount(t *testing.T) {
	for _, d := range []struct {
		name     string
		minEntry int
		decode   func([]byte) error
	}{
		{"mget", 5, func(b []byte) error { _, _, err := DecodeMGet(b); return err }},
		{"stats2", 10, func(b []byte) error { _, err := decodeStats2(b); return err }},
		{"scan", 12, func(b []byte) error { _, err := decodeScan(b); return err }},
	} {
		// Not only the absurd count: one entry more than the body's bytes
		// could hold at the smallest entry size must be refused as well.
		oneOver := append([]byte{4, 0, 0, 0}, make([]byte, 3*d.minEntry)...)
		for _, body := range [][]byte{hostileCount, oneOver} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := d.decode(body)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%s: count %x over %d body bytes accepted", d.name, body[:4], len(body)-4)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
				t.Errorf("%s: rejecting count %x allocated %d bytes", d.name, body[:4], grew)
			}
		}
	}
}

func FuzzDecodeMGet(f *testing.F) {
	// Seeds come from the server's own encoders, which the targets also
	// round-trip against: here a found, a missing and an empty-valued key.
	seed := appendMGetEntry([]byte{3, 0, 0, 0}, true, []byte("value-1"))
	seed = appendMGetEntry(seed, false, nil)
	f.Add(appendMGetEntry(seed, true, nil))
	f.Add([]byte{0, 0, 0, 0})
	f.Add(hostileCount)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		vals, found, err := DecodeMGet(data)
		if err != nil {
			return
		}
		// What the decoder allocates is bounded by what it returns: at
		// most one entry per 5 body bytes, and values copied out of data.
		if len(vals) != len(found) || len(vals) > len(data)/5 {
			t.Fatalf("%d vals, %d found from %d bytes", len(vals), len(found), len(data))
		}
		enc := []byte{0, 0, 0, 0}
		total := 0
		for i, v := range vals {
			total += len(v)
			enc = appendMGetEntry(enc, found[i], v)
		}
		if total > len(data) {
			t.Fatalf("%d value bytes decoded from %d", total, len(data))
		}
		enc[0], enc[1], enc[2], enc[3] = data[0], data[1], data[2], data[3]
		vals2, found2, err := DecodeMGet(enc)
		if err != nil {
			t.Fatalf("server encoding of a decoded payload does not decode: %v", err)
		}
		for i := range vals {
			if found[i] != found2[i] || !bytes.Equal(vals[i], vals2[i]) {
				t.Fatalf("entry %d changed across encode/decode", i)
			}
		}
	})
}

func FuzzDecodeScan(f *testing.F) {
	seed := appendScanEntry([]byte{2, 0, 0, 0}, 1, []byte("value-1"))
	f.Add(appendScanEntry(seed, 3, nil))
	f.Add([]byte{0, 0, 0, 0})
	f.Add(hostileCount)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		kvs, err := decodeScan(data)
		if err != nil {
			return
		}
		if len(kvs) > len(data)/12 {
			t.Fatalf("%d entries from %d bytes", len(kvs), len(data))
		}
		enc := bytes.Clone(data[:4])
		for _, kv := range kvs {
			enc = appendScanEntry(enc, kv.Key, kv.Value)
		}
		// Scan entries have no skipped fields, so the server's encoding of
		// the decoded entries is the consumed prefix of data itself.
		if !bytes.HasPrefix(data, enc) {
			t.Fatalf("re-encoded scan differs from its input")
		}
	})
}

func FuzzDecodeStats2(f *testing.F) {
	// The seed is five real series, not all ~100 of one payload: the
	// fuzzer minimizes every interesting input, and on a 10 KB one that
	// eats its whole 60 s budget, several times the length of the CI
	// smoke. Full payloads are decoded from a live server by
	// TestStatsMapAgainstNewServer.
	names := []string{`mutps_ops_total{op="get"}`, `mutps_cr_requests_total{result="hit"}`,
		"mutps_forwarded_total", "mutps_items", "mutps_hotset_size"}
	seed := []byte{byte(len(names)), 0, 0, 0}
	for i, name := range names {
		seed = appendStat(seed, name, float64(i)*1.5)
	}
	f.Add(seed)
	f.Add(hostileCount)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeStats2(data)
		if err != nil {
			return
		}
		if len(m) > len(data)/10 {
			t.Fatalf("%d entries from %d bytes", len(m), len(data))
		}
		enc := []byte{byte(len(m)), byte(len(m) >> 8), byte(len(m) >> 16), byte(len(m) >> 24)}
		for name, v := range m {
			enc = appendStat(enc, name, v)
		}
		m2, err := decodeStats2(enc)
		if err != nil {
			t.Fatalf("server encoding of a decoded payload does not decode: %v", err)
		}
		if len(m2) != len(m) {
			t.Fatalf("%d entries became %d", len(m), len(m2))
		}
		for name, v := range m {
			if v2, ok := m2[name]; !ok || math.Float64bits(v) != math.Float64bits(v2) {
				t.Fatalf("entry %q changed across encode/decode", name)
			}
		}
	})
}

// FuzzServerFrames fuzzes the one server-side frame decoder (readLoop and
// fill) from the wire: an arbitrary byte stream sent to a live server in
// arbitrary pieces is answered exactly like the same stream sent in one
// write, with one response per complete frame up to the first whose length
// is over the limit — that one is answered "payload too large" and ends the
// connection — and the connection leaves no leased byte behind. The store
// is read-only for the run (submitHook refuses writes and stats), so what a
// frame is answered depends on nothing but the frame. On Linux the server
// parks idle connections, so the pieces also cross park and activation.
func FuzzServerFrames(f *testing.F) {
	store, err := kvcore.Open(kvcore.Config{Engine: kvcore.Hash, Workers: 3, CRWorkers: 1})
	if err != nil {
		f.Fatal(err)
	}
	for k := uint64(0); k < 256; k++ {
		store.Preload(k, bytes.Repeat([]byte{byte(k)}, int(k)))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	srv := ServeConfig(store, ln, Config{})
	readOnly := func(op byte, key uint64) error {
		switch op {
		case OpPut, OpPutTTL, OpDelete, OpStats2:
			return errors.New("read-only")
		}
		return nil
	}
	submitHook.Store(&readOnly)
	f.Cleanup(func() {
		submitHook.Store(nil)
		srv.Close()
		store.Close()
	})

	// TestMalformedFrameRejected's two cases, then frames that decode.
	unknown := reqFrame(200, 0, nil)
	oversized := reqFrame(OpPut, 7, nil)
	binary.LittleEndian.PutUint32(oversized[9:13], maxPayload+1)
	f.Add(unknown, []byte{5})
	f.Add(append(bytes.Clone(unknown), oversized...), []byte{13, 20})
	valid := append(reqFrame(OpGet, 3, nil), reqFrame(OpPut, 9, []byte("value"))...)
	valid = append(valid, reqFrame(OpMGet, 0, AppendMGetRequest(nil, []uint64{1, 999, 2}))...)
	valid = append(valid, reqFrame(OpScan, 0, []byte{4, 0, 0, 0})...)
	f.Add(valid, []byte{1, 12, 3, 40})
	f.Add(append(valid, oversized[:9]...), []byte{200}) // ends mid-header

	f.Fuzz(func(t *testing.T, stream, steps []byte) {
		// What the stream holds, by a parser that shares nothing with the
		// server's: complete frames, up to an oversized one.
		frames, fatal := 0, false
		for b := stream; len(b) >= 13 && !fatal; frames++ {
			plen := binary.LittleEndian.Uint32(b[9:13])
			if fatal = plen > maxPayload; !fatal {
				if uint64(len(b)-13) < uint64(plen) {
					break
				}
				b = b[13+plen:]
			}
		}
		var cuts []int
		for off, i := 0, 0; i < len(steps) && i < 8; i++ {
			if off += 1 + int(steps[i]); off >= len(stream) {
				break
			}
			cuts = append(cuts, off)
		}
		// The first pause straddles the park decision, the rest only keep
		// the pieces from coalescing.
		pauses := 0
		pause := func() time.Duration {
			if pauses++; pauses == 1 {
				return 3 * parkAfter
			}
			return 50 * time.Microsecond
		}
		addr := srv.Addr().String()
		want := converse(t, addr, stream, nil, nil)
		got := converse(t, addr, stream, cuts, pause)
		if !bytes.Equal(got, want) {
			t.Fatalf("cut at %v: %d response bytes differ from the %d of one write", cuts, len(got), len(want))
		}
		n, last := 0, []byte(nil)
		for b := want; len(b) >= 5; n++ {
			end := 5 + int(binary.LittleEndian.Uint32(b[1:5]))
			if end > len(b) {
				t.Fatalf("response %d is cut short", n)
			}
			last, b = b[:end], b[end:]
		}
		if n != frames {
			t.Fatalf("%d responses to %d frames", n, frames)
		}
		if fatal && (last[0] != StatusError || !bytes.Equal(last[5:], errMsgPayloadTooLarge)) {
			t.Fatalf("oversized frame answered %d %q", last[0], last[5:])
		}
		if !eventually(5*time.Second, func() bool { return srv.leaser.LeasedBytes() == 0 }) {
			t.Fatalf("%d bytes still leased after both connections ended", srv.leaser.LeasedBytes())
		}
	})
}
