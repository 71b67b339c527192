package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Values are self-describing so that every get and every scan entry can be
// checked without the client keeping a shadow map of what it wrote:
//
//	[0:8]   key (little endian)
//	[8:12]  version (which write produced it)
//	[12:16] total length
//	[16:n-4] filler derived from key and version
//	[n-4:n] CRC-32C of everything before it
//
// Any value ever written under a key verifies under that key, so a get that
// races a put is correct whichever of the two it returns; a torn, truncated
// or misrouted value is not.
const minValueLen = 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeValue builds the n-byte value for (key, version) into dst[:0].
func encodeValue(dst []byte, key uint64, version uint32, n int) []byte {
	if n < minValueLen {
		n = minValueLen
	}
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	dst = dst[:n]
	binary.LittleEndian.PutUint64(dst[0:], key)
	binary.LittleEndian.PutUint32(dst[8:], version)
	binary.LittleEndian.PutUint32(dst[12:], uint32(n))
	x := key*0x9E3779B97F4A7C15 ^ uint64(version)
	i := 16
	for ; i+8 <= n-4; i += 8 {
		x = x*0xBF58476D1CE4E5B9 + 1
		binary.LittleEndian.PutUint64(dst[i:], x)
	}
	for ; i < n-4; i++ {
		x = x*0xBF58476D1CE4E5B9 + 1
		dst[i] = byte(x >> 56)
	}
	binary.LittleEndian.PutUint32(dst[n-4:], crc32.Checksum(dst[:n-4], castagnoli))
	return dst
}

// verifyValue reports why v is not a value written under key, or nil.
func verifyValue(key uint64, v []byte) error {
	n := len(v)
	if n < minValueLen {
		return fmt.Errorf("value of %d bytes is shorter than the %d-byte header", n, minValueLen)
	}
	if k := binary.LittleEndian.Uint64(v); k != key {
		return fmt.Errorf("value belongs to key %d", k)
	}
	if l := binary.LittleEndian.Uint32(v[12:]); int(l) != n {
		return fmt.Errorf("value says it is %d bytes, got %d", l, n)
	}
	if crc32.Checksum(v[:n-4], castagnoli) != binary.LittleEndian.Uint32(v[n-4:]) {
		return fmt.Errorf("checksum mismatch (version %d)", binary.LittleEndian.Uint32(v[8:]))
	}
	return nil
}

// verifyScan checks a scan response body (count, then key/len/value
// triples): at most asked entries, keys strictly ascending and >= start,
// every value self-consistent under its key. It returns the entry count.
func verifyScan(start uint64, asked int, body []byte) (int, error) {
	if len(body) < 4 {
		return 0, fmt.Errorf("scan response of %d bytes has no count", len(body))
	}
	n := int(binary.LittleEndian.Uint32(body))
	body = body[4:]
	if n > asked {
		return n, fmt.Errorf("scan returned %d entries, asked for %d", n, asked)
	}
	prev := start
	for i := 0; i < n; i++ {
		if len(body) < 12 {
			return n, fmt.Errorf("scan entry %d truncated", i)
		}
		key := binary.LittleEndian.Uint64(body)
		vlen := int(binary.LittleEndian.Uint32(body[8:]))
		body = body[12:]
		if len(body) < vlen {
			return n, fmt.Errorf("scan entry %d value truncated", i)
		}
		if key < prev || (i > 0 && key == prev) {
			return n, fmt.Errorf("scan entry %d key %d out of order after %d", i, key, prev)
		}
		if err := verifyValue(key, body[:vlen]); err != nil {
			return n, fmt.Errorf("scan entry %d key %d: %w", i, key, err)
		}
		prev = key
		body = body[vlen:]
	}
	if len(body) != 0 {
		return n, fmt.Errorf("scan response has %d trailing bytes", len(body))
	}
	return n, nil
}
