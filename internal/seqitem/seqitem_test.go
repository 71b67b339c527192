package seqitem

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"mutps/internal/arena"
)

func TestNewAndRead(t *testing.T) {
	for _, val := range [][]byte{nil, {}, []byte("a"), []byte("12345678"), []byte("a longer value spanning words")} {
		it := New(val)
		if it.Size() != len(val) {
			t.Fatalf("Size = %d, want %d", it.Size(), len(val))
		}
		got := it.Read(nil)
		if !bytes.Equal(got, val) {
			t.Fatalf("Read = %q, want %q", got, val)
		}
	}
}

func TestWriteSameSize(t *testing.T) {
	it := New([]byte("hello, world!!"))
	if !it.Write([]byte("HELLO, WORLD??")) {
		t.Fatal("same-size write must succeed")
	}
	if got := it.Read(nil); string(got) != "HELLO, WORLD??" {
		t.Fatalf("Read = %q", got)
	}
}

func TestWriteSizeMismatchRejected(t *testing.T) {
	it := New([]byte("eight by"))
	if it.Write([]byte("nine byte")) {
		t.Fatal("size-changing write must be rejected")
	}
	if got := it.Read(nil); string(got) != "eight by" {
		t.Fatal("rejected write must not modify the item")
	}
}

func TestSmallItemWordPath(t *testing.T) {
	it := New([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	if it.ReadUint64() != 0x0807060504030201 {
		t.Fatalf("ReadUint64 = %#x", it.ReadUint64())
	}
	it.Write([]byte{8, 7, 6, 5, 4, 3, 2, 1})
	if it.ReadUint64() != 0x0102030405060708 {
		t.Fatalf("after write ReadUint64 = %#x", it.ReadUint64())
	}
}

func TestReadReusesBuffer(t *testing.T) {
	it := New([]byte("0123456789"))
	buf := make([]byte, 0, 64)
	out := it.Read(buf)
	if &out[0] != &buf[:1][0] {
		t.Fatal("Read must reuse a large-enough buffer")
	}
}

func TestReadRoundTripProperty(t *testing.T) {
	f := func(val []byte) bool {
		it := New(val)
		next := make([]byte, len(val))
		for i := range next {
			next[i] = val[i] ^ 0xFF
		}
		if !it.Write(next) {
			return false
		}
		return bytes.Equal(it.Read(nil), next)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestNoTornReads hammers one item with writers that each write a value
// filled with a single repeated byte; readers must never observe a mix of
// fill bytes. The sizes put the last partial word (9, 63, 509 B) under the
// writers as well as a whole-word value (256 B).
func TestNoTornReads(t *testing.T) {
	for _, size := range []int{9, 63, 256, 509} {
		t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) { testNoTornReads(t, size) })
	}
}

func testNoTornReads(t *testing.T, size int) {
	it := New(make([]byte, size))
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			val := bytes.Repeat([]byte{byte(w + 1)}, size)
			for {
				select {
				case <-stop:
					return
				default:
					it.Write(val)
					// Yield, so readers are not starved on a small host:
					// the lock is then free often, but never for long.
					runtime.Gosched()
				}
			}
		}(w)
	}
	torn := make(chan []byte, 4)
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			buf := make([]byte, 0, size)
			for i := 0; i < 20000; i++ {
				got := it.Read(buf)
				for _, b := range got {
					if b != got[0] {
						torn <- append([]byte(nil), got...)
						return
					}
				}
			}
		}()
	}
	// Readers exit by iteration count, then the writers are stopped.
	readers.Wait()
	close(stop)
	writers.Wait()
	close(torn)
	for got := range torn {
		t.Fatalf("torn read of a %d-byte item: %x", size, got)
	}
}

// TestWordCopyRoundTrip checks the word-at-a-time copy at every value size
// an arena slot holds and two heap sizes past it: each size is written at
// creation, read back, rewritten in place and read again, always into a
// destination pre-filled with garbage, and the bytes past the value in
// that destination must stay untouched.
func TestWordCopyRoundTrip(t *testing.T) {
	a := arena.New(0)
	p := NewPool(a.NewCache())
	sizes := make([]int, 0, arena.MaxClassBytes+3)
	for n := 0; n <= arena.MaxClassBytes; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, arena.MaxClassBytes+1, 2*arena.MaxClassBytes-1)
	const guard = 16
	dst := make([]byte, 2*arena.MaxClassBytes+guard)
	check := func(it *Item, want []byte) {
		t.Helper()
		n := len(want)
		for i := range dst {
			dst[i] = 0xA5
		}
		if got := it.Read(dst[:0]); !bytes.Equal(got, want) {
			t.Fatalf("n=%d: Read = %x, want %x", n, got, want)
		}
		for i, b := range dst[n : n+guard] {
			if b != 0xA5 {
				t.Fatalf("n=%d: Read wrote byte %d past the value", n, n+i)
			}
		}
	}
	for _, n := range sizes {
		val := make([]byte, n)
		next := make([]byte, n)
		for i := range val {
			val[i] = byte(i*7 + n)
			next[i] = ^val[i]
		}
		it := NewIn(p, val)
		check(it, val)
		if !it.Write(next) {
			t.Fatalf("n=%d: same-size Write refused", n)
		}
		check(it, next)
		p.Recycle(it)
	}
}

// TestSmallItemConcurrentWrites checks last-writer-wins word semantics.
func TestSmallItemConcurrentWrites(t *testing.T) {
	it := New(make([]byte, 8))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			val := bytes.Repeat([]byte{byte(w)}, 8)
			for i := 0; i < 10000; i++ {
				it.Write(val)
				got := it.Read(nil)
				fill := got[0]
				for _, b := range got {
					if b != fill {
						panic("torn small read")
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// benchSizes are the value sizes the item benchmarks copy: the one-word
// fast path, the benchmark's 64 B values and two sizes that end in a
// partial word, the mean and the top of its 64–512 B put mix.
var benchSizes = []int{8, 64, 288, 509}

func BenchmarkWrite(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			it := New(make([]byte, n))
			val := bytes.Repeat([]byte{7}, n)
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				it.Write(val)
			}
		})
	}
}

func BenchmarkRead(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			it := New(bytes.Repeat([]byte{7}, n))
			buf := make([]byte, n)
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				it.Read(buf)
			}
		})
	}
}

func TestMoveToChainConvergence(t *testing.T) {
	a := New([]byte("aaaa"))
	b := New([]byte("bbbbbbbb"))
	c := New([]byte("cccccccccccc"))
	a.MoveTo(b)
	b.MoveTo(c)
	// All operations on the stale head follow the chain to the newest record.
	if a.Latest() != c {
		t.Fatal("Latest must follow the whole chain")
	}
	if got := a.Read(nil); string(got) != "cccccccccccc" {
		t.Fatalf("Read through chain = %q", got)
	}
	if a.Size() != 12 {
		t.Fatalf("Size through chain = %d", a.Size())
	}
	if !a.Write([]byte("CCCCCCCCCCCC")) {
		t.Fatal("same-size write through chain must succeed")
	}
	if got := c.Read(nil); string(got) != "CCCCCCCCCCCC" {
		t.Fatal("write through chain must land on the newest record")
	}
	// Size mismatch still rejected at the newest record.
	if a.Write([]byte("short")) {
		t.Fatal("size-changing write must be rejected through the chain")
	}
}

func TestKillAndDeadThroughChain(t *testing.T) {
	a := New([]byte("aaaa"))
	if a.Dead() {
		t.Fatal("fresh item must be alive")
	}
	b := New([]byte("bbbb"))
	a.MoveTo(b)
	b.Kill()
	if !a.Dead() {
		t.Fatal("death must be visible through the chain")
	}
	// Resurrection: a new record replaces the dead one.
	c := New([]byte("cccc"))
	b.MoveTo(c)
	if a.Dead() {
		t.Fatal("chain ending in a live record must be alive")
	}
}

func TestConcurrentMoveAndRead(t *testing.T) {
	head := New(bytes.Repeat([]byte{1}, 32))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	cur := head
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 2; i < 100; i++ {
			n := New(bytes.Repeat([]byte{byte(i)}, 32))
			cur.MoveTo(n)
			cur = n
		}
		close(stop)
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 0, 32)
			for {
				got := head.Read(buf)
				fill := got[0]
				for _, x := range got {
					if x != fill {
						panic("mixed-generation read through a moving chain")
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	if head.Read(nil)[0] != 99 {
		t.Fatal("chain must end at the last record")
	}
}
