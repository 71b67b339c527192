package seqitem

import (
	"bytes"
	"testing"

	"mutps/internal/arena"
)

func TestPoolRoundTrip(t *testing.T) {
	a := arena.New(0)
	p := NewPool(a.NewCache())
	it := NewIn(p, []byte("hello, arena"))
	if got := it.Read(nil); !bytes.Equal(got, []byte("hello, arena")) {
		t.Fatalf("Read = %q", got)
	}
	if it.Size() != 12 || it.SlotBytes() != 16 {
		t.Fatalf("Size %d, SlotBytes %d; want 12 in a 16-byte slot", it.Size(), it.SlotBytes())
	}
	if !it.Write([]byte("HELLO, ARENA")) {
		t.Fatal("same-size Write failed")
	}
	if got := it.Read(nil); !bytes.Equal(got, []byte("HELLO, ARENA")) {
		t.Fatalf("Read after Write = %q", got)
	}
	p.Recycle(it)
}

// TestPoolHeaderReuse checks a recycled item comes back with fully reset
// state: no stale dead/moved/viewGen/version bits survive reuse.
func TestPoolHeaderReuse(t *testing.T) {
	a := arena.New(0)
	p := NewPool(a.NewCache())
	it := NewIn(p, make([]byte, 24))
	it.Write(bytes.Repeat([]byte{0xAA}, 24)) // bump version via locked path
	repl := NewIn(p, make([]byte, 28))
	it.MoveTo(repl)
	it.Kill()
	it.MarkViewed(7)
	p.Recycle(it)

	it2 := NewIn(p, []byte("fresh"))
	if it2 != it {
		t.Fatal("header not reused LIFO")
	}
	if it2.Dead() {
		t.Error("recycled item still dead")
	}
	if it2.Latest() != it2 {
		t.Error("recycled item still moved")
	}
	if it2.ViewGen() != 0 {
		t.Error("recycled item kept viewGen")
	}
	if got := it2.Read(nil); !bytes.Equal(got, []byte("fresh")) {
		t.Errorf("recycled item Read = %q", got)
	}
}

// TestPoolSlotReuse checks the arena slot travels with the recycle: a
// same-class successor gets the retired item's words back.
func TestPoolSlotReuse(t *testing.T) {
	a := arena.New(0)
	c := a.NewCache()
	p := NewPool(c)
	it := NewIn(p, make([]byte, 24))
	p.Recycle(it)
	_ = NewIn(p, make([]byte, 28)) // same 32-byte class
	st := a.Snapshot()
	if st.LiveSlots[1] != 1 {
		t.Errorf("live 32B slots = %d, want 1 (slot reused)", st.LiveSlots[1])
	}
}

func TestPoolNilCacheFallsBack(t *testing.T) {
	p := NewPool(nil)
	it := NewIn(p, []byte("no arena"))
	if got := it.Read(nil); !bytes.Equal(got, []byte("no arena")) {
		t.Fatalf("Read = %q", got)
	}
	if it.SlotBytes() != 0 {
		t.Errorf("heap-backed item pins %d arena bytes", it.SlotBytes())
	}
	p.Recycle(it) // must not panic with no cache
}

func TestPoolLargeValueFallback(t *testing.T) {
	a := arena.New(0)
	p := NewPool(a.NewCache())
	big := bytes.Repeat([]byte{0x5C}, arena.MaxClassBytes+100)
	it := NewIn(p, big)
	if got := it.Read(nil); !bytes.Equal(got, big) {
		t.Fatal("large value round-trip failed")
	}
	if it.Size() != len(big) || it.SlotBytes() != 0 {
		t.Errorf("Size %d, SlotBytes %d; want %d on the heap", it.Size(), it.SlotBytes(), len(big))
	}
	p.Recycle(it)
	if st := a.Snapshot(); st.Fallbacks != 1 {
		t.Errorf("fallbacks = %d, want 1", st.Fallbacks)
	}
}

// TestPoolSteadyStateAllocFree: after warm-up, NewIn+Recycle of a
// same-class value allocates nothing.
func TestPoolSteadyStateAllocFree(t *testing.T) {
	a := arena.New(0)
	p := NewPool(a.NewCache())
	v24, v28 := make([]byte, 24), make([]byte, 28)
	for i := 0; i < 4; i++ { // warm up header + slot free lists
		p.Recycle(NewIn(p, v24))
	}
	allocs := testing.AllocsPerRun(200, func() {
		it := NewIn(p, v24)
		p.Recycle(it)
		it = NewIn(p, v28)
		p.Recycle(it)
	})
	if allocs != 0 {
		t.Errorf("AllocsPerRun = %v, want 0", allocs)
	}
}
