package kvcore

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

// lcVal is the deterministic value oracle for lifecycle tests: any read of
// key k must return exactly lcVal(k, n) for one of the sizes the test
// writes, whatever tier (hot set, index, cold log, promotion) served it.
func lcVal(k uint64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(k*131 + uint64(i)*7)
	}
	return b
}

func lcSize(k uint64) int {
	if k%8 == 0 {
		return 8 // single-word items: the no-lock write path and spill fixups
	}
	return 24 + int(k%64)
}

func TestTTLExpiry(t *testing.T) {
	for _, engine := range []Engine{Hash, Tree} {
		t.Run(engine.String(), func(t *testing.T) {
			s := openTest(t, engine, nil)
			if err := s.PutTTL(1, lcVal(1, 32), 60*time.Millisecond); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(2, lcVal(2, 32)); err != nil {
				t.Fatal(err)
			}
			v, ok, _ := s.Get(1)
			if !ok || !bytes.Equal(v, lcVal(1, 32)) {
				t.Fatal("unexpired key must hit")
			}
			time.Sleep(80 * time.Millisecond)
			if _, ok, _ := s.Get(1); ok {
				t.Fatal("expired key still readable")
			}
			if _, ok, _ := s.Get(1); ok {
				t.Fatal("expired key readable on second get")
			}
			if v, ok, _ := s.Get(2); !ok || !bytes.Equal(v, lcVal(2, 32)) {
				t.Fatal("TTL-free key must survive")
			}
			// The first expired get lazily unlinked the item.
			if s.met.expired.Value() == 0 {
				t.Fatal("lazy expiry did not unlink")
			}
			if found, _ := s.Delete(1); found {
				t.Fatal("delete of expired key must report not-found")
			}
		})
	}
}

func TestDefaultTTL(t *testing.T) {
	s := openTest(t, Hash, func(c *Config) { c.DefaultTTL = 50 * time.Millisecond })
	s.Put(7, lcVal(7, 16))
	if _, ok, _ := s.Get(7); !ok {
		t.Fatal("fresh key must hit")
	}
	time.Sleep(70 * time.Millisecond)
	if _, ok, _ := s.Get(7); ok {
		t.Fatal("default TTL did not expire the key")
	}
}

func TestPutRefreshesTTL(t *testing.T) {
	s := openTest(t, Hash, nil)
	s.PutTTL(3, lcVal(3, 16), 50*time.Millisecond)
	// An explicit TTL-free overwrite clears the deadline (same size: the
	// in-place path must clear it too, not just replacements).
	s.Put(3, lcVal(3, 16))
	time.Sleep(70 * time.Millisecond)
	if _, ok, _ := s.Get(3); !ok {
		t.Fatal("overwrite did not clear the TTL")
	}
	// A refresh pushes the deadline out.
	s.PutTTL(4, lcVal(4, 16), 40*time.Millisecond)
	time.Sleep(25 * time.Millisecond)
	s.PutTTL(4, lcVal(4, 16), 200*time.Millisecond)
	time.Sleep(40 * time.Millisecond)
	if _, ok, _ := s.Get(4); !ok {
		t.Fatal("TTL refresh did not extend the deadline")
	}
}

func TestGetTTLRemaining(t *testing.T) {
	s := openTest(t, Hash, nil)
	s.PutTTL(1, lcVal(1, 16), time.Hour)
	s.Put(2, lcVal(2, 16))
	_, ttl, ok, err := s.GetTTL(1)
	if err != nil || !ok {
		t.Fatalf("GetTTL(1): ok=%v err=%v", ok, err)
	}
	if ttl <= 0 || ttl > time.Hour {
		t.Fatalf("remaining ttl %v out of range", ttl)
	}
	if _, ttl, ok, _ := s.GetTTL(2); !ok || ttl != 0 {
		t.Fatalf("TTL-free key: ok=%v ttl=%v, want hit with 0", ok, ttl)
	}
	if _, _, ok, _ := s.GetTTL(3); ok {
		t.Fatal("absent key must miss")
	}
}

// TestBudgetHeldUnderChurn writes a keyspace several times larger than the
// memory budget (no cold tier: values drop) and asserts the evictor keeps
// budgeted live bytes at the watermark once churn settles.
func TestBudgetHeldUnderChurn(t *testing.T) {
	const budget = 96 << 10
	s := openTest(t, Hash, func(c *Config) {
		c.MemoryBudget = budget
	})
	const keys = 4096 // ≈ 4× budget at ~100B/slot
	for round := 0; round < 2; round++ {
		for k := uint64(0); k < keys; k++ {
			if err := s.Put(k, lcVal(k, lcSize(k))); err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.BudgetedBytes() > budget && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.BudgetedBytes(); got > budget {
		t.Fatalf("budgeted bytes %d still above budget %d", got, budget)
	}
	if n := s.idx.Len(); n >= keys {
		t.Fatalf("no evictions: %d items indexed", n)
	}
}

// TestColdTierServesEvicted is the acceptance-core test: with a keyspace
// ~4× the budget and a cold tier attached, every key must read back its
// exact value — from RAM or, after eviction, from the SSD log — and cold
// hits must promote back into RAM.
func TestColdTierServesEvicted(t *testing.T) {
	const budget = 96 << 10
	s := openTest(t, Hash, func(c *Config) {
		c.MemoryBudget = budget
		c.ColdDir = t.TempDir()
	})
	const keys = 4096
	for k := uint64(0); k < keys; k++ {
		if err := s.Put(k, lcVal(k, lcSize(k))); err != nil {
			t.Fatal(err)
		}
	}
	if s.met.spills.Value() == 0 {
		// The keyspace is 4× the budget, so spills must have happened by
		// the time the last put returns or shortly after.
		deadline := time.Now().Add(2 * time.Second)
		for s.met.spills.Value() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if s.met.spills.Value() == 0 {
			t.Fatal("nothing spilled to the cold tier")
		}
	}
	for k := uint64(0); k < keys; k++ {
		v, ok, err := s.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("key %d lost (neither RAM nor cold)", k)
		}
		if want := lcVal(k, lcSize(k)); !bytes.Equal(v, want) {
			t.Fatalf("key %d corrupt: got %d bytes", k, len(v))
		}
	}
	if s.met.coldHits.Value() == 0 {
		t.Fatal("full read-back never hit the cold tier")
	}
	if s.met.promotes.Value() == 0 {
		t.Fatal("cold hits never promoted")
	}
}

// TestColdPromotionServesFromRAM verifies a promoted key is indexed again:
// the second get must not consult the cold tier.
func TestColdPromotionServesFromRAM(t *testing.T) {
	s := openTest(t, Hash, func(c *Config) {
		c.MemoryBudget = 32 << 10
		c.ColdDir = t.TempDir()
	})
	const keys = 2048
	for k := uint64(0); k < keys; k++ {
		s.Put(k, lcVal(k, 64))
	}
	// Let the evictor settle below the watermark first: while live bytes
	// still exceed the budget, a freshly promoted key is itself a prime
	// re-eviction candidate and the second probe would miss RAM again.
	deadline := time.Now().Add(5 * time.Second)
	for s.BudgetedBytes() > (32<<10)-4096 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	// Find a key that was evicted (absent from RAM, present in cold).
	var victim uint64
	found := false
	for k := uint64(0); k < keys && !found; k++ {
		if _, ok := s.idx.Get(k); !ok && s.cold.Has(k) {
			victim, found = k, true
		}
	}
	if !found {
		t.Skip("no fully evicted key to probe (eviction raced the scan)")
	}
	if v, ok, _ := s.Get(victim); !ok || !bytes.Equal(v, lcVal(victim, 64)) {
		t.Fatal("cold get wrong")
	}
	hits := s.met.coldHits.Value()
	if v, ok, _ := s.Get(victim); !ok || !bytes.Equal(v, lcVal(victim, 64)) {
		t.Fatal("promoted get wrong")
	}
	if s.met.coldHits.Value() != hits {
		t.Fatal("second get consulted the cold tier: promotion did not index the key")
	}
}

// TestExpiredNeverSpills: evicting an expired item drops it and clears any
// cold shadow instead of spilling a dead value.
func TestExpiredNeverSpills(t *testing.T) {
	// No MemoryBudget: the evictor goroutine (the sole legal EvictKey
	// caller) never starts, so the test may drive EvictKey itself.
	s := openTest(t, Hash, func(c *Config) { c.ColdDir = t.TempDir() })
	s.PutTTL(5, lcVal(5, 32), 20*time.Millisecond)
	time.Sleep(40 * time.Millisecond)
	if _, ok := s.EvictKey(5); !ok {
		t.Fatal("EvictKey missed an indexed key")
	}
	if s.cold.Has(5) {
		t.Fatal("expired value spilled to the cold tier")
	}
	if _, ok, _ := s.Get(5); ok {
		t.Fatal("expired evicted key resurrected")
	}
}

// TestLifecycleChurnStress races TTL expiry, same-size in-place writes,
// replacement puts, deletes, eviction, spilling, and promotion under the
// race detector. Every observed value must match the (key, size) oracle —
// a torn read, a cross-key promotion, or a use-after-recycle shows up as a
// pattern mismatch or a race report.
func TestLifecycleChurnStress(t *testing.T) {
	s := openTest(t, Hash, func(c *Config) {
		c.MemoryBudget = 48 << 10
		c.ColdDir = t.TempDir()
		c.HotItems = 64
		c.RefreshInterval = 5 * time.Millisecond
	})
	const keys = 512
	dur := 300 * time.Millisecond
	if testing.Short() {
		dur = 50 * time.Millisecond
	}
	stop := make(chan struct{})
	time.AfterFunc(dur, func() { close(stop) })
	var wg sync.WaitGroup
	fail := make(chan string, 8)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := uint64(g)
			buf := make([]byte, 0, 128)
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := i % keys
				switch i % 7 {
				case 0, 1:
					s.Put(k, lcVal(k, lcSize(k)))
				case 2:
					// Alternate size: forces replacement instead of in-place.
					s.Put(k, lcVal(k, lcSize(k)+16))
				case 3:
					s.PutTTL(k, lcVal(k, lcSize(k)), time.Duration(1+k%3)*time.Millisecond)
				case 4, 5:
					v, ok, err := s.GetInto(k, buf)
					if err == nil && ok {
						n := len(v)
						if n != lcSize(k) && n != lcSize(k)+16 {
							select {
							case fail <- "unexpected value size":
							default:
							}
							return
						}
						if !bytes.Equal(v, lcVal(k, n)) {
							select {
							case fail <- "value does not match oracle":
							default:
							}
							return
						}
					}
					buf = v[:0]
				default:
					s.Delete(k)
				}
				i += 13
			}
		}(g)
	}
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
}
