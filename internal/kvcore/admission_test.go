package kvcore

import "testing"

// TestEvictionVetoesHotSetAdmission: a key the evictor chose as victim
// must not bounce straight back into the hot set on the next refresh,
// even when it is re-inserted and the tracker's sketch still ranks it
// hot. The veto ages out after two refreshes (Sweep cycles), after which
// a genuinely hot key is admissible again.
func TestEvictionVetoesHotSetAdmission(t *testing.T) {
	s := openTest(t, Hash, func(c *Config) {
		c.Workers = 2
		c.CRWorkers = 1
		c.HotItems = 16
	})
	val := make([]byte, 64)
	for k := uint64(1); k <= 64; k++ {
		s.Preload(k, val)
	}

	heat := func(key uint64) {
		for i := 0; i < 512; i++ {
			if _, _, err := s.Get(key); err != nil {
				t.Fatal(err)
			}
		}
	}

	heat(5)
	s.RefreshHotSet()
	if _, ok := s.cache.Lookup(5); !ok {
		t.Fatal("hot key not admitted before eviction (test setup broken)")
	}

	if _, ok := s.EvictKey(5); !ok {
		t.Fatal("EvictKey(5) did not evict")
	}
	// The key comes back (a client re-writes it) and stays hot in the
	// tracker — the exact churn pattern the veto exists for.
	if err := s.Put(5, val); err != nil {
		t.Fatal(err)
	}

	vetoBefore := s.met.hotVeto.Value()
	heat(5)
	s.RefreshHotSet() // refresh 1: vetoed (current generation)
	if _, ok := s.cache.Lookup(5); ok {
		t.Fatal("victim re-admitted on the refresh right after eviction")
	}
	heat(5)
	s.RefreshHotSet() // refresh 2: still vetoed (aged generation)
	if _, ok := s.cache.Lookup(5); ok {
		t.Fatal("victim re-admitted while the veto generation is still live")
	}
	if got := s.met.hotVeto.Value(); got < vetoBefore+2 {
		t.Fatalf("veto counter = %d, want ≥ %d", got, vetoBefore+2)
	}

	heat(5)
	s.RefreshHotSet() // refresh 3: veto aged out — hot again, admissible
	if _, ok := s.cache.Lookup(5); !ok {
		t.Fatal("veto never aged out: hot key still barred after two sweeps")
	}

	// The admitted entry serves reads correctly (fresh generation, not the
	// killed pre-eviction item).
	got, found, err := s.Get(5)
	if err != nil || !found || len(got) != len(val) {
		t.Fatalf("get after re-admission: found=%v err=%v len=%d", found, err, len(got))
	}
}
