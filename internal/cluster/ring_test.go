package cluster

import (
	"fmt"
	"testing"
)

func ringMembers(n int) []string {
	ms := make([]string, n)
	for i := range ms {
		ms[i] = fmt.Sprintf("10.0.0.%d:7070", i+1)
	}
	return ms
}

func TestRingDeterministic(t *testing.T) {
	a, err := NewRing(ringMembers(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing(ringMembers(5))
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 10_000; k++ {
		if a.Locate(k) != b.Locate(k) {
			t.Fatalf("key %d: %s vs %s — ring must be deterministic", k, a.Locate(k), b.Locate(k))
		}
	}
}

// TestRingUniformity checks the key-distribution bound: with 128 vnodes
// per member, every shard's share of a large uniform keyspace must be
// within ±35% of the fair share. (Consistent hashing with v vnodes has
// relative stddev ≈ 1/√v ≈ 9%; ±35% is ≈4σ, loose enough to be stable
// across hash tweaks and tight enough to catch a broken point placement.)
func TestRingUniformity(t *testing.T) {
	const nKeys = 200_000
	for _, nShards := range []int{2, 4, 8} {
		r, err := NewRing(ringMembers(nShards))
		if err != nil {
			t.Fatal(err)
		}
		counts := make(map[string]int)
		for k := uint64(0); k < nKeys; k++ {
			counts[r.Locate(k)]++
		}
		if len(counts) != nShards {
			t.Fatalf("%d shards: only %d received keys", nShards, len(counts))
		}
		fair := float64(nKeys) / float64(nShards)
		for m, n := range counts {
			dev := (float64(n) - fair) / fair
			if dev > 0.35 || dev < -0.35 {
				t.Errorf("%d shards: %s holds %d keys (fair %.0f, deviation %+.1f%%)",
					nShards, m, n, fair, dev*100)
			}
		}
	}
}

// TestRingRemappingOnAdd checks the consistent-hashing contract: growing
// the ring from N to N+1 members remaps at most ~1/(N+1) of the keyspace
// (the new member's fair share), plus slack for vnode variance — not the
// ~N/(N+1) a modulo-hash scheme would remap.
func TestRingRemappingOnAdd(t *testing.T) {
	const nKeys = 100_000
	for _, n := range []int{2, 4, 8} {
		before, err := NewRing(ringMembers(n))
		if err != nil {
			t.Fatal(err)
		}
		after, err := before.Add("10.0.1.1:7070")
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		for k := uint64(0); k < nKeys; k++ {
			if before.Locate(k) != after.Locate(k) {
				moved++
			}
		}
		frac := float64(moved) / nKeys
		bound := 1.0/float64(n+1) + 0.05
		if frac > bound {
			t.Errorf("add to %d members: %.1f%% of keys remapped, bound %.1f%%",
				n, frac*100, bound*100)
		}
		if moved == 0 {
			t.Errorf("add to %d members: no keys remapped — new member gets no load", n)
		}
	}
}

// TestRingRemappingOnRemove is the symmetric bound: removing one of N
// members remaps only that member's ~1/N share, and every remapped key
// belonged to the removed member.
func TestRingRemappingOnRemove(t *testing.T) {
	const nKeys = 100_000
	for _, n := range []int{3, 5, 8} {
		members := ringMembers(n)
		before, err := NewRing(members)
		if err != nil {
			t.Fatal(err)
		}
		victim := members[n/2]
		after, err := before.Remove(victim)
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		for k := uint64(0); k < nKeys; k++ {
			b, a := before.Locate(k), after.Locate(k)
			if b != a {
				moved++
				if b != victim {
					t.Fatalf("key %d moved %s→%s but %s was not removed", k, b, a, victim)
				}
			}
		}
		frac := float64(moved) / nKeys
		bound := 1.0/float64(n) + 0.05
		if frac > bound {
			t.Errorf("remove from %d members: %.1f%% remapped, bound %.1f%%", n, frac*100, bound*100)
		}
	}
}

func TestRingRejectsBadMembers(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Error("empty ring accepted")
	}
	if _, err := NewRing([]string{"a", "a"}); err == nil {
		t.Error("duplicate member accepted")
	}
	if _, err := NewRing([]string{""}); err == nil {
		t.Error("empty member name accepted")
	}
	r, _ := NewRing([]string{"a", "b"})
	if _, err := r.Remove("zzz"); err == nil {
		t.Error("removing unknown member accepted")
	}
}
