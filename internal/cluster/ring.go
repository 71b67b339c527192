// Package cluster presents N independent mutps server processes as one
// logical keyspace: a consistent-hash routing layer with virtual nodes and
// a fan-out client that keeps one pipelined connection per shard full and
// batches multi-key gets into one wire frame per shard.
package cluster

import (
	"fmt"
	"sort"
)

// vnodes is the virtual-node count per member. 128 points per member keeps
// the per-shard key share within a few percent of uniform at typical
// cluster sizes while the whole ring stays small enough to rebuild in
// microseconds.
const vnodes = 128

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash   uint64
	member int // index into Ring.members
}

// Ring is a consistent-hash ring with virtual nodes. Members are identified
// by stable strings (shard addresses): a member's virtual-node positions
// depend only on its own name, so adding or removing one member remaps only
// the ~1/N key share adjacent to its points and leaves every other key in
// place.
//
// A Ring is immutable after construction from the caller's point of view:
// Add and Remove return a new Ring sharing nothing with the receiver, so a
// Ring in use by a client may be read from any goroutine without locking.
type Ring struct {
	members []string
	points  []ringPoint // sorted by hash
}

// NewRing builds a ring over members; each name must be unique and
// non-empty.
func NewRing(members []string) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	seen := make(map[string]struct{}, len(members))
	for _, m := range members {
		if m == "" {
			return nil, fmt.Errorf("cluster: empty member name")
		}
		if _, dup := seen[m]; dup {
			return nil, fmt.Errorf("cluster: duplicate member %q", m)
		}
		seen[m] = struct{}{}
	}
	r := &Ring{members: append([]string(nil), members...)}
	r.rebuild()
	return r, nil
}

// rebuild recomputes the sorted point list from the member set.
func (r *Ring) rebuild() {
	r.points = make([]ringPoint, 0, len(r.members)*vnodes)
	for mi, m := range r.members {
		h := memberSeed(m)
		for v := 0; v < vnodes; v++ {
			h = mix64(h + uint64(v)*0x9e3779b97f4a7c15)
			r.points = append(r.points, ringPoint{hash: h, member: mi})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// memberSeed hashes a member name with FNV-1a, then finalizes for
// avalanche so lexically close addresses ("host:7071", "host:7072") land
// on unrelated circle positions.
func memberSeed(m string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(m); i++ {
		h ^= uint64(m[i])
		h *= prime64
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer: a cheap full-avalanche bijection used
// both for vnode placement and for key hashing.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Locate returns the member owning key: the first virtual node clockwise
// from the key's circle position.
func (r *Ring) Locate(key uint64) string {
	return r.members[r.locateIndex(key)]
}

// LocateIndex returns the owning member's index into Members().
func (r *Ring) LocateIndex(key uint64) int { return r.locateIndex(key) }

func (r *Ring) locateIndex(key uint64) int {
	h := mix64(key)
	pts := r.points
	// First point with hash >= h, wrapping to pts[0].
	i := sort.Search(len(pts), func(i int) bool { return pts[i].hash >= h })
	if i == len(pts) {
		i = 0
	}
	return pts[i].member
}

// Members returns the ring's member names in construction order.
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }

// Add returns a new ring with member added; the receiver is unchanged.
func (r *Ring) Add(member string) (*Ring, error) {
	return NewRing(append(r.Members(), member))
}

// Remove returns a new ring without member; the receiver is unchanged.
func (r *Ring) Remove(member string) (*Ring, error) {
	ms := r.Members()
	for i, m := range ms {
		if m == member {
			return NewRing(append(ms[:i], ms[i+1:]...))
		}
	}
	return nil, fmt.Errorf("cluster: member %q not in ring", member)
}
