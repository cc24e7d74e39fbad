package router

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// virtualNodes is how many ring points each member contributes.
// 64 points per member keeps the expected keyspace imbalance of a
// three-member ring in the low single-digit percent range while the
// whole ring for any realistic member count still fits in one cache
// line's worth of binary-search depth.
const virtualNodes = 64

// point is one virtual node: a position on the 64-bit hash circle and
// the member that owns it.
type point struct {
	pos    uint64
	member int
}

// ring is the consistent-hash layout: every member's virtual nodes,
// sorted by position. It is immutable after construction — membership
// is fixed for the life of a Router, so lookups are lock-free.
//
// Placement is a pure function of (member locations, digest): every
// router built over the same member list — in any order of a different
// process, on a different host — computes the identical preference
// order for every digest. That property is what lets independent fleet
// processes agree on a key's primary (lease arbitration) without any
// coordination beyond their -store-url lists.
type ring struct {
	points  []point
	members int
}

// hash64 is FNV-1a over the input string, passed through a splitmix64
// finalizer. FNV alone is stable but clusters badly on near-identical
// inputs — vnode labels differing only in their "#N" suffix land so
// unevenly that one member of a three-member ring can own over half the
// keyspace; the finalizer's avalanche restores uniform arc lengths.
// Everything here is fixed arithmetic, stable across processes and Go
// versions (unlike maphash), which the cross-process placement
// agreement above depends on.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	z := h.Sum64()
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// newRing lays out virtualNodes points per member. Member identity on
// the ring is its location string, so two members claiming the same
// location would shadow each other — callers reject duplicates first.
func newRing(locations []string) ring {
	r := ring{points: make([]point, 0, len(locations)*virtualNodes), members: len(locations)}
	for m, loc := range locations {
		for v := 0; v < virtualNodes; v++ {
			r.points = append(r.points, point{pos: hash64(fmt.Sprintf("%s#%d", loc, v)), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].pos < r.points[j].pos })
	return r
}

// order returns every member index in the digest's preference order:
// the owner of the first virtual node at or after hash(digest), then
// each further distinct member walking clockwise. order[0] is the
// digest's primary; order[:R] is its preferred replica set; the tail is
// the failover chain reads and lease claims fall down when preferred
// members are unreachable.
func (r ring) order(digest string) []int {
	out := make([]int, 0, r.members)
	if len(r.points) == 0 {
		return out
	}
	h := hash64(digest)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= h })
	seen := make([]bool, r.members)
	for i := 0; len(out) < r.members; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, p.member)
		}
	}
	return out
}
