package router

import (
	"fmt"
	"testing"
)

func ringLocations(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://member-%d.example:7350", i)
	}
	return out
}

// TestRingOrderCompleteAndDistinct: order() must be a permutation of
// the member set for every digest — the failover chain visits everyone
// exactly once.
func TestRingOrderCompleteAndDistinct(t *testing.T) {
	r := newRing(ringLocations(5))
	for i := 0; i < 200; i++ {
		order := r.order(fmt.Sprintf("digest-%d", i))
		if len(order) != 5 {
			t.Fatalf("order has %d members, want 5", len(order))
		}
		seen := map[int]bool{}
		for _, m := range order {
			if m < 0 || m >= 5 || seen[m] {
				t.Fatalf("order %v is not a permutation of members", order)
			}
			seen[m] = true
		}
	}
}

// TestRingCrossProcessAgreement: two rings built independently over the
// same location list compute identical preference orders — the property
// lease arbitration between uncoordinated fleet processes rides on.
func TestRingCrossProcessAgreement(t *testing.T) {
	locs := ringLocations(3)
	a, b := newRing(locs), newRing(locs)
	for i := 0; i < 500; i++ {
		d := fmt.Sprintf("%x", hash64(fmt.Sprintf("agree-%d", i)))
		ao, bo := a.order(d), b.order(d)
		for j := range ao {
			if ao[j] != bo[j] {
				t.Fatalf("rings disagree on %s: %v vs %v", d, ao, bo)
			}
		}
	}
}

// TestRingSpreadsPrimaries: with 64 vnodes per member, no member of a
// three-member ring owns a wildly disproportionate share of primaries.
func TestRingSpreadsPrimaries(t *testing.T) {
	const digests = 3000
	r := newRing(ringLocations(3))
	counts := make([]int, 3)
	for i := 0; i < digests; i++ {
		counts[r.order(fmt.Sprintf("%x", hash64(fmt.Sprintf("spread-%d", i))))[0]]++
	}
	for m, c := range counts {
		// Expected share is 1/3; accept anything in [1/6, 1/2] — the test
		// guards against gross placement bugs (all keys on one member),
		// not statistical perfection.
		if c < digests/6 || c > digests/2 {
			t.Fatalf("member %d is primary for %d/%d digests: %v", m, c, digests, counts)
		}
	}
}

// TestRingStableUnderVnodeDefault: the ring holds exactly 64 points per
// member, at hash("<location>#<i>") — the layout every process must
// share to agree on a digest's primary.
func TestRingStableUnderVnodeDefault(t *testing.T) {
	locs := ringLocations(4)
	r := newRing(locs)
	if len(r.points) != len(locs)*64 {
		t.Fatalf("ring has %d points over %d members, want 64 each", len(r.points), len(locs))
	}
	want := map[uint64]int{}
	for m, loc := range locs {
		for v := 0; v < 64; v++ {
			want[hash64(fmt.Sprintf("%s#%d", loc, v))] = m
		}
	}
	for _, p := range r.points {
		if m, ok := want[p.pos]; !ok || m != p.member {
			t.Fatalf("point %x (member %d) is not a vnode of the fixed layout", p.pos, p.member)
		}
	}
}
