package cluster

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// twoBlobs returns two well-separated Gaussian clusters plus explicit
// far-away outliers, with ground-truth membership boundaries.
func twoBlobs(rng *rand.Rand, n1, n2 int) (xs []float64, outliers []float64) {
	for i := 0; i < n1; i++ {
		xs = append(xs, 10+0.1*rng.NormFloat64())
	}
	for i := 0; i < n2; i++ {
		xs = append(xs, 20+0.1*rng.NormFloat64())
	}
	outliers = []float64{55, 60, -30}
	xs = append(xs, outliers...)
	return xs, outliers
}

func TestDBSCANTwoClustersAndNoise(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	xs, _ := twoBlobs(rng, 100, 80)
	res := DBSCAN(xs, 1.0, 5)
	if res.NumClusters != 2 {
		t.Fatalf("NumClusters = %d, want 2", res.NumClusters)
	}
	if res.NoiseCount() != 3 {
		t.Fatalf("NoiseCount = %d, want 3", res.NoiseCount())
	}
	// All members of the first blob share one label.
	first := res.Labels[0]
	for i := 1; i < 100; i++ {
		if res.Labels[i] != first {
			t.Fatalf("blob 1 split: labels[%d]=%d, labels[0]=%d", i, res.Labels[i], first)
		}
	}
	second := res.Labels[100]
	if second == first {
		t.Fatal("blobs merged into one cluster")
	}
	for i := 101; i < 180; i++ {
		if res.Labels[i] != second {
			t.Fatalf("blob 2 split at %d", i)
		}
	}
}

func TestDBSCANSingleCluster(t *testing.T) {
	xs := []float64{1.0, 1.1, 1.2, 1.05, 1.15, 0.95}
	res := DBSCAN(xs, 0.5, 3)
	if res.NumClusters != 1 || res.NoiseCount() != 0 {
		t.Fatalf("got %d clusters, %d noise; want 1, 0", res.NumClusters, res.NoiseCount())
	}
}

func TestDBSCANAllNoise(t *testing.T) {
	xs := []float64{0, 100, 200, 300}
	res := DBSCAN(xs, 1, 2)
	if res.NumClusters != 0 || res.NoiseCount() != 4 {
		t.Fatalf("got %d clusters, %d noise; want 0, 4", res.NumClusters, res.NoiseCount())
	}
	if r := res.NoiseRatio(); r != 1 {
		t.Fatalf("NoiseRatio = %v, want 1", r)
	}
}

func TestDBSCANEmptyInput(t *testing.T) {
	res := DBSCAN(nil, 1, 3)
	if res.NumClusters != 0 || len(res.Labels) != 0 {
		t.Fatalf("empty input: %+v", res)
	}
	if res.NoiseRatio() != 0 {
		t.Fatalf("NoiseRatio of empty = %v", res.NoiseRatio())
	}
}

func TestDBSCANInvalidParams(t *testing.T) {
	xs := []float64{1, 2, 3}
	res := DBSCAN(xs, -1, 2)
	if res.NoiseCount() != 3 {
		t.Fatal("negative eps should classify everything as noise")
	}
	res = DBSCAN(xs, 1, 0)
	if res.NoiseCount() != 3 {
		t.Fatal("minPts=0 should classify everything as noise")
	}
}

func TestDBSCANBorderPointAdoption(t *testing.T) {
	// Dense core at 0..4 (spacing 0.4), border point at 1.3 away from the
	// edge: within eps of a core point but not itself core.
	xs := []float64{0, 0.4, 0.8, 1.2, 1.6, 2.6}
	res := DBSCAN(xs, 1.0, 3)
	if res.NumClusters != 1 {
		t.Fatalf("NumClusters = %d, want 1", res.NumClusters)
	}
	if res.Labels[5] != res.Labels[0] {
		t.Fatalf("border point not adopted: labels=%v", res.Labels)
	}
}

func TestDBSCANClusterSizesAndMembers(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	xs, _ := twoBlobs(rng, 30, 50)
	res := DBSCAN(xs, 1.0, 4)
	sizes := res.ClusterSizes()
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total+res.NoiseCount() != len(xs) {
		t.Fatalf("sizes %v + noise %d != %d points", sizes, res.NoiseCount(), len(xs))
	}
	// Each cluster's members are the points carrying its label.
	members := make([]int, res.NumClusters)
	for _, l := range res.Labels {
		if l >= 0 {
			members[l]++
		}
	}
	for label, n := range members {
		if n != sizes[label] {
			t.Fatalf("cluster %d has %d members, sizes = %v", label, n, sizes)
		}
	}
}

// Property: labels are always in {Noise} ∪ [0, NumClusters), every point
// gets a label, and clusters are non-empty.
func TestDBSCANLabelValidityProperty(t *testing.T) {
	f := func(raw []float64, epsSeed uint8, minPtsSeed uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(x, 1000))
			}
		}
		eps := 0.1 + float64(epsSeed)
		minPts := 1 + int(minPtsSeed)%8
		res := DBSCAN(xs, eps, minPts)
		if len(res.Labels) != len(xs) {
			return false
		}
		seen := make([]bool, res.NumClusters)
		for _, l := range res.Labels {
			if l < Noise || l >= res.NumClusters {
				return false
			}
			if l >= 0 {
				seen[l] = true
			}
		}
		for _, s := range seen {
			if !s {
				return false // empty cluster label
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: with minPts = 1 every point is core, so there is no noise.
func TestDBSCANMinPtsOneNoNoiseProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(x, 100))
			}
		}
		res := DBSCAN(xs, 0.5, 1)
		return res.NoiseCount() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: DBSCAN output is invariant under input permutation up to
// label renaming (partition equality).
func TestDBSCANPermutationInvarianceProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	xs, _ := twoBlobs(rng, 40, 40)
	res1 := DBSCAN(xs, 1.0, 4)

	perm := rng.Perm(len(xs))
	shuffled := make([]float64, len(xs))
	for i, p := range perm {
		shuffled[i] = xs[p]
	}
	res2 := DBSCAN(shuffled, 1.0, 4)

	// Two points share a cluster in res1 iff they share one in res2.
	for i := 0; i < len(xs); i++ {
		for j := i + 1; j < len(xs); j++ {
			same1 := res1.Labels[perm[i]] == res1.Labels[perm[j]] && res1.Labels[perm[i]] != Noise
			same2 := res2.Labels[i] == res2.Labels[j] && res2.Labels[i] != Noise
			if same1 != same2 {
				t.Fatalf("partition differs for points %d,%d", i, j)
			}
		}
	}
}

func TestDBSCANDuplicatePoints(t *testing.T) {
	xs := []float64{5, 5, 5, 5, 5}
	res := DBSCAN(xs, 0.001, 5)
	if res.NumClusters != 1 || res.NoiseCount() != 0 {
		t.Fatalf("duplicates: %d clusters, %d noise", res.NumClusters, res.NoiseCount())
	}
}

// TestDBSCANClosedBallAtEps pins the closed-ball region query after the
// linear hi-extension was replaced with a second binary search: points
// exactly eps away are neighbours, including long runs of tied samples
// sitting on the boundary.
func TestDBSCANClosedBallAtEps(t *testing.T) {
	// 1 core candidate at 0 and four tied points exactly at eps.
	xs := []float64{0, 1, 1, 1, 1}
	res := DBSCAN(xs, 1, 5)
	if res.NumClusters != 1 {
		t.Fatalf("clusters = %d, want 1 (boundary ties excluded?)", res.NumClusters)
	}
	if res.NoiseCount() != 0 {
		t.Fatalf("noise = %d, want 0", res.NoiseCount())
	}
	// Just beyond eps must not be a neighbour: nudging every tie past the
	// boundary leaves no point with 5 neighbours, so all points are noise.
	over := math.Nextafter(1, 2)
	xs = []float64{0, over, over, over, over}
	res = DBSCAN(xs, 1, 5)
	if res.NumClusters != 0 {
		t.Fatalf("clusters = %d, want 0", res.NumClusters)
	}
}

// TestDBSCANCachedCountsConsistent checks the precomputed noise and
// cluster-size counts agree with a fresh scan of Labels.
func TestDBSCANCachedCountsConsistent(t *testing.T) {
	xs := []float64{1, 1.1, 1.2, 5, 5.1, 5.2, 40, 1.15, 5.15, 80}
	res := DBSCAN(xs, 0.3, 3)
	noise := 0
	sizes := make([]int, res.NumClusters)
	for _, l := range res.Labels {
		if l == Noise {
			noise++
		} else {
			sizes[l]++
		}
	}
	if res.NoiseCount() != noise {
		t.Fatalf("NoiseCount = %d, scan says %d", res.NoiseCount(), noise)
	}
	got := res.ClusterSizes()
	if len(got) != len(sizes) {
		t.Fatalf("ClusterSizes len = %d, want %d", len(got), len(sizes))
	}
	for i := range sizes {
		if got[i] != sizes[i] {
			t.Fatalf("cluster %d size = %d, scan says %d", i, got[i], sizes[i])
		}
	}
	// A hand-assembled Result (no finalize) must still answer correctly.
	manual := &Result{Labels: []int{0, Noise, 0, 1}, NumClusters: 2}
	if manual.NoiseCount() != 1 || manual.ClusterSizes()[0] != 2 || manual.ClusterSizes()[1] != 1 {
		t.Fatal("unfinalized Result accessors broken")
	}
}
