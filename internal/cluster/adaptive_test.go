package cluster

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// latencyLike builds a dataset shaped like a real switching-latency
// sample: one dominant cluster, an optional secondary cluster, and a few
// extreme outliers.
func latencyLike(rng *rand.Rand, n int, secondary bool) (xs []float64, nOutliers int) {
	sec := 0
	if secondary {
		sec = int(float64(n) * 0.10)
	}
	// Outliers are a small fraction and widely scattered, as the paper
	// observes ("never exceeds a low percentage of the measurements").
	nOutliers = int(float64(n) * 0.03)
	main := n - sec - nOutliers
	for i := 0; i < main; i++ {
		xs = append(xs, 15+0.4*rng.NormFloat64())
	}
	for i := 0; i < sec; i++ {
		xs = append(xs, 135+1.0*rng.NormFloat64())
	}
	for i := 0; i < nOutliers; i++ {
		xs = append(xs, 300+2500*rng.Float64())
	}
	return xs, nOutliers
}

func TestAdaptiveFindsOutliers(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 3))
	xs, nOut := latencyLike(rng, 300, false)
	res := Adaptive(xs, DefaultAdaptiveConfig())
	if res.NoiseRatio() > 0.1 {
		t.Fatalf("noise ratio %v exceeds threshold", res.NoiseRatio())
	}
	if res.NoiseCount() < nOut {
		t.Fatalf("found %d outliers, injected %d", res.NoiseCount(), nOut)
	}
	if res.NumClusters < 1 {
		t.Fatal("no clusters found")
	}
}

func TestAdaptiveMultiCluster(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 4))
	xs, _ := latencyLike(rng, 400, true)
	res := Adaptive(xs, DefaultAdaptiveConfig())
	if res.NumClusters != 2 {
		t.Fatalf("NumClusters = %d, want 2 (main + secondary)", res.NumClusters)
	}
}

func TestAdaptiveIdenticalSamples(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 7.5
	}
	res := Adaptive(xs, DefaultAdaptiveConfig())
	if res.NoiseCount() != 0 {
		t.Fatalf("identical samples produced %d outliers", res.NoiseCount())
	}
	if res.NumClusters != 1 {
		t.Fatalf("identical samples produced %d clusters", res.NumClusters)
	}
}

func TestAdaptiveEmpty(t *testing.T) {
	res := Adaptive(nil, DefaultAdaptiveConfig())
	if len(res.Labels) != 0 {
		t.Fatalf("empty input: %+v", res)
	}
}

func TestAdaptiveTinyDataset(t *testing.T) {
	// Fewer points than any sensible minPts: must not panic, and the
	// floor keeps minPts positive.
	xs := []float64{1, 1.1, 0.9, 1.05, 25}
	res := Adaptive(xs, DefaultAdaptiveConfig())
	if len(res.Labels) != 5 {
		t.Fatalf("labels = %v", res.Labels)
	}
}

func TestFilterOutliersPartition(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 5))
	xs, _ := latencyLike(rng, 250, false)
	kept, outliers, res := FilterOutliers(xs, DefaultAdaptiveConfig())
	if len(kept)+len(outliers) != len(xs) {
		t.Fatalf("partition loses points: %d + %d != %d", len(kept), len(outliers), len(xs))
	}
	if len(outliers) != res.NoiseCount() {
		t.Fatalf("outliers %d != NoiseCount %d", len(outliers), res.NoiseCount())
	}
	// Every outlier must exceed the kept maximum (they were injected far
	// above the clusters).
	keptMax := kept[0]
	for _, k := range kept {
		if k > keptMax {
			keptMax = k
		}
	}
	for _, o := range outliers {
		if o <= keptMax {
			t.Fatalf("outlier %v below kept max %v", o, keptMax)
		}
	}
}

// Property: FilterOutliers always partitions the input (no loss, no
// duplication) and the noise ratio never exceeds 1.
func TestFilterOutliersPartitionProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(x, 1e4))
			}
		}
		kept, outliers, res := FilterOutliers(xs, DefaultAdaptiveConfig())
		return len(kept)+len(outliers) == len(xs) && res.NoiseRatio() <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSilhouetteWellSeparated(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 6))
	xs, _ := twoBlobs(rng, 60, 60)
	res := DBSCAN(xs, 1.0, 4)
	s := Silhouette(xs, res.Labels)
	if s < 0.9 {
		t.Fatalf("silhouette of well-separated blobs = %v, want > 0.9", s)
	}
}

func TestSilhouetteOverlapping(t *testing.T) {
	// Force two labels onto a single homogeneous set: silhouette near 0
	// or negative.
	rng := rand.New(rand.NewPCG(15, 7))
	xs := make([]float64, 100)
	labels := make([]int, 100)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		labels[i] = i % 2
	}
	s := Silhouette(xs, labels)
	if s > 0.2 {
		t.Fatalf("silhouette of interleaved labels = %v, want ≤ 0.2", s)
	}
}

func TestSilhouetteSingleClusterNaN(t *testing.T) {
	xs := []float64{1, 2, 3}
	labels := []int{0, 0, 0}
	if s := Silhouette(xs, labels); !math.IsNaN(s) {
		t.Fatalf("single-cluster silhouette = %v, want NaN", s)
	}
}

func TestSilhouetteIgnoresNoise(t *testing.T) {
	xs := []float64{1, 1.1, 5, 5.1, 1000}
	labels := []int{0, 0, 1, 1, Noise}
	s := Silhouette(xs, labels)
	if math.IsNaN(s) || s < 0.9 {
		t.Fatalf("silhouette with noise point = %v, want > 0.9", s)
	}
}

// Property: silhouette is always within [-1, 1] when defined.
func TestSilhouetteRangeProperty(t *testing.T) {
	f := func(raw []float64, mod uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(x, 100))
			}
		}
		k := 2 + int(mod)%3
		labels := make([]int, len(xs))
		for i := range labels {
			labels[i] = i % k
		}
		s := Silhouette(xs, labels)
		if math.IsNaN(s) {
			return true
		}
		return s >= -1-1e-9 && s <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSilhouetteMismatchedLengths(t *testing.T) {
	if s := Silhouette([]float64{1, 2}, []int{0}); !math.IsNaN(s) {
		t.Fatalf("mismatched lengths = %v, want NaN", s)
	}
}

// TestSilhouetteBitStable requires repeated calls on the same clustering
// to agree to the last bit. The per-point terms are summed over clusters;
// summing in map iteration order made the result vary between calls.
func TestSilhouetteBitStable(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 8))
	var xs []float64
	var labels []int
	for c := 0; c < 5; c++ {
		for i := 0; i < 40; i++ {
			xs = append(xs, float64(c)*3+rng.NormFloat64()*0.7)
			labels = append(labels, c)
		}
	}
	want := math.Float64bits(Silhouette(xs, labels))
	for i := 0; i < 50; i++ {
		if got := math.Float64bits(Silhouette(xs, labels)); got != want {
			t.Fatalf("call %d: silhouette bits %#x, first call %#x", i, got, want)
		}
	}
}
