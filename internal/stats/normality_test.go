package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

func normals(n int, seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, 1))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 10 + 2*rng.NormFloat64()
	}
	return xs
}

func exponentials(n int, seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, 2))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	return xs
}

func TestSkewnessSymmetricNearZero(t *testing.T) {
	if got := Skewness(normals(20000, 3)); math.Abs(got) > 0.05 {
		t.Fatalf("normal skewness = %v, want ≈0", got)
	}
}

func TestSkewnessRightSkewPositive(t *testing.T) {
	if got := Skewness(exponentials(20000, 4)); got < 1.5 {
		t.Fatalf("exponential skewness = %v, want ≈2", got)
	}
}

func TestExcessKurtosis(t *testing.T) {
	if got := ExcessKurtosis(normals(40000, 5)); math.Abs(got) > 0.15 {
		t.Fatalf("normal excess kurtosis = %v, want ≈0", got)
	}
	if got := ExcessKurtosis(exponentials(40000, 6)); got < 4 {
		t.Fatalf("exponential excess kurtosis = %v, want ≈6", got)
	}
}

func TestMomentsDegenerate(t *testing.T) {
	if !math.IsNaN(Skewness([]float64{1, 2})) {
		t.Error("skewness of n=2 not NaN")
	}
	if !math.IsNaN(ExcessKurtosis([]float64{1, 2, 3})) {
		t.Error("kurtosis of n=3 not NaN")
	}
	if !math.IsNaN(Skewness([]float64{5, 5, 5, 5})) {
		t.Error("skewness of constants not NaN")
	}
}

func TestJarqueBeraAcceptsNormal(t *testing.T) {
	accepted := 0
	const trials = 50
	for i := 0; i < trials; i++ {
		if ApproximatelyNormal(normals(500, uint64(100+i)), 0.01) {
			accepted++
		}
	}
	if accepted < trials*9/10 {
		t.Fatalf("normal samples accepted %d/%d times", accepted, trials)
	}
}

func TestJarqueBeraRejectsExponential(t *testing.T) {
	for i := 0; i < 20; i++ {
		if ApproximatelyNormal(exponentials(500, uint64(200+i)), 0.01) {
			t.Fatalf("trial %d: exponential sample passed as normal", i)
		}
	}
}

func TestJarqueBeraRejectsBimodal(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	xs := make([]float64, 600)
	for i := range xs {
		if i%2 == 0 {
			xs[i] = 5 + 0.1*rng.NormFloat64()
		} else {
			xs[i] = 20 + 0.1*rng.NormFloat64()
		}
	}
	if ApproximatelyNormal(xs, 0.01) {
		t.Fatal("bimodal sample passed as normal")
	}
}

func TestJarqueBeraSmallSamplePermissive(t *testing.T) {
	if !ApproximatelyNormal([]float64{1, 2, 3}, 0.01) {
		t.Fatal("tiny sample rejected (should be permissive)")
	}
	if jb, p := JarqueBera([]float64{1, 2, 3}); !math.IsNaN(jb) || !math.IsNaN(p) {
		t.Fatalf("JB on n=3 = (%v, %v), want NaNs", jb, p)
	}
}

// TestQuantisedNormalShapeMatchesSimulation draws d = ⌊r + x⌋ for x
// normal and r uniform, at jitters from a near-degenerate lattice to a
// nearly continuous one, fits the law to the draws' mean and variance,
// and checks its skewness and excess kurtosis against the draws' within
// 5 of the standard errors it reports (scaled to the draw count).
func TestQuantisedNormalShapeMatchesSimulation(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	const draws = 200_000
	for _, c := range []struct{ a, b float64 }{
		{75.02, 0.05}, {75.1, 0.19}, {75.5, 0.19}, {74.8, 0.4}, {150.3, 1}, {20.7, 3},
	} {
		xs := make([]float64, draws)
		for i := range xs {
			xs[i] = math.Floor(rng.Float64() + c.a + c.b*rng.NormFloat64())
		}
		ms := Describe(xs)
		g1, g2, se1, se2 := QuantisedNormalShape(ms.Mean, ms.Std*ms.Std, draws)
		if d := Skewness(xs) - g1; math.Abs(d) > 5*se1 {
			t.Errorf("a=%v b=%v: skewness %v, law %v (se %v)", c.a, c.b, Skewness(xs), g1, se1)
		}
		if d := ExcessKurtosis(xs) - g2; math.Abs(d) > 5*se2 {
			t.Errorf("a=%v b=%v: excess kurtosis %v, law %v (se %v)", c.a, c.b, ExcessKurtosis(xs), g2, se2)
		}
		t.Logf("a=%v b=%v: g1 %.3f law %.3f ±%.4f; g2 %.3f law %.3f ±%.4f", c.a, c.b, Skewness(xs), g1, se1, ExcessKurtosis(xs), g2, se2)
	}
	// A continuous normal's shape and standard errors, far past the lattice.
	if g1, g2, se1, se2 := QuantisedNormalShape(1e4, 1e4, 600); g1 != 0 || g2 != 0 || se1 != 0.1 || se2 != 0.2 {
		t.Errorf("continuous limit: %v %v %v %v", g1, g2, se1, se2)
	}
	if g1, g2, _, se2 := QuantisedNormalShape(3.4, 100, 600); math.Abs(g1) > 1e-3 || math.Abs(g2) > 0.01 || math.Abs(se2-0.2) > 0.01 {
		t.Errorf("wide jitter: g1 %v g2 %v se2 %v, want a normal's", g1, g2, se2)
	}
}
