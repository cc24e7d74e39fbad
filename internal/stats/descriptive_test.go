package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestMeanBasic(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestMeanEmptyIsNaN(t *testing.T) {
	if got := Mean(nil); !math.IsNaN(got) {
		t.Fatalf("Mean(nil) = %v, want NaN", got)
	}
}

func TestVarianceKnown(t *testing.T) {
	// Sample variance of {2,4,4,4,5,5,7,9} with divisor n-1 is 32/7.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	want := 32.0 / 7.0
	if got := Variance(xs); !almostEqual(got, want, 1e-12) {
		t.Fatalf("Variance = %v, want %v", got, want)
	}
}

func TestVarianceTooFewSamples(t *testing.T) {
	if got := Variance([]float64{1}); !math.IsNaN(got) {
		t.Fatalf("Variance of single sample = %v, want NaN", got)
	}
}

func TestStdErrMatchesDefinition(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6}
	want := Stdev(xs) / math.Sqrt(6)
	if got := StdErr(xs); !almostEqual(got, want, 1e-15) {
		t.Fatalf("StdErr = %v, want %v", got, want)
	}
}

func TestRSEScaleInvariance(t *testing.T) {
	// RSE is invariant under positive scaling of the data.
	xs := []float64{10, 11, 9, 10.5, 9.5}
	scaled := make([]float64, len(xs))
	for i, x := range xs {
		scaled[i] = 1000 * x
	}
	if a, b := RSE(xs), RSE(scaled); !almostEqual(a, b, 1e-12) {
		t.Fatalf("RSE not scale invariant: %v vs %v", a, b)
	}
}

func TestRSEZeroMean(t *testing.T) {
	if got := RSE([]float64{-1, 1}); !math.IsInf(got, 1) {
		t.Fatalf("RSE with zero mean = %v, want +Inf", got)
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 2})
	if min != -1 || max != 7 {
		t.Fatalf("MinMax = (%v, %v), want (-1, 7)", min, max)
	}
}

func TestMinMaxEmpty(t *testing.T) {
	min, max := MinMax(nil)
	if !math.IsNaN(min) || !math.IsNaN(max) {
		t.Fatalf("MinMax(nil) = (%v, %v), want NaNs", min, max)
	}
}

func TestQuantileMedianOdd(t *testing.T) {
	if got := Quantile([]float64{5, 1, 3}, 0.5); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
}

func TestQuantileMedianEvenInterpolates(t *testing.T) {
	if got := Quantile([]float64{1, 2, 3, 4}, 0.5); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

func TestQuantileEndpoints(t *testing.T) {
	xs := []float64{9, 2, 5}
	if got := Quantile(xs, 0); got != 2 {
		t.Fatalf("q0 = %v, want 2", got)
	}
	if got := Quantile(xs, 1); got != 9 {
		t.Fatalf("q1 = %v, want 9", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Quantile mutated its input: %v", xs)
	}
}

func TestQuantileRange(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	got := QuantileRange(xs, 0.05, 0.95)
	if !almostEqual(got, 90, 1e-9) {
		t.Fatalf("QuantileRange = %v, want 90", got)
	}
}

func TestQuantileInvalidQ(t *testing.T) {
	if got := Quantile([]float64{1, 2}, 1.5); !math.IsNaN(got) {
		t.Fatalf("Quantile(q=1.5) = %v, want NaN", got)
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		xs := sanitize(raw)
		if len(xs) == 0 {
			return true
		}
		q1 = clamp01(q1)
		q2 = clamp01(q2)
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		lo := Quantile(xs, q1)
		hi := Quantile(xs, q2)
		min, max := MinMax(xs)
		return lo <= hi+1e-9 && lo >= min-1e-9 && hi <= max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Describe agrees with the two-pass Mean/Stdev implementations.
func TestDescribeMatchesTwoPassProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := sanitize(raw)
		if len(xs) < 2 {
			return true
		}
		ms := Describe(xs)
		return almostEqual(ms.Mean, Mean(xs), 1e-6*(1+math.Abs(Mean(xs)))) &&
			almostEqual(ms.Std, Stdev(xs), 1e-6*(1+Stdev(xs)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: mean lies within [min, max].
func TestMeanBoundedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := sanitize(raw)
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		lo, hi := MinMax(xs)
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAccumulatorMatchesDescribe(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 10
	}
	var acc Accumulator
	for _, x := range xs {
		acc.Add(x)
	}
	got := acc.MeanStd()
	want := Describe(xs)
	if !almostEqual(got.Mean, want.Mean, 1e-9) || !almostEqual(got.Std, want.Std, 1e-9) {
		t.Fatalf("Accumulator = %+v, Describe = %+v", got, want)
	}
}

// TestMomentAccumulatorSmallSamples pins phase 1's streaming mean and
// deviation at n = 0 to 4: no observation gives a NaN mean and
// deviation, one a NaN deviation, and from two on they agree with the
// two-pass Mean and Stdev; a constant population has a deviation of
// exactly 0.
func TestMomentAccumulatorSmallSamples(t *testing.T) {
	for _, xs := range [][]float64{{1, 2, 4, 8.5}, {5, 5, 5, 5}} {
		var acc MomentAccumulator
		for n := 0; n <= len(xs); n++ {
			if n > 0 {
				acc.Add(xs[n-1])
			}
			got := acc.MeanStd()
			switch {
			case acc.N() != n || got.N != n:
				t.Fatalf("%v: N() %d, MeanStd().N %d after %d observations", xs, acc.N(), got.N, n)
			case n == 0 && !(math.IsNaN(got.Mean) && math.IsNaN(got.Std)):
				t.Errorf("empty: %+v, want NaN mean and std", got)
			case n == 1 && (got.Mean != xs[0] || !math.IsNaN(got.Std)):
				t.Errorf("%v, n = 1: %+v, want mean %v and NaN std", xs, got, xs[0])
			case n >= 2 && (!almostEqual(got.Mean, Mean(xs[:n]), 1e-12) || !almostEqual(got.Std, Stdev(xs[:n]), 1e-12)):
				t.Errorf("%v, n = %d: %+v, two-pass mean %v std %v", xs, n, got, Mean(xs[:n]), Stdev(xs[:n]))
			case n >= 2 && xs[0] == xs[n-1] && got.Std != 0:
				t.Errorf("constant population, n = %d: std %v, want 0", n, got.Std)
			}
		}
	}
}

func TestMeanStdTwoSigmaBounds(t *testing.T) {
	m := MeanStd{N: 100, Mean: 10, Std: 2}
	for _, x := range []float64{6, 10, 13.9, 14} {
		if !m.Contains(x, 2) {
			t.Errorf("Contains(%v, 2) = false, want true inside [6, 14]", x)
		}
	}
	for _, x := range []float64{5.9, 14.1} {
		if m.Contains(x, 2) {
			t.Errorf("Contains(%v, 2) = true, want false outside [6, 14]", x)
		}
	}
}

func TestMeanStdDegenerate(t *testing.T) {
	m := Describe(nil)
	if m.N != 0 || !math.IsNaN(m.Mean) || !math.IsNaN(m.Std) {
		t.Fatalf("Describe(nil) = %+v", m)
	}
	m = Describe([]float64{5})
	if m.N != 1 || m.Mean != 5 || !math.IsNaN(m.Std) {
		t.Fatalf("Describe({5}) = %+v", m)
	}
}

// sanitize maps arbitrary quick-generated floats into a well-behaved
// bounded range, discarding NaNs and infinities.
func sanitize(raw []float64) []float64 {
	xs := make([]float64, 0, len(raw))
	for _, x := range raw {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		// Fold huge magnitudes into [-1e6, 1e6] to avoid overflow noise.
		xs = append(xs, math.Mod(x, 1e6))
	}
	return xs
}

func clamp01(q float64) float64 {
	if math.IsNaN(q) {
		return 0.5
	}
	q = math.Abs(math.Mod(q, 1))
	return q
}
