package stats

import "math"

// Interval is a closed interval [Lo, Hi] on the real line.
type Interval struct {
	Lo, Hi float64
}

// Contains reports whether x lies inside the interval.
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// ContainsZero reports whether the interval straddles zero — the paper's
// pair-exclusion criterion (phase 1) and transition-confirmation test
// (phase 3) both ask this of a mean-difference interval.
func (iv Interval) ContainsZero() bool { return iv.Contains(0) }

// Width returns Hi − Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// MeanCI returns the two-sided confidence interval of the population mean
// from the sample summary m, using the Student-t critical value for the
// sample's degrees of freedom.
func MeanCI(m MeanStd, confidence float64) Interval {
	se := m.StdErr()
	if math.IsNaN(se) {
		return Interval{math.NaN(), math.NaN()}
	}
	t := TCritical(float64(m.N-1), confidence)
	return Interval{m.Mean - t*se, m.Mean + t*se}
}

// MeanDiffCI returns the Welch confidence interval of μa − μb.
// The LATEST phase-1 pair filter keeps pair (a, b) only when this interval
// does not contain zero, i.e. the two frequencies are statistically
// distinguishable from iteration timings alone.
func MeanDiffCI(a, b MeanStd, confidence float64) Interval {
	return NewCriticalT(confidence).MeanDiffCI(a, b)
}

// MeanDiffCI is the package-level MeanDiffCI at c's confidence.
func (c CriticalT) MeanDiffCI(a, b MeanStd) Interval {
	if a.N < 2 || b.N < 2 {
		return Interval{math.NaN(), math.NaN()}
	}
	va := a.Std * a.Std / float64(a.N)
	vb := b.Std * b.Std / float64(b.N)
	se := math.Sqrt(va + vb)
	df := welchDF(a, b)
	t := c.At(df)
	d := a.Mean - b.Mean
	return Interval{d - t*se, d + t*se}
}

// welchDF is the Welch–Satterthwaite effective degrees of freedom.
func welchDF(a, b MeanStd) float64 {
	va := a.Std * a.Std / float64(a.N)
	vb := b.Std * b.Std / float64(b.N)
	num := (va + vb) * (va + vb)
	den := va*va/float64(a.N-1) + vb*vb/float64(b.N-1)
	if den == 0 {
		return math.Inf(1)
	}
	return num / den
}

// TestResult carries the outcome of a two-sample location test.
type TestResult struct {
	Statistic float64 // t (or z) statistic
	DF        float64 // effective degrees of freedom (Inf for z-test)
	PValue    float64 // two-sided p-value
	Diff      float64 // estimated mean difference μa − μb
	DiffCI    Interval
}

// Significant reports whether the null hypothesis of equal means is
// rejected at the given significance level alpha.
func (r TestResult) Significant(alpha float64) bool {
	return !math.IsNaN(r.PValue) && r.PValue < alpha
}

// WelchTTest performs Welch's unequal-variance t-test of H0: μa = μb and
// also reports the (1−alpha) confidence interval of the difference.
func WelchTTest(a, b MeanStd, alpha float64) TestResult {
	if a.N < 2 || b.N < 2 {
		return TestResult{Statistic: math.NaN(), PValue: math.NaN(),
			Diff: math.NaN(), DiffCI: Interval{math.NaN(), math.NaN()}}
	}
	va := a.Std * a.Std / float64(a.N)
	vb := b.Std * b.Std / float64(b.N)
	se := math.Sqrt(va + vb)
	diff := a.Mean - b.Mean
	df := welchDF(a, b)
	var t, p float64
	if se == 0 {
		if diff == 0 {
			t, p = 0, 1
		} else {
			t, p = math.Inf(sign(diff)), 0
		}
	} else {
		t = diff / se
		p = 2 * (1 - StudentTCDF(math.Abs(t), df))
	}
	return TestResult{
		Statistic: t,
		DF:        df,
		PValue:    p,
		Diff:      diff,
		DiffCI:    MeanDiffCI(a, b, 1-alpha),
	}
}

// ZTest performs the large-sample z-test of H0: μa = μb. The paper lists
// it alongside the t-test as an acceptable phase-1 null-hypothesis test;
// it is appropriate here because phase-1 populations contain thousands of
// iterations per frequency.
func ZTest(a, b MeanStd, alpha float64) TestResult {
	if a.N < 2 || b.N < 2 {
		return TestResult{Statistic: math.NaN(), PValue: math.NaN(),
			Diff: math.NaN(), DiffCI: Interval{math.NaN(), math.NaN()}}
	}
	va := a.Std * a.Std / float64(a.N)
	vb := b.Std * b.Std / float64(b.N)
	se := math.Sqrt(va + vb)
	diff := a.Mean - b.Mean
	var z, p float64
	if se == 0 {
		if diff == 0 {
			z, p = 0, 1
		} else {
			z, p = math.Inf(sign(diff)), 0
		}
	} else {
		z = diff / se
		p = 2 * (1 - NormalCDF(math.Abs(z)))
	}
	zc := ZCritical(1 - alpha)
	return TestResult{
		Statistic: z,
		DF:        math.Inf(1),
		PValue:    p,
		Diff:      diff,
		DiffCI:    Interval{diff - zc*se, diff + zc*se},
	}
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}
