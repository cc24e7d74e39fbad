package stats

import "math"

// Interval is a closed interval [Lo, Hi] on the real line.
type Interval struct {
	Lo, Hi float64
}

// Contains reports whether x lies inside the interval.
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// ContainsZero reports whether the interval straddles zero — the paper's
// pair-exclusion criterion (phase 1) and FTaLaT's confirmation both ask
// this of a mean-difference interval.
func (iv Interval) ContainsZero() bool { return iv.Contains(0) }

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
