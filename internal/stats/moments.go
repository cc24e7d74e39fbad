package stats

import "math"

// MeanStd bundles the sufficient statistics the methodology carries
// between phases: sample count, mean, and sample standard deviation.
// Phase 1 produces one MeanStd per characterised frequency; phase 3
// compares fresh iteration populations against it.
type MeanStd struct {
	N    int
	Mean float64
	Std  float64
}

// Describe computes the MeanStd of xs in a single pass (Welford's
// algorithm, numerically stable for the microsecond-scale timings with
// nanosecond noise the simulator produces).
func Describe(xs []float64) MeanStd {
	var (
		n    int
		mean float64
		m2   float64
	)
	for _, x := range xs {
		n++
		delta := x - mean
		mean += delta / float64(n)
		m2 += delta * (x - mean)
	}
	ms := MeanStd{N: n, Mean: mean}
	switch {
	case n == 0:
		ms.Mean = math.NaN()
		ms.Std = math.NaN()
	case n == 1:
		ms.Std = math.NaN()
	default:
		ms.Std = math.Sqrt(m2 / float64(n-1))
	}
	return ms
}

// StdErr returns the standard error of the mean, Std/√N.
func (m MeanStd) StdErr() float64 {
	if m.N < 2 {
		return math.NaN()
	}
	return m.Std / math.Sqrt(float64(m.N))
}

// RSE returns the relative standard error of the mean.
func (m MeanStd) RSE() float64 {
	se := m.StdErr()
	if math.IsNaN(se) {
		return math.NaN()
	}
	if m.Mean == 0 {
		return math.Inf(1)
	}
	return se / math.Abs(m.Mean)
}

// TwoSigmaBounds returns the (mean − 2σ, mean + 2σ) acceptance band the
// accelerator methodology uses in place of FTaLaT's confidence interval
// (§V-A): roughly 95 % of individual iteration times fall inside it when
// the population is approximately normal.
func (m MeanStd) TwoSigmaBounds() (lo, hi float64) {
	return m.Mean - 2*m.Std, m.Mean + 2*m.Std
}

// SigmaBounds generalises TwoSigmaBounds to an arbitrary multiple k.
func (m MeanStd) SigmaBounds(k float64) (lo, hi float64) {
	return m.Mean - k*m.Std, m.Mean + k*m.Std
}

// Contains reports whether x lies within k standard deviations of the
// mean. This is the phase-3 per-iteration acceptance predicate.
func (m MeanStd) Contains(x, k float64) bool {
	return math.Abs(x-m.Mean) <= k*m.Std
}

// Accumulator incrementally builds a MeanStd, so streaming scans (the
// warm-up tail windows, the FTaLaT baseline) fold thousands of timings
// without materialising intermediate slices.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// N reports the number of observations added so far.
func (a *Accumulator) N() int { return a.n }

// MeanStd freezes the accumulator into a MeanStd snapshot.
func (a *Accumulator) MeanStd() MeanStd {
	ms := MeanStd{N: a.n, Mean: a.mean}
	switch {
	case a.n == 0:
		ms.Mean = math.NaN()
		ms.Std = math.NaN()
	case a.n == 1:
		ms.Std = math.NaN()
	default:
		ms.Std = math.Sqrt(a.m2 / float64(a.n-1))
	}
	return ms
}

// MomentAccumulator extends Accumulator to the third and fourth central
// moments, so the streaming kernel-statistics path can run the phase-1
// normality diagnostic (skewness/kurtosis) without materialising the
// iteration population. Updates follow Pébay's one-pass formulas; the
// mean/M2 recurrences are identical to Accumulator's, so Mean and Std
// match Describe bit-for-bit over the same input order.
type MomentAccumulator struct {
	n          int
	mean       float64
	m2, m3, m4 float64
}

// Add folds one observation into the accumulator.
func (a *MomentAccumulator) Add(x float64) {
	n1 := float64(a.n)
	a.n++
	n := float64(a.n)
	delta := x - a.mean
	dn := delta / n
	dn2 := dn * dn
	term1 := delta * dn * n1
	a.mean += dn
	a.m4 += term1*dn2*(n*n-3*n+3) + 6*dn2*a.m2 - 4*dn*a.m3
	a.m3 += term1*dn*(n-2) - 3*dn*a.m2
	a.m2 += term1
}

// N reports the number of observations added so far.
func (a *MomentAccumulator) N() int { return a.n }

// Reset returns the accumulator to its empty state so callers can reuse
// one allocation across kernels.
func (a *MomentAccumulator) Reset() { *a = MomentAccumulator{} }

// MeanStd freezes the accumulator into a MeanStd snapshot.
func (a *MomentAccumulator) MeanStd() MeanStd {
	ms := MeanStd{N: a.n, Mean: a.mean}
	switch {
	case a.n == 0:
		ms.Mean = math.NaN()
		ms.Std = math.NaN()
	case a.n == 1:
		ms.Std = math.NaN()
	default:
		ms.Std = math.Sqrt(a.m2 / float64(a.n-1))
	}
	return ms
}

// Skewness returns the sample skewness (g1), or NaN for n < 3 or zero
// variance, matching the slice-based Skewness convention.
func (a *MomentAccumulator) Skewness() float64 {
	if a.n < 3 || a.m2 == 0 {
		return math.NaN()
	}
	n := float64(a.n)
	return math.Sqrt(n) * a.m3 / math.Pow(a.m2, 1.5)
}

// ExcessKurtosis returns the sample excess kurtosis (g2), or NaN for
// n < 4 or zero variance, matching the slice-based convention.
func (a *MomentAccumulator) ExcessKurtosis() float64 {
	if a.n < 4 || a.m2 == 0 {
		return math.NaN()
	}
	n := float64(a.n)
	return n*a.m4/(a.m2*a.m2) - 3
}

// Merge combines another accumulator into this one (parallel reduction of
// per-SM partial statistics; Chan et al. parallel variance formula).
func (a *Accumulator) Merge(b *Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	na, nb := float64(a.n), float64(b.n)
	delta := b.mean - a.mean
	total := na + nb
	a.mean += delta * nb / total
	a.m2 += b.m2 + delta*delta*na*nb/total
	a.n += b.n
}
