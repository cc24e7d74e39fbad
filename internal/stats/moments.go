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

// Describe computes the MeanStd of xs in a single pass through an
// Accumulator (Welford's algorithm, numerically stable for the
// microsecond-scale timings with nanosecond noise the simulator
// produces).
func Describe(xs []float64) MeanStd {
	var a Accumulator
	for _, x := range xs {
		a.Add(x)
	}
	return a.MeanStd()
}

// meanStd freezes a count, mean and sum of squared deviations m2 into a
// MeanStd: mean and deviation are NaN for no observations, the deviation
// for one.
func meanStd(n int, mean, m2 float64) MeanStd {
	switch n {
	case 0:
		return MeanStd{Mean: math.NaN(), Std: math.NaN()}
	case 1:
		return MeanStd{N: 1, Mean: mean, Std: math.NaN()}
	}
	return MeanStd{N: n, Mean: mean, Std: math.Sqrt(m2 / float64(n-1))}
}

// StdErr returns the standard error of the mean, Std/√N.
func (m MeanStd) StdErr() float64 {
	if m.N < 2 {
		return math.NaN()
	}
	return m.Std / math.Sqrt(float64(m.N))
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
func (a *Accumulator) MeanStd() MeanStd { return meanStd(a.n, a.mean, a.m2) }

// MomentAccumulator is phase 1's streaming mean and deviation: one per
// characterised clock, fed every iteration of its last warm kernel. It
// is kept apart from Accumulator because its recurrence (Pébay's
// one-pass update, m2 += δ·(δ/n)·(n−1)) rounds differently from
// Accumulator's m2 += δ·(x − mean): over the same input the two Stds
// often differ in the last bits. Phase-1 Std sets every detection band,
// so every verdict, sample and blob depends on these bits; changing the
// recurrence changes results.
type MomentAccumulator struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (a *MomentAccumulator) Add(x float64) {
	n1 := float64(a.n)
	a.n++
	n := float64(a.n)
	delta := x - a.mean
	dn := delta / n
	term1 := delta * dn * n1
	a.mean += dn
	a.m2 += term1
}

// N reports the number of observations added so far.
func (a *MomentAccumulator) N() int { return a.n }

// Reset returns the accumulator to its empty state so callers can reuse
// one allocation across kernels.
func (a *MomentAccumulator) Reset() { *a = MomentAccumulator{} }

// MeanStd freezes the accumulator into a MeanStd snapshot.
func (a *MomentAccumulator) MeanStd() MeanStd { return meanStd(a.n, a.mean, a.m2) }
