// Package stats implements the statistical machinery the LATEST
// methodology depends on: descriptive estimators (mean, sample standard
// deviation, standard error of the mean, relative standard error),
// streaming mean and deviation accumulators, normal and Student-t
// critical values, the Welch mean-difference interval, and quantile and
// histogram utilities.
//
// Everything operates on float64 slices and is allocation-conscious: the
// phase-3 evaluation scans millions of iteration timings per campaign.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance (divisor n-1) of xs.
// It returns NaN for fewer than two samples.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	mean := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return ss / float64(n-1)
}

// Stdev returns the sample standard deviation of xs (NaN for n < 2).
func Stdev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// StdErr returns the standard error of the mean, σ/√n — the σ0 of the
// paper's equation (2). NaN for n < 2.
func StdErr(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	return Stdev(xs) / math.Sqrt(float64(len(xs)))
}

// RSE returns the relative standard error StdErr/|Mean| used by the
// benchmark's stopping rule (§VI: stop once RSE < threshold).
// It returns +Inf when the mean is zero and NaN for n < 2.
func RSE(xs []float64) float64 {
	m := Mean(xs)
	se := StdErr(xs)
	if math.IsNaN(se) {
		return math.NaN()
	}
	if m == 0 {
		return math.Inf(1)
	}
	return se / math.Abs(m)
}

// MinMax returns the smallest and largest element of xs.
// It returns (NaN, NaN) for an empty slice.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics (type-7, the numpy default).
// xs need not be sorted; the function does not modify it.
// It returns NaN for an empty slice or q outside [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// QuantileRange returns Quantile(xs, hi) − Quantile(xs, lo); the paper's
// Algorithm 3 uses the 0.05–0.95 range to derive the DBSCAN eps.
func QuantileRange(xs []float64, lo, hi float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, hi) - quantileSorted(sorted, lo)
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }
