package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary is the full descriptive digest reports are built from: the
// five-number summary plus mean/stdev and the 5–95 % quantiles used for
// violin rendering and DBSCAN eps selection.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	Q05    float64
	Q25    float64
	Median float64
	Q75    float64
	Q95    float64
	Max    float64
}

// Summarize computes the Summary of xs. For an empty slice all fields are
// NaN (with N = 0).
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		nan := math.NaN()
		return Summary{Mean: nan, Std: nan, Min: nan, Q05: nan, Q25: nan,
			Median: nan, Q75: nan, Q95: nan, Max: nan}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	ms := Describe(xs)
	return Summary{
		N:      len(xs),
		Mean:   ms.Mean,
		Std:    ms.Std,
		Min:    sorted[0],
		Q05:    quantileSorted(sorted, 0.05),
		Q25:    quantileSorted(sorted, 0.25),
		Median: quantileSorted(sorted, 0.50),
		Q75:    quantileSorted(sorted, 0.75),
		Q95:    quantileSorted(sorted, 0.95),
		Max:    sorted[len(sorted)-1],
	}
}

// String renders the summary compactly for logs and CLI output.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f std=%.3f min=%.3f p50=%.3f p95=%.3f max=%.3f",
		s.N, s.Mean, s.Std, s.Min, s.Median, s.Q95, s.Max)
}

// Histogram is a fixed-width-bin histogram over [Lo, Hi).
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Under  int // samples below Lo
	Over   int // samples at or above Hi
}

// NewHistogram bins xs into nbins equal-width bins spanning [lo, hi).
func NewHistogram(xs []float64, lo, hi float64, nbins int) *Histogram {
	if nbins <= 0 || hi <= lo {
		return &Histogram{Lo: lo, Hi: hi}
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, nbins)}
	width := (hi - lo) / float64(nbins)
	for _, x := range xs {
		switch {
		case x < lo:
			h.Under++
		case x >= hi:
			h.Over++
		default:
			idx := int((x - lo) / width)
			if idx >= nbins { // guard against FP rounding at the edge
				idx = nbins - 1
			}
			h.Counts[idx]++
		}
	}
	return h
}

// Total returns the number of samples inside the histogram range.
func (h *Histogram) Total() int {
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	return total
}

// Mode returns the index of the fullest bin (first one on ties), or -1
// for an empty histogram.
func (h *Histogram) Mode() int {
	best, bestCount := -1, 0
	for i, c := range h.Counts {
		if c > bestCount {
			best, bestCount = i, c
		}
	}
	return best
}
