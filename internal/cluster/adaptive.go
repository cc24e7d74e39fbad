package cluster

import (
	"math"

	"golatest/internal/stats"
)

// Algorithm 3's fixed parameters, as the paper's data analysis settled
// them across all three GPUs.
const (
	// epsMultiplier scales the 0.05–0.95 quantile range to obtain eps.
	epsMultiplier = 0.15
	// minPtsStartFrac and minPtsEndFrac bound the minPts sweep as dataset
	// fractions; the paper walks from 4 % down to 2 % in steps of 2.
	minPtsStartFrac = 0.04
	minPtsEndFrac   = 0.02
	// minPtsStep is the decrement applied to minPts per iteration.
	minPtsStep = 2
	// maxNoiseRatio is the acceptance threshold: the sweep halts at the
	// first configuration marking at most this fraction as outliers.
	maxNoiseRatio = 0.10
)

// AdaptiveConfig parameterises the iterative DBSCAN outlier detection of
// the paper's Algorithm 3.
type AdaptiveConfig struct {
	// MinPtsFloor clamps the smallest minPts ever used. The paper's
	// guideline is dimensionality+1 or a multiple of two of it; for the
	// one-dimensional latency data we default to 4.
	MinPtsFloor int
}

// DefaultAdaptiveConfig returns the configuration used throughout the
// paper's evaluation (§VII: minPts 8→15 range driven by dataset size,
// eps = 0.15 × quantile range, ≤10 % outliers).
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{MinPtsFloor: 4}
}

// Adaptive runs Algorithm 3: DBSCAN with eps fixed from the quantile
// range and minPts swept from ceil(startFrac·n) down to floor(endFrac·n),
// stopping at the first clustering whose noise ratio drops to
// maxNoiseRatio or below. The last attempted clustering is returned even
// if no configuration met the threshold (callers can inspect NoiseRatio).
func Adaptive(xs []float64, cfg AdaptiveConfig) *Result {
	n := len(xs)
	if n == 0 {
		return &Result{}
	}
	if cfg.MinPtsFloor <= 0 {
		cfg.MinPtsFloor = 4
	}

	qr := stats.QuantileRange(xs, 0.05, 0.95)
	eps := epsMultiplier * qr
	if eps <= 0 || math.IsNaN(eps) {
		// Degenerate spread (identical samples): one cluster, no outliers.
		eps = math.Max(1e-12, math.Abs(xs[0])*1e-9)
	}

	start := int(math.Ceil(minPtsStartFrac * float64(n)))
	end := int(math.Floor(minPtsEndFrac * float64(n)))
	if start < cfg.MinPtsFloor {
		start = cfg.MinPtsFloor
	}
	if end < cfg.MinPtsFloor {
		end = cfg.MinPtsFloor
	}
	if end > start {
		end = start
	}

	var last *Result
	for minPts := start; minPts >= end; minPts -= minPtsStep {
		last = DBSCAN(xs, eps, minPts)
		if last.NoiseRatio() <= maxNoiseRatio {
			return last
		}
	}
	return last
}

// FilterOutliers runs Adaptive and splits xs into kept (clustered) and
// outlier values, preserving input order within each slice. It also
// returns the clustering for callers that need cluster structure (e.g.
// the multi-cluster census of §VII-B).
func FilterOutliers(xs []float64, cfg AdaptiveConfig) (kept, outliers []float64, res *Result) {
	res = Adaptive(xs, cfg)
	kept = make([]float64, 0, len(xs))
	for i, l := range res.Labels {
		if l == Noise {
			outliers = append(outliers, xs[i])
		} else {
			kept = append(kept, xs[i])
		}
	}
	return kept, outliers, res
}
