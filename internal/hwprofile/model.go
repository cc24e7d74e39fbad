// Package hwprofile encodes the three GPUs of the paper's evaluation —
// GH200, A100-SXM4, and RTX Quadro 6000 — as simulator configurations:
// the Table I metadata (SM counts, clock tables, driver strings) and,
// crucially, per-architecture DVFS latency models calibrated against the
// paper's measured distributions (Table II, Fig. 3 heatmaps, Fig. 4
// violins, Fig. 5/6 cluster structure, Fig. 7–9 manufacturing spread).
//
// Each model maps a frequency pair (init → target) to a mixture
// distribution over switching latencies. The mixtures are deterministic
// functions of the pair (via a pair hash), so a pair's character — which
// target rows are pathological, whether a low cluster exists, where its
// ceiling sits — is stable across runs and across device instances, while
// individual draws vary. Per-instance jitter terms reproduce the
// unit-to-unit manufacturing variability of §VII-C without making any
// single instance systematically worse (Fig. 9's finding).
package hwprofile

import (
	"math"
	"sync"

	"golatest/internal/sim/clock"
	"golatest/internal/sim/gpu"
)

// Mode is one component of a pair's latency mixture.
type Mode struct {
	MeanMs  float64
	SigmaMs float64
	Weight  float64
}

// Skew is an optional right-skewed component: OriginMs plus a lognormal
// offset with the given median and log-sigma, capped at CapMs (draws
// beyond the cap are smeared into the region just below it). Its body is
// dense near the origin and thins smoothly toward the cap, so DBSCAN
// chains the pair into a single broad cluster — the A100 and GH200
// normal-pair signature — while max statistics still reach the ceiling.
type Skew struct {
	Weight   float64
	OriginMs float64
	MedianMs float64 // median of the lognormal offset above the origin
	SigmaLog float64
	CapMs    float64
}

// PairDist is the sampled-from distribution of one frequency pair.
type PairDist struct {
	Modes []Mode
	// Skew, when non-nil, participates in mode selection with its Weight.
	Skew *Skew
	// FloorMs clamps every non-outlier draw from below, keeping broad
	// lobes from dipping under the pair's physical floor.
	FloorMs     float64
	OutlierProb float64
	OutlierLoMs float64
	OutlierHiMs float64
}

// Model is an architecture DVFS latency model implementing
// gpu.LatencyModel. Classify must be a pure function of the pair. A
// Model is safe for concurrent use: every replica of a device samples
// the same one.
type Model struct {
	// BusDelayMeanNs/JitterNs model the CPU→device command travel time
	// (the switching-vs-transition gap of Fig. 2).
	BusDelayMeanNs   float64
	BusDelayJitterNs float64
	// Classify returns the latency mixture of a pair.
	Classify func(initMHz, targetMHz float64) PairDist

	// classified memoises Classify per pair; the clock table bounds it.
	mu         sync.RWMutex
	classified map[[2]float64]*PairDist
}

// dist returns the memoised latency mixture of a pair.
func (m *Model) dist(initMHz, targetMHz float64) *PairDist {
	key := [2]float64{initMHz, targetMHz}
	m.mu.RLock()
	d, ok := m.classified[key]
	m.mu.RUnlock()
	if ok {
		return d
	}
	c := m.Classify(initMHz, targetMHz)
	m.mu.Lock()
	defer m.mu.Unlock()
	if d, ok := m.classified[key]; ok {
		return d
	}
	if m.classified == nil {
		m.classified = make(map[[2]float64]*PairDist)
	}
	m.classified[key] = &c
	return &c
}

// Sample implements gpu.LatencyModel.
func (m *Model) Sample(initMHz, targetMHz float64, r *clock.Rand) gpu.Transition {
	d := m.dist(initMHz, targetMHz)
	var latMs float64
	if d.OutlierProb > 0 && r.Bool(d.OutlierProb) {
		latMs = r.Uniform(d.OutlierLoMs, d.OutlierHiMs)
	} else {
		n := len(d.Modes)
		if d.Skew != nil {
			n++
		}
		var buf [8]float64 // every profile's mixture fits
		weights := buf[:]
		if n > len(buf) {
			weights = make([]float64, n)
		}
		weights = weights[:n]
		for i, mo := range d.Modes {
			weights[i] = mo.Weight
		}
		if d.Skew != nil {
			weights[n-1] = d.Skew.Weight
		}
		pick := r.PickWeighted(weights)
		if d.Skew != nil && pick == n-1 {
			sk := d.Skew
			latMs = sk.OriginMs + r.LogNormal(math.Log(sk.MedianMs), sk.SigmaLog)
			if sk.CapMs > 0 && latMs > sk.CapMs {
				// Smear over-cap draws across the upper band of the
				// range: keeps the ceiling populated without creating a
				// detached lobe DBSCAN would split off.
				latMs = sk.CapMs - r.Uniform(0, 0.70*(sk.CapMs-sk.OriginMs))
			}
		} else {
			mo := d.Modes[pick]
			latMs = r.Normal(mo.MeanMs, mo.SigmaMs)
		}
		if latMs < d.FloorMs {
			latMs = d.FloorMs
		}
	}
	if latMs < 0.05 {
		latMs = 0.05
	}
	bus := r.Normal(m.BusDelayMeanNs, m.BusDelayJitterNs)
	if bus < 1000 {
		bus = 1000
	}
	total := int64(latMs * 1e6)
	busNs := int64(bus)
	if busNs > total {
		busNs = total / 2
	}
	// The sampled latency is the full request→completion time; the bus
	// delay is carved out of it so Injection bookkeeping matches Fig. 2.
	return gpu.Transition{BusDelayNs: busNs, DurationNs: total - busNs}
}

// pairHash returns a deterministic uniform draw in [0, 1) for the pair
// and salt, independent across salts. It is the mechanism that freezes a
// pair's mixture shape across runs and instances.
func pairHash(seed uint64, initMHz, targetMHz float64, salt uint64) float64 {
	h := seed ^ 0x9e3779b97f4a7c15
	for _, v := range []uint64{math.Float64bits(initMHz), math.Float64bits(targetMHz), salt} {
		h ^= v
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		h *= 0xc4ceb9fe1a85ec53
		h ^= h >> 33
	}
	return float64(h>>11) / (1 << 53)
}

// normalizeWeights rescales mode weights to sum to 1, dropping
// non-positive entries.
func normalizeWeights(modes []Mode) []Mode {
	var sum float64
	out := modes[:0]
	for _, mo := range modes {
		if mo.Weight > 0 {
			sum += mo.Weight
			out = append(out, mo)
		}
	}
	for i := range out {
		out[i].Weight /= sum
	}
	return out
}
