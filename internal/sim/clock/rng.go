package clock

import (
	"math"
	"math/rand/v2"
)

// Rand is the simulator's deterministic random stream.
//
// Each independently evolving component (one per GPU device, one per link,
// one per workload) derives its own child stream so that adding draws in
// one component never perturbs another — a requirement for the
// measured-vs-injected validation tests, which re-run campaigns with the
// same seed and expect bit-identical device behaviour.
type Rand struct {
	src *rand.Rand
	pcg *rand.PCG // retained so ChildInto can re-seed in place
}

// NewRand returns a stream seeded from the two 64-bit words.
// The same (seed1, seed2) always produces the same draw sequence.
func NewRand(seed1, seed2 uint64) *Rand {
	pcg := rand.NewPCG(seed1, seed2)
	return &Rand{src: rand.New(pcg), pcg: pcg}
}

// SplitMix64 is the SplitMix64 finaliser: it spreads structured inputs
// (small consecutive tags, float bit patterns) into well-separated
// 64-bit values. It is the one place this mixing lives; seed-derivation
// code elsewhere must call it rather than re-inline the constants.
func SplitMix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// childSeeds derives the PCG seed words of the child stream labelled by
// tag, advancing the parent by one draw. The tag is mixed through
// SplitMix64 so that small consecutive tags give well-separated seeds.
func (r *Rand) childSeeds(tag uint64) (uint64, uint64) {
	z := SplitMix64(tag)
	return r.src.Uint64() ^ z, z
}

// Child derives an independent stream labelled by the given tag.
// Distinct tags yield streams that do not share state with the parent or
// with each other.
func (r *Rand) Child(tag uint64) *Rand {
	s1, s2 := r.childSeeds(tag)
	return NewRand(s1, s2)
}

// ChildInto re-seeds scratch to the exact draw sequence Child(tag) would
// return, without allocating. It exists for the simulator's per-kernel
// and per-SM streams, which the hot materialisation path derives
// thousands of times per campaign; a caller-owned scratch stream absorbs
// them all. scratch must come from NewRand and must not be the receiver.
func (r *Rand) ChildInto(scratch *Rand, tag uint64) *Rand {
	s1, s2 := r.childSeeds(tag)
	scratch.pcg.Seed(s1, s2)
	return scratch
}

// Float64 returns a uniform draw in [0, 1).
func (r *Rand) Float64() float64 { return r.src.Float64() }

// Uniform returns a uniform draw in [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.src.Float64()
}

// Normal returns a draw from the normal distribution N(mean, sigma²).
func (r *Rand) Normal(mean, sigma float64) float64 {
	return mean + sigma*r.src.NormFloat64()
}

// LogNormal returns exp(N(mu, sigma²)); used for heavy-tailed driver
// latencies where occasional large values must remain positive.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.src.NormFloat64())
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.src.Float64() < p }

// PickWeighted returns an index in [0, len(weights)) with probability
// proportional to weights[i]. Weights must be non-negative with a positive
// sum; otherwise index 0 is returned.
func (r *Rand) PickWeighted(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	x := r.src.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
