package gpu

import (
	"math"

	"golatest/internal/sim/clock"
	"golatest/internal/stats"
)

// Thinning a heard segment.
//
// Before its tail, a TailFolder reacts only to iterations whose device
// duration lies in its band. When a segment's iterations reach the band
// only in one tail of their jitter, nearly every iteration delivered is
// one the sink ignores. An iteration of nominal host duration μ draws its
// jitter as 1 + σZ, Z standard normal, and lasts h = round(μ(1 + σZ)) host
// ns. Its device duration can lie in the band [lo, hi] only if h, scaled
// by the clock drift, lies within [lo − q − 2, hi + q + 2] (q the timer
// quantum: the margin the segment gate trusts for quantisation and drift
// truncation), so only draws in one interval [zLo, zHi], widened by 1 ns
// for the rounding, can: call those candidates. The draws are iid, so the
// device draws how many non-candidates come before the next candidate,
// K ~ Geometric(p) with p = P(zLo ≤ Z ≤ zHi), lets them elapse in one
// chunk whose draw takes the moments of Z conditioned outside the
// interval, and draws the candidate's Z from the normal truncated to it.
// The geometric has no memory, so a chunk cut short by its segment's end,
// or a candidate that misses the band, simply redraws.

// thinBelow is the largest candidate probability at which a segment is
// thinned: above it, too few iterations elapse per draw to pay.
const thinBelow = 0.05

// thinning is one segment's candidate interval of the jitter draw Z. It
// is kept mirrored (Z → −Z, sign −1) when the interval lies below 0, so
// that its tail probabilities are upper-tail ones, which erfc keeps
// exact far into the tail (1 − Q(z) rounds to 1 past z ≈ 8).
type thinning struct {
	sign     float64 // −1 when the interval is mirrored
	zLo, zHi float64 // the (mirrored) candidate interval
	qLo, p   float64 // Q(zLo) and the candidate probability
	logMiss  float64 // log(1 − p)
	mean, sd float64 // a non-candidate's Z: its mean and deviation
}

// newThinning returns the thinning of the candidate interval [zLo, zHi]
// of a standard normal draw, and whether it is worth it: its candidate
// probability is below thinBelow (false for a NaN bound).
func newThinning(zLo, zHi float64) (thinning, bool) {
	th := thinning{sign: 1}
	if zHi < 0 {
		th.sign, zLo, zHi = -1, -zHi, -zLo
	}
	qLo := normQ(zLo)
	p := qLo - normQ(zHi)
	if !(p < thinBelow) {
		return th, false
	}
	// Z outside [zLo, zHi]: E[Z] = −(φ(zLo) − φ(zHi))/(1 − p) and
	// E[Z²] = (1 − p − zLo·φ(zLo) + zHi·φ(zHi))/(1 − p).
	miss := 1 - p
	mean := (normPDF(zHi) - normPDF(zLo)) / miss
	sq := (miss - zPDF(zLo) + zPDF(zHi)) / miss
	th.zLo, th.zHi, th.qLo, th.p = zLo, zHi, qLo, p
	th.logMiss = math.Log1p(-p)
	th.mean, th.sd = th.sign*mean, math.Sqrt(math.Max(0, sq-mean*mean))
	return th, true
}

// misses draws how many non-candidates come before the next candidate,
// capped at n: n means no candidate among the next n iterations.
func (th *thinning) misses(r *clock.Rand, n int) int {
	if th.logMiss == 0 {
		return n // p underflowed
	}
	k := math.Log1p(-r.Float64()) / th.logMiss
	if !(k < float64(n)) {
		return n
	}
	return int(k)
}

// missNs draws the host time n non-candidates of nominal duration mu ns
// and relative jitter sigma take together, like chunkNs with the moments
// of a non-candidate's draw.
func (th *thinning) missNs(r *clock.Rand, n int, mu, sigma float64) int64 {
	nf := float64(n)
	return roundNs(mu * (nf + sigma*(nf*th.mean+th.sd*math.Sqrt(nf)*r.Normal(0, 1))))
}

// candidate draws a candidate's Z: the normal truncated to the interval,
// by inverting its survival function Q(z) = Φ(−z). A heard segment's
// interval starts within about trustSigmas of 0, so Q stays far above
// the 1e-300 floor that keeps the inverse finite.
func (th *thinning) candidate(r *clock.Rand) float64 {
	q := math.Max(th.qLo-r.Float64()*th.p, 1e-300)
	return th.sign * math.Min(th.zHi, math.Max(th.zLo, -stats.NormalQuantile(q)))
}

// normQ is the standard normal survival function P(Z > z).
func normQ(z float64) float64 { return math.Erfc(z/math.Sqrt2) / 2 }

// normPDF is the standard normal density.
func normPDF(z float64) float64 { return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi) }

// zPDF is z·φ(z), which is 0 at ±∞.
func zPDF(z float64) float64 {
	if math.IsInf(z, 0) {
		return 0
	}
	return z * normPDF(z)
}
