package gpu

import (
	"math"

	"golatest/internal/sim/clock"
)

// Folding a confirmation tail.
//
// A block's iteration boundaries are quantised reads of one device
// clock, so n consecutive durations d₁…dₙ sum exactly to the device-time
// span of the chunk, whatever the per-iteration jitter was. A chunk that
// a TailFolder reads therefore needs one normal draw for its host-time
// span, which fixes n and Σd exactly, and one draw for Σd², which
// carries the chunk's spread.
//
// Σd² = SS + (Σd)²/n, SS being the centred sum of squares. Its
// distribution follows from the model, in units of the timer quantum q:
// iteration i lasts xᵢ ~ N(a, b²) (a = μ/q, b = σμ/q), and the device
// time's residual rᵢ = frac(Tᵢ) is a Markov chain rᵢ₊₁ = frac(rᵢ + xᵢ),
// stationary uniform, independent of xᵢ. Then dᵢ = xᵢ + rᵢ − rᵢ₊₁ and,
// with u = x − a, f = frac(x), g = f(1 − f) and β = 2u + 1 − 2f,
//
//	(dᵢ − a)² = uᵢ² + g(xᵢ) + βᵢ·εᵢ,  εᵢ = rᵢ − rᵢ₊₁,
//
// where E[εᵢ | x] = 0 and E[εᵢ² | x] = g(xᵢ). So the timer adds q²·E[g]
// per iteration to the mean square — the quantisation term, which is of
// the order of the jitter itself: σμ ≤ 375 ns against q = 1000 ns on
// every profile — and the εᵢ are correlated along the chain. The
// chain's Fourier modes e^{2πimr} are its eigenfunctions, with
// eigenvalues φ(m) = E[e^{2πimx}] = e^{2πima − 2π²m²b²}, which turns
// every moment below into a sum over modes:
//
//	E[Σ(d − a)²]   = n(b² + E[g])
//	Var(Σd)        = nb² + 1/6 − (1/π²) Σₘ Re φ(m)ⁿ / m²
//	Var(Σ(d − a)²) = n·Var(u² + g) + n·E[β²g]
//	                 − (1/π²) Σₘ Re[Kₙ(φ(m))·(B(m) − B(0))²] / m²
//
// with B(m) = E[β e^{2πimx}] and Kₙ(φ) = Σ_{L=1}^{n−1} (n − L) φ^{L−1},
// the lag sum of the chain's correlations. E[SS] = E[Σ(d − a)²] −
// Var(Σd)/n, and Var(SS) ≈ (n−1)/n · Var(Σ(d − a)²). SS is drawn from
// the gamma distribution with that mean and variance: as q → 0 it is
// σ²μ²·χ²ₙ₋₁, the sample variance of iid normals, exactly.
//
// TestTailMomentsMatchQuantisedWalk checks the moments against a
// simulated walk across the jitter-to-quantum ratios of the profiles.

// minFoldIters is the smallest chunk that folds: the moments above are
// asymptotic in n, so shorter runs (typically the last few iterations
// before a segment boundary) are simulated one by one.
const minFoldIters = 64

// minFoldJitter is the smallest jitter, in timer quanta, whose tail
// folds. Below it the residual chain mixes so slowly that the mode sums
// need ever more terms; every profile sits above 0.1.
const minFoldJitter = 0.05

// foldTable holds the part of a chunk's moments that depends neither on
// its length nor on the device: a pure function of the nominal
// iteration duration, its jitter and the timer quantum. A device and
// its replicas share one table per duration (chip.foldTable).
type foldTable struct {
	q     float64      // timer quantum, ns
	b2    float64      // jitter variance, quanta²
	eg    float64      // E[g]
	iid   float64      // Var(u² + g) + E[β²g]: the per-iteration variance terms
	lag1  float64      // Σₘ Re[(B(m) − B(0))²]/m², over all m ≥ 1
	frac  []float64    // frac(m·a), m = 1..J
	expo  []float64    // −2π²m²b², the log of |φ(m)|, m = 1..J
	phi   []complex128 // φ(m), m = 1..J
	coeff []complex128 // (B(m) − B(0))²/m², m = 1..J
}

// foldCoef is one device's handle on a fold table.
type foldCoef struct {
	*foldTable
	// last memoises moments for the last chunk length asked: the
	// warm-up check folds windows of one length over and over.
	last struct {
		n              int
		mean, variance float64
	}
}

// lagTerms is how many modes the lag-one sum takes exactly; its
// remainder falls like 1/m⁴.
const lagTerms = 64

// newFoldTable computes the coefficients for iterations of nominal
// device duration mu ns with jitter s ns on a timer of quantum q ns.
func newFoldTable(mu, s, q float64) *foldTable {
	a, b := mu/q, s/q
	fa := a - math.Floor(a)
	b2 := b * b
	// Modes past J are below e^{−30} of the first.
	J := int(math.Ceil(math.Sqrt(30/(2*math.Pi*math.Pi)) / b))
	phi := func(j int) complex128 { // φ(j), any sign
		if j == 0 {
			return 1
		}
		aj := float64(j) * fa
		aj -= math.Floor(aj)
		amp := math.Exp(-2 * math.Pi * math.Pi * float64(j*j) * b2)
		s, c := math.Sincos(2 * math.Pi * aj)
		return complex(amp*c, amp*s)
	}
	phis := make([]complex128, 2*J+1)
	for j := -J; j <= J; j++ {
		phis[j+J] = phi(j)
	}
	// expect returns E[u^p·P(x)] for the periodic polynomial P(f) =
	// Σₖ poly[k]·fᵏ, from P's Fourier coefficients.
	expect := func(p int, poly ...float64) float64 {
		var sum complex128
		for j := -J; j <= J; j++ {
			var ck complex128
			if j == 0 {
				for k, c := range poly {
					ck += complex(c/float64(k+1), 0)
				}
			} else {
				w := complex(0, -2*math.Pi*float64(j))
				var prev complex128 // ∫₀¹ fᵏ e^{wf} df, k = 0
				for k, c := range poly {
					if k > 0 {
						prev = (1 - complex(float64(k), 0)*prev) / w
					}
					ck += complex(c, 0) * prev
				}
			}
			var m complex128 = 1
			switch t := 2 * math.Pi * float64(j); p {
			case 1:
				m = complex(0, t*b2)
			case 2:
				m = complex(b2-t*t*b2*b2, 0)
			}
			sum += ck * m * phis[j+J]
		}
		return real(sum)
	}
	eg := expect(0, 0, 1, -1)                        // g = f − f²
	eg2 := expect(0, 0, 0, 1, -2, 1)                 // g²
	eu2g := expect(2, 0, 1, -1)                      // u²g
	euhg := expect(1, 0, 0.5, -1.5, 1)               // u·(½ − f)·g
	eh2g := expect(0, 0, 0.25, -1.25, 2, -1)         // (½ − f)²·g
	varIID := 2*b2*b2 + eg2 - eg*eg + 2*(eu2g-b2*eg) // Var(u² + g)
	eb2g := 4 * (eu2g + 2*euhg + eh2g)               // E[β²g]

	// B(m) = 4πimb²φ(m) + Σ_{k≠m} φ(k)/(πi(k − m)).
	B := func(m int) complex128 {
		var sum complex128
		for k := -J; k <= J; k++ {
			if k != m {
				sum += phis[k+J] / complex(0, math.Pi*float64(k-m))
			}
		}
		if m <= J {
			sum += complex(0, 4*math.Pi*float64(m)*b2) * phis[m+J]
		}
		return sum
	}
	b0 := real(B(0))
	c := &foldTable{q: q, b2: b2, eg: eg, iid: varIID + eb2g}
	// The lag-one sum: its B(0)² part sums to B(0)²π²/6 in closed form,
	// and the rest falls like 1/m⁴.
	c.lag1 = b0 * b0 * math.Pi * math.Pi / 6
	for m := 1; m <= max(J, lagTerms); m++ {
		bm := B(m)
		d := bm - complex(b0, 0)
		mm := float64(m * m)
		c.lag1 += real(bm*bm-complex(2*b0, 0)*bm) / mm
		if m <= J {
			c.frac = append(c.frac, float64(m)*fa-math.Floor(float64(m)*fa))
			c.expo = append(c.expo, -2*math.Pi*math.Pi*mm*b2)
			c.coeff = append(c.coeff, d*d/complex(mm, 0))
		}
	}
	c.phi = phis[J+1:]
	return c
}

// phiPow returns φ(m)ⁿ for mode index i (m = i + 1).
func (c *foldTable) phiPow(i int, n float64) complex128 {
	amp := math.Exp(n * c.expo[i])
	if amp == 0 {
		return 0
	}
	ph := n * c.frac[i]
	s, co := math.Sincos(2 * math.Pi * (ph - math.Floor(ph)))
	return complex(amp*co, amp*s)
}

// moments returns the mean and variance of a chunk's centred sum of
// squares SS, in quanta² and quanta⁴, for n ≥ 2 iterations.
func (c *foldCoef) moments(n int) (mean, variance float64) {
	if c.last.n == n {
		return c.last.mean, c.last.variance
	}
	nf := float64(n)
	varSum := nf*c.b2 + 1.0/6
	// The lag sum past lag one: Kₙ(φ) − (n − 1) = φ·Kₙ₋₁(φ).
	lags := (nf - 1) * c.lag1
	// |φ(m)|ⁿ⁻¹ falls with m, so once it underflows it stays 0.
	var pn1 complex128 = 1
	for i := range c.coeff {
		phi := c.phi[i]
		if phi == 0 {
			break
		}
		if pn1 != 0 {
			pn1 = c.phiPow(i, nf-1)
		}
		varSum -= real(pn1*phi) / (math.Pi * math.Pi * float64((i+1)*(i+1)))
		one := 1 - phi
		k := (complex(nf-1, 0)*one - (1 - pn1)) / (one * one)
		lags += real(phi * k * c.coeff[i])
	}
	mean = nf*(c.b2+c.eg) - varSum/nf
	variance = (nf - 1) / nf * (nf*c.iid - lags/(math.Pi*math.Pi))
	c.last.n, c.last.mean, c.last.variance = n, mean, variance
	return mean, variance
}

// gamma draws from the gamma distribution with the given shape ≥ 1 and
// scale (Marsaglia and Tsang's method).
func gamma(r *clock.Rand, shape, scale float64) float64 {
	d := shape - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.Normal(0, 1)
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		if u := r.Float64(); math.Log(u) < x*x/2+d-d*v+d*math.Log(v) {
			return d * v * scale
		}
	}
}

// sumSquares draws the Σd² (ns²) of a chunk of n iterations whose
// durations sum to sumNs: SS from its gamma law, plus (Σd)²/n.
func (c *foldCoef) sumSquares(r *clock.Rand, n int, sumNs int64) int64 {
	ss, v := c.moments(n)
	if v > 0 && ss > 0 {
		ss = gamma(r, max(1, ss*ss/v), v/ss)
	}
	sum := float64(sumNs)
	return int64(math.Round(ss*c.q*c.q + sum*sum/float64(n)))
}
