package stats

import "math"

// The accelerator methodology leans on approximate normality twice: the
// 2σ acceptance band "assuming the execution time distribution
// approximates a normal distribution" (§V-A) and the z/t tests of
// phase 1. This file provides the Jarque–Bera moment diagnostic so the
// runner can warn when a population is too skewed or heavy-tailed for
// those assumptions to hold.

// Skewness returns the sample skewness (g1) of xs, or NaN for n < 3 or
// zero variance.
func Skewness(xs []float64) float64 {
	n := float64(len(xs))
	if n < 3 {
		return math.NaN()
	}
	mean := Mean(xs)
	var m2, m3 float64
	for _, x := range xs {
		d := x - mean
		m2 += d * d
		m3 += d * d * d
	}
	m2 /= n
	m3 /= n
	if m2 == 0 {
		return math.NaN()
	}
	return m3 / math.Pow(m2, 1.5)
}

// ExcessKurtosis returns the sample excess kurtosis (g2) of xs, or NaN
// for n < 4 or zero variance.
func ExcessKurtosis(xs []float64) float64 {
	n := float64(len(xs))
	if n < 4 {
		return math.NaN()
	}
	mean := Mean(xs)
	var m2, m4 float64
	for _, x := range xs {
		d := x - mean
		d2 := d * d
		m2 += d2
		m4 += d2 * d2
	}
	m2 /= n
	m4 /= n
	if m2 == 0 {
		return math.NaN()
	}
	return m4/(m2*m2) - 3
}

// JarqueBera computes the Jarque–Bera statistic of xs:
//
//	JB = n/6 · (g1² + g2²/4)
//
// which is asymptotically χ²(2) under normality. The returned p-value
// uses the χ²(2) closed form exp(−JB/2).
func JarqueBera(xs []float64) (statistic, pValue float64) {
	n := float64(len(xs))
	if n < 8 {
		return math.NaN(), math.NaN()
	}
	g1 := Skewness(xs)
	g2 := ExcessKurtosis(xs)
	if math.IsNaN(g1) || math.IsNaN(g2) {
		return math.NaN(), math.NaN()
	}
	jb := n / 6 * (g1*g1 + g2*g2/4)
	return jb, math.Exp(-jb / 2)
}

// ApproximatelyNormal reports whether xs is consistent with normality at
// the given significance level (the null hypothesis of normality is NOT
// rejected). It errs permissive on small samples, where the methodology's
// bands are dominated by other error sources anyway.
func ApproximatelyNormal(xs []float64, alpha float64) bool {
	_, p := JarqueBera(xs)
	if math.IsNaN(p) {
		return true
	}
	return p >= alpha
}

// QuantisedNormalShape describes a normal duration read off a timer
// whose step is the unit: d = ⌊r + x⌋ for x ~ N(a, b²) and a uniform
// residual r, so P(d = k) = E[(1 − |k − x|)₊], a normal smoothed by a
// unit triangle and sampled on the integers. Given the population's mean
// a and variance (in steps and steps²), it picks the b whose law has
// that variance (b = 0 when even a noiseless x has more) and returns
// the law's skewness γ1 and excess kurtosis γ2, and the standard errors
// of the sample skewness and excess kurtosis of n independent draws
// from it (delta method). A population whose jitter spans a few steps
// or less is a lattice of a few points, whose shape is far from a
// continuous normal's; past 20 steps the lattice is negligible and the
// continuous normal's values are returned.
func QuantisedNormalShape(mean, variance float64, n int) (g1, g2, se1, se2 float64) {
	nf := float64(n)
	if !(variance > 0) || n < 4 {
		return 0, 0, math.NaN(), math.NaN()
	}
	if variance > 400 {
		return 0, 0, math.Sqrt(6 / nf), math.Sqrt(24 / nf)
	}
	a := mean - math.Floor(mean) // the shape depends on frac(a) alone
	var p []float64
	var lo int
	law := func(b float64) float64 { // fills p and lo, returns the variance
		p, lo = quantisedNormalLaw(a, b, p)
		var v float64
		for i, pk := range p {
			y := float64(lo+i) - a
			v += pk * y * y
		}
		return v
	}
	b := 0.0
	if law(0) < variance {
		// The law's variance is b² + E[f(1 − f)], f = frac(x), which
		// lies in [b², b² + 1/4]: so b lies within 1/2 below √variance.
		below, above := math.Sqrt(max(0, variance-0.25)), math.Sqrt(variance)
		for i := 0; i < 24; i++ {
			mid := (below + above) / 2
			if law(mid) < variance {
				below = mid
			} else {
				above = mid
			}
		}
		b = (below + above) / 2
	}
	law(b)
	var m, m2, m3, m4 float64
	for i, pk := range p {
		m += pk * float64(lo+i)
	}
	for i, pk := range p {
		y := float64(lo+i) - m
		m2 += pk * y * y
		m3 += pk * y * y * y
		m4 += pk * y * y * y * y
	}
	g1 = m3 / math.Pow(m2, 1.5)
	g2 = m4/(m2*m2) - 3
	// Influence functions of the sample moments (the mean estimated):
	// IFⱼ(y) = yʲ − mⱼ − j·mⱼ₋₁·y, m₁ = 0.
	var v1, v2 float64
	for i, pk := range p {
		y := float64(lo+i) - m
		if2 := y*y - m2
		if3 := y*y*y - m3 - 3*m2*y
		if4 := y*y*y*y - m4 - 4*m3*y
		i1 := if3/math.Pow(m2, 1.5) - 1.5*m3*if2/math.Pow(m2, 2.5)
		i2 := if4/(m2*m2) - 2*m4*if2/(m2*m2*m2)
		v1 += pk * i1 * i1
		v2 += pk * i2 * i2
	}
	return g1, g2, math.Sqrt(v1 / nf), math.Sqrt(v2 / nf)
}

// quantisedNormalLaw returns P(d = k) for k = lo, lo+1, … of the
// quantised normal with mean a and jitter b (in steps), into buf. The
// unit triangle is (z + 1)₊ − 2z₊ + (z − 1)₊, so with c = a − k,
// P(d = k) = ψ(c + 1) − 2ψ(c) + ψ(c − 1) for ψ(u) = E[(u + bZ)₊] =
// u·Φ(u/b) + b·φ(u/b), Z standard normal (ψ(u) = u₊ at b = 0).
func quantisedNormalLaw(a, b float64, buf []float64) (p []float64, lo int) {
	psi := func(u float64) float64 {
		if b < 1e-9 {
			return math.Max(u, 0)
		}
		z := u / b
		return u*NormalCDF(z) + b*math.Exp(-z*z/2)/math.Sqrt(2*math.Pi)
	}
	lo = int(math.Floor(a-8*b)) - 1
	hi := int(math.Ceil(a+8*b)) + 1
	p = buf[:0]
	prev, cur := psi(a-float64(lo)+1), psi(a-float64(lo))
	for k := lo; k <= hi; k++ {
		next := psi(a - float64(k) - 1)
		p = append(p, prev-2*cur+next)
		prev, cur = cur, next
	}
	return p, lo
}
