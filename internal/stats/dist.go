package stats

import "math"

// NormalCDF returns Φ(x), the standard normal cumulative distribution
// function, via the error function.
func NormalCDF(x float64) float64 {
	return 0.5 * (1 + math.Erf(x/math.Sqrt2))
}

// NormalQuantile returns Φ⁻¹(p) for p in (0, 1) using Acklam's rational
// approximation (relative error below 1.15e-9), refined with one Halley
// step. It returns ±Inf at the boundaries and NaN outside [0, 1].
func NormalQuantile(p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return math.Inf(-1)
	case p == 1:
		return math.Inf(1)
	}

	// Coefficients for the central and tail rational approximations.
	a := [...]float64{
		-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00,
	}
	b := [...]float64{
		-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01,
	}
	c := [...]float64{
		-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00,
	}
	d := [...]float64{
		7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00,
	}

	const plow = 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-plow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}

	// One Halley refinement step against the exact CDF.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x -= u / (1 + x*u/2)
	return x
}

// ZCritical returns the two-sided z critical value for the given
// confidence level, e.g. ZCritical(0.95) ≈ 1.96.
func ZCritical(confidence float64) float64 {
	if confidence <= 0 || confidence >= 1 {
		return math.NaN()
	}
	return NormalQuantile(0.5 + confidence/2)
}

// CriticalT gives the two-sided Student-t critical value at one
// confidence level for any degrees of freedom, using the Cornish–Fisher
// expansion around the normal quantile. Accuracy is better than 1 % for
// df ≥ 3, which covers every use in this codebase (phase-1 kernels gather
// hundreds of samples; the smallest populations are the ≥ 20 repeated
// switching-latency measurements). The normal quantile and the
// expansion's coefficients are computed once: a caller that asks for
// many degrees of freedom at one confidence builds it once.
type CriticalT struct {
	// Confidence is the level the coefficients were computed for.
	Confidence float64
	// z and g1…g4 are the Cornish–Fisher terms (NaN z: invalid level).
	z, g1, g2, g3, g4 float64
}

// NewCriticalT precomputes the expansion's coefficients for confidence.
func NewCriticalT(confidence float64) CriticalT {
	c := CriticalT{Confidence: confidence, z: math.NaN()}
	if confidence <= 0 || confidence >= 1 {
		return c
	}
	z := NormalQuantile(0.5 + confidence/2)
	z2 := z * z
	c.z = z
	c.g1 = (z2 + 1) * z / 4
	c.g2 = ((5*z2+16)*z2 + 3) * z / 96
	c.g3 = (((3*z2+19)*z2+17)*z2 - 15) * z / 384
	c.g4 = ((((79*z2+776)*z2+1482)*z2-1920)*z2 - 945) * z / 92160
	return c
}

// At returns the critical value for df degrees of freedom.
func (c CriticalT) At(df float64) float64 {
	if df <= 0 || math.IsNaN(c.z) {
		return math.NaN()
	}
	return c.z + c.g1/df + c.g2/(df*df) + c.g3/(df*df*df) + c.g4/(df*df*df*df)
}
