package gpu

import (
	"math"
	"sort"
	"testing"

	"golatest/internal/sim/clock"
	"golatest/internal/stats"
)

// thinIntervals are candidate intervals in both tails of the jitter
// draw, near and far (|z| > 8, where 1 − Q(z) rounds to 1).
var thinIntervals = [][2]float64{{1.7, 2.6}, {-2.6, -1.7}, {3.1, 4.7}, {-4.5, -2.9}, {8.2, 9.1}, {-9.1, -8.2}}

// TestThinningCandidateDraw checks the truncated normal a candidate's
// jitter is drawn from: every draw lies in its interval, and the
// one-sample KS distance of 20,000 draws to the normal CDF truncated to
// the interval stays below its α = 0.001 critical value, in both tails,
// near and far.
func TestThinningCandidateDraw(t *testing.T) {
	const n = 20_000
	r := clock.NewRand(3, 4)
	for _, iv := range thinIntervals {
		lo, hi := iv[0], iv[1]
		th, ok := newThinning(lo, hi)
		if !ok {
			t.Fatalf("[%v, %v]: not thinned", lo, hi)
		}
		// The truncated CDF, each side from its precise tail.
		phi := func(z float64) float64 { return math.Erfc(-z/math.Sqrt2) / 2 }
		cdf := func(z float64) float64 { return (phi(z) - phi(lo)) / (phi(hi) - phi(lo)) }
		if lo > 0 {
			q := func(z float64) float64 { return math.Erfc(z/math.Sqrt2) / 2 }
			cdf = func(z float64) float64 { return (q(lo) - q(z)) / (q(lo) - q(hi)) }
		}
		zs := make([]float64, n)
		for i := range zs {
			z := th.candidate(r)
			if !(z >= lo && z <= hi) {
				t.Fatalf("[%v, %v]: candidate %v outside its interval", lo, hi, z)
			}
			zs[i] = z
		}
		sort.Float64s(zs)
		var ks float64
		for i, z := range zs {
			f := cdf(z)
			ks = math.Max(ks, math.Max(f-float64(i)/n, float64(i+1)/n-f))
		}
		if crit := 1.95 / math.Sqrt(n); ks > crit {
			t.Errorf("[%v, %v]: KS distance %.4f to the truncated normal exceeds %.4f", lo, hi, ks, crit)
		}
		t.Logf("[%v, %v]: p %.3g, KS %.4f", lo, hi, th.p, ks)
	}
}

// TestThinningMissCounts checks how non-candidates are drawn: the count
// before the next candidate, uncapped, has the geometric mean 1/p − 1
// within 4 standard errors, and a non-candidate's draw has the mean and
// deviation of a normal draw outside the interval, against rejection
// sampling.
func TestThinningMissCounts(t *testing.T) {
	const n = 100_000
	r := clock.NewRand(5, 6)
	for _, iv := range thinIntervals[:4] {
		th, ok := newThinning(iv[0], iv[1])
		if !ok {
			t.Fatalf("%v: not thinned", iv)
		}
		var k stats.Accumulator
		for range n {
			k.Add(float64(th.misses(r, math.MaxInt)))
		}
		want := 1/th.p - 1
		se := math.Sqrt(1-th.p) / th.p / math.Sqrt(n)
		if got := k.MeanStd().Mean; math.Abs(got-want) > 4*se {
			t.Errorf("%v: mean count %.3f before a candidate, want 1/p − 1 = %.3f (4 SE %.3f)", iv, got, want, 4*se)
		}
		var out stats.Accumulator
		for out.N() < n {
			if z := r.Normal(0, 1); z < iv[0] || z > iv[1] {
				out.Add(z)
			}
		}
		ms := out.MeanStd()
		if se := 1 / math.Sqrt(n); math.Abs(ms.Mean-th.mean) > 4*se || math.Abs(ms.Std-th.sd) > 4*se {
			t.Errorf("%v: non-candidate mean %.4f sd %.4f, rejection sampling %.4f and %.4f", iv, th.mean, th.sd, ms.Mean, ms.Std)
		}
	}
	th, _ := newThinning(3, 4)
	if got := th.misses(r, 7); got > 7 {
		t.Fatalf("misses capped at 7 returned %d", got)
	}
}

// TestCandidateIntervalIsConservative checks the candidate interval
// against the device itself, with thinning hidden: a sink whose band
// holds every duration gets every iteration of a long constant-clock
// kernel one by one, and each iteration's jitter draw is replayed from a
// twin device's stream. For every iteration, the candidate interval of
// the narrowest band holding its quantised device duration, [d, d], must
// hold its draw — on a timer with an offset, and a positive and a
// negative drift.
func TestCandidateIntervalIsConservative(t *testing.T) {
	for _, ppm := range []float64{3, -40} {
		cfg := testConfig()
		cfg.ClockOffsetNs = -5_000_000
		cfg.ClockDriftPPM = ppm
		cfg.IterJitterSigma = 0.02
		spec := KernelSpec{Iters: 40_000, CyclesPerIter: 120_000, Blocks: 1}
		dev, _ := newTestDevice(t, cfg)
		twin, _ := newTestDevice(t, cfg)
		// A first kernel absorbs the wake window, so the second runs at
		// the 1200 MHz default clock throughout.
		launchOn(t, dev, KernelSpec{Iters: 100, CyclesPerIter: 120_000, Blocks: 1}, nil)
		sink := &gateSink{t: t, lo: math.Inf(-1), hi: math.Inf(1)}
		launchOn(t, dev, spec, sink)
		dev.Synchronize()
		if c := dev.IterCounts(); c.Skipped != 0 || c.Folded != 0 {
			t.Fatalf("%v ppm: the hidden gate skipped or folded: %+v", ppm, c)
		}
		twin.rng.Child(0x1001)
		draws := twin.rng.Child(0x1002).Child(0)
		sigma := dev.cfg.IterJitterSigma
		mu := spec.CyclesPerIter / (1200 * dev.smSpeed[0] / 1000)
		scale := 1 + ppm/1e6
		slack := float64(dev.cfg.TimerQuantumNs) + 2
		closest := math.Inf(1)
		for i, s := range sink.got[0] {
			z := draws.Normal(0, 1)
			d := float64(s.DurNs())
			lo, hi := candidateZ(d, d, mu, sigma, scale, slack)
			if z < lo || z > hi {
				t.Fatalf("%v ppm, iteration %d: duration %v ns from draw %.6f, outside its candidate interval [%.6f, %.6f]",
					ppm, i, d, z, lo, hi)
			}
			closest = math.Min(closest, math.Min(z-lo, hi-z)*sigma*mu)
		}
		t.Logf("%v ppm: %d iterations; the closest lies %.2f ns inside its interval", ppm, len(sink.got[0]), closest)
	}
}
