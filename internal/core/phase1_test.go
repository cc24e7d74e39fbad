package core

import (
	"fmt"
	"math"
	"testing"

	"golatest/internal/sim/gpu"
	"golatest/internal/stats"
)

// TestPhase1DeclinedKernelsMatchInDistribution checks that phase 1's
// unread warm kernels, which decline every block and so only elapse,
// leave phase 1 equal in distribution to kernels that stream every
// iteration into a moment sink. Over 2000 device seeds, twin runners
// characterise 600 and 1200 MHz, with 40-iteration warm kernels of
// 1.5 ms iterations at 600 MHz, on a device whose clock changes take
// 80–150 ms, against an 86 ms settle sleep, and whose power cap at
// 1050 MHz latches after 20 ms busy above it. The first warm kernel of
// each clock starts in the 30 ms wake window. When the change to
// 1200 MHz completes during the second warm kernel, that kernel does not
// settle, and if it also ran long enough above the cap the throttle
// latches and the clock never settles (Unstable). Per clock
// the settled population's mean and deviation, and the Unstable rate,
// must match within 4 standard errors of their paired differences, and
// the number of warm kernels phase 1 runs (the settled kernels'
// indices, summed over the clocks) must match in distribution (mean
// within 4 standard errors, two-sample Kolmogorov–Smirnov distance
// under its 0.1% critical value).
func TestPhase1DeclinedKernelsMatchInDistribution(t *testing.T) {
	const seeds = 2000
	freqs := []float64{600, 1200}
	type outcome struct {
		kernels  int
		stats    map[float64]FreqStats
		unstable map[float64]bool
		skipped  int64
	}
	run := func(seed uint64, perIteration bool) outcome {
		t.Helper()
		cfg := quickConfig(freqs...)
		cfg.Blocks = 1
		cfg.IterTargetNs = 1_500_000
		cfg.ItersPerKernel = 40
		r, err := NewRunner(testDevice(t, uniformModel{lo: 80_000_000, hi: 150_000_000}, func(c *gpu.Config) {
			c.Seed = seed
			c.PowerCapMHz = 1050
			c.PowerCapDelayNs = 20_000_000
		}), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if perIteration {
			r.unreadSink = new(gpu.MomentSink)
		}
		p1, err := r.Phase1()
		if err != nil {
			t.Fatal(err)
		}
		c := r.dev.Sim().IterCounts()
		o := outcome{
			kernels:  int((c.OneByOne + c.Skipped + c.Folded) / int64(cfg.ItersPerKernel)),
			stats:    p1.Stats,
			unstable: map[float64]bool{},
			skipped:  c.Skipped,
		}
		for _, f := range p1.Unstable {
			o.unstable[f] = true
		}
		return o
	}
	var dKernels stats.Accumulator
	var kernels [2][]float64
	dMean := map[float64]*stats.Accumulator{}
	dStd := map[float64]*stats.Accumulator{}
	dUnstable := map[float64]*stats.Accumulator{}
	unstable := map[float64]int{}
	for _, f := range freqs {
		dMean[f], dStd[f], dUnstable[f] = new(stats.Accumulator), new(stats.Accumulator), new(stats.Accumulator)
	}
	var skipped int64
	for seed := uint64(1); seed <= seeds; seed++ {
		dec, per := run(seed, false), run(seed, true)
		if per.skipped != 0 {
			t.Fatalf("seed %d: the per-iteration twin skipped %d iterations", seed, per.skipped)
		}
		skipped += dec.skipped
		dKernels.Add(float64(dec.kernels - per.kernels))
		kernels[0] = append(kernels[0], float64(dec.kernels))
		kernels[1] = append(kernels[1], float64(per.kernels))
		for _, f := range freqs {
			dUnstable[f].Add(b2f(dec.unstable[f]) - b2f(per.unstable[f]))
			if per.unstable[f] {
				unstable[f]++
			}
			if !dec.unstable[f] && !per.unstable[f] {
				dMean[f].Add(dec.stats[f].Iter.Mean - per.stats[f].Iter.Mean)
				dStd[f].Add(dec.stats[f].Iter.Std - per.stats[f].Iter.Std)
			}
		}
	}
	within := func(what string, diff *stats.Accumulator) {
		t.Helper()
		d := diff.MeanStd()
		if se := d.Std / math.Sqrt(float64(d.N)); math.Abs(d.Mean) > 4*se+1e-15 {
			t.Errorf("%s: mean declined − per-iteration difference %.6g exceeds 4 standard errors (%.6g)", what, d.Mean, 4*se)
		}
	}
	within("warm kernels", &dKernels)
	for _, f := range freqs {
		within(fmt.Sprintf("mean at %v MHz", f), dMean[f])
		within(fmt.Sprintf("deviation at %v MHz", f), dStd[f])
		within(fmt.Sprintf("Unstable at %v MHz", f), dUnstable[f])
	}
	ks := ksDistance(kernels[0], kernels[1])
	if crit := 1.95 * math.Sqrt(2.0/seeds); ks > crit {
		t.Errorf("warm kernel counts: Kolmogorov–Smirnov distance %.4f over %.4f", ks, crit)
	}
	p := frac(unstable[1200], seeds)
	if p < 0.1 || p > 0.9 {
		t.Errorf("per-iteration Unstable rate at 1200 MHz %.3f outside [0.1, 0.9]: the test does not exercise the throttle", p)
	}
	if skipped == 0 {
		t.Error("no warm kernel was declined")
	}
	t.Logf("Unstable at 1200 MHz: %.3f; warm kernels per phase 1: %.2f; KS %.4f; %d iterations skipped",
		p, stats.Mean(kernels[1]), ks, skipped)
}
