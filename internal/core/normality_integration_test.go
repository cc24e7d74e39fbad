package core

import (
	"math"
	"testing"

	"golatest/internal/sim/clock"
	"golatest/internal/sim/gpu"
	"golatest/internal/stats"
)

func TestPhase1NormalityDiagnostic(t *testing.T) {
	dev := testDevice(t, fixedModel{bus: 1000, dur: 5_000_000}, nil)
	r, err := NewRunner(dev, quickConfig(600, 1200))
	if err != nil {
		t.Fatal(err)
	}
	p1, err := r.Phase1()
	if err != nil {
		t.Fatal(err)
	}
	for f, st := range p1.Stats {
		if !st.Normalish {
			t.Errorf("clock %v flagged non-normal on a clean device (n=%d)", f, st.Iter.N)
		}
	}
}

// TestPhase1NormalityFlagRate runs phase 1 on 400 seeds of the clean
// test device. At 1200 MHz its population (75 µs iterations, a 0.4 µs
// deviation against a 1 µs timer) is a lattice of about three points,
// whose skew and kurtosis are far from a continuous normal's: judged
// against the continuous normal, more than half the seeds were flagged.
// Judged against the quantised normal, a clean clock may be flagged on
// at most 2% of the seeds.
func TestPhase1NormalityFlagRate(t *testing.T) {
	const seeds = 400
	flagged := map[float64]int{}
	for seed := uint64(1); seed <= seeds; seed++ {
		dev := testDevice(t, fixedModel{bus: 1000, dur: 5_000_000}, func(c *gpu.Config) { c.Seed = seed })
		r, err := NewRunner(dev, quickConfig(600, 1200))
		if err != nil {
			t.Fatal(err)
		}
		p1, err := r.Phase1()
		if err != nil {
			t.Fatal(err)
		}
		for f, st := range p1.Stats {
			if !st.Normalish {
				flagged[f]++
			}
		}
	}
	for _, f := range []float64{600, 1200} {
		if n := flagged[f]; n > seeds/50 {
			t.Errorf("clock %v flagged non-normal on %d of %d seeds of a clean device", f, n, seeds)
		}
	}
	t.Logf("flagged: %v of %d seeds", flagged, seeds)
}

// TestPhase1NormalityFlagsDistortedPopulations is the diagnostic's
// positive control: quantised populations whose shape does distort the
// 2σ band are flagged — a skewed one (a tenth of the iterations slowed
// by throttling, on the test device's 75 µs lattice) and a bimodal one
// (two clocks' iterations mixed half and half) — while a clean lattice
// of the same size passes.
func TestPhase1NormalityFlagsDistortedPopulations(t *testing.T) {
	const n, q = 450, 1000
	r := clock.NewRand(11, 0)
	for _, c := range []struct {
		name string
		draw func() float64 // µs
		want bool
	}{
		{"clean", func() float64 { return r.Normal(75.3, 0.19) }, true},
		{"skewed", func() float64 {
			if r.Bool(0.1) {
				return r.Normal(79, 0.5)
			}
			return r.Normal(75.3, 0.19)
		}, false},
		{"bimodal", func() float64 {
			if r.Bool(0.5) {
				return r.Normal(80.3, 0.19)
			}
			return r.Normal(75.3, 0.19)
		}, false},
	} {
		pass := 0
		for trial := 0; trial < 200; trial++ {
			var acc stats.MomentAccumulator
			devT := math.Floor(r.Float64() * q)
			for i := 0; i < n; i++ {
				end := devT + c.draw()*1000
				acc.Add((math.Floor(end/q) - math.Floor(devT/q)) * q / 1e6)
				devT = end
			}
			if plausiblyNormal(acc.MeanStd(), acc.Skewness(), acc.ExcessKurtosis(), q) {
				pass++
			}
		}
		if c.want && pass < 196 || !c.want && pass > 4 {
			t.Errorf("%s: %d of 200 populations pass, want nearly all %v", c.name, pass, map[bool]string{true: "to pass", false: "flagged"}[c.want])
		}
	}
}

// TestPhase1NormalityToleratesLatticeSkewError: on a lattice of rare
// upper values (mean 75.02 quanta, variance 0.01 quanta², 450
// iterations), the quantised normal's skewness has a sampling standard
// error above 1, so a skewness 3.5 standard errors off the lattice's
// expected one, well past the fixed 0.5, still reads as normal, and one
// 4.5 standard errors off is flagged. The offset 3.5·se1 also exceeds
// 4/se1, so a scale that divided by se1 would flag it.
func TestPhase1NormalityToleratesLatticeSkewError(t *testing.T) {
	const q, n = 1000, 450
	mean, variance := 75.02, 0.01 // quanta, quanta²
	w1, w2, se1, _ := stats.QuantisedNormalShape(mean, variance, n)
	if !(se1 > 1) || 3.5*se1 <= 4/se1 {
		t.Fatalf("se1 %v: the check below proves nothing", se1)
	}
	m := stats.MeanStd{N: n, Mean: mean * q / 1e6, Std: math.Sqrt(variance) * q / 1e6}
	if !plausiblyNormal(m, w1+3.5*se1, w2, q) {
		t.Errorf("skewness %.2f against the lattice's %.2f ± %.2f flagged", w1+3.5*se1, w1, se1)
	}
	if plausiblyNormal(m, w1+4.5*se1, w2, q) {
		t.Errorf("skewness %.2f against the lattice's %.2f ± %.2f reads as normal", w1+4.5*se1, w1, se1)
	}
}
