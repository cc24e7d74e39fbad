package ftalat

import (
	"math"
	"testing"

	"golatest/internal/sim/clock"
	"golatest/internal/sim/cpu"
	"golatest/internal/stats"
)

func statsMedian(xs []float64) float64 { return stats.Median(xs) }

func testCore(t *testing.T, tr cpu.TransitionModel) *cpu.Core {
	t.Helper()
	c, err := cpu.New(cpu.Config{
		Name:       "ftalat-core",
		FreqsMHz:   []float64{1200, 1800, 2400, 3000},
		Transition: tr,
		Seed:       5,
	}, clock.New())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func quickCfg(freqs ...float64) Config {
	return Config{Frequencies: freqs, Repeats: 10}
}

func TestNewRunnerValidation(t *testing.T) {
	c := testCore(t, cpu.UniformTransition{BaseNs: 30_000})
	if _, err := NewRunner(nil, quickCfg(1200, 2400)); err == nil {
		t.Error("nil core accepted")
	}
	if _, err := NewRunner(c, Config{Frequencies: []float64{1200}}); err == nil {
		t.Error("single frequency accepted")
	}
	if _, err := NewRunner(c, quickCfg(1200, 1234)); err == nil {
		t.Error("unsupported frequency accepted")
	}
	if _, err := NewRunner(c, Config{Frequencies: []float64{1200, 2400}, Repeats: -3}); err == nil {
		t.Error("negative Repeats accepted")
	}
	if _, err := NewRunner(c, Config{Frequencies: []float64{1200, 2400}, MeasureIters: -5}); err == nil {
		t.Error("negative MeasureIters accepted")
	}
	if _, err := NewRunner(c, quickCfg(1200, 2400)); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestPhase1Distinguishes(t *testing.T) {
	c := testCore(t, cpu.UniformTransition{BaseNs: 30_000})
	r, err := NewRunner(c, quickCfg(1200, 2400, 3000))
	if err != nil {
		t.Fatal(err)
	}
	p1, err := r.Phase1()
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.ValidPairs) != 6 || len(p1.Excluded) != 0 {
		t.Fatalf("valid=%d excluded=%d", len(p1.ValidPairs), len(p1.Excluded))
	}
	if !(p1.Stats[1200].Mean > p1.Stats[2400].Mean) {
		t.Fatalf("means not ordered: %+v", p1.Stats)
	}
	// Iteration at the slowest clock ≈ the 10 µs target.
	if math.Abs(p1.Stats[1200].Mean-10) > 0.5 {
		t.Fatalf("slow-clock iteration = %v µs, want ≈10", p1.Stats[1200].Mean)
	}
}

func TestMeasureMatchesInjectedTransition(t *testing.T) {
	const base = 45_000 // 45 µs transitions
	c := testCore(t, cpu.UniformTransition{BaseNs: base, JitterNs: 5_000})
	r, err := NewRunner(c, quickCfg(1200, 2400))
	if err != nil {
		t.Fatal(err)
	}
	p1, err := r.Phase1()
	if err != nil {
		t.Fatal(err)
	}
	pr, err := r.MeasurePair(Pair{2400, 1200}, p1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Samples) < 5 {
		t.Fatalf("samples = %d (failures %d)", len(pr.Samples), pr.Failures)
	}
	// FTaLaT's CI detection interval is only a few standard errors wide,
	// so a geometric number of iterations (≈10 µs each, p≈8 % per
	// iteration at n=400) passes before one lands inside it — the very
	// §V-A granularity cost this baseline exists to demonstrate. Bound
	// individual samples loosely and the median tightly.
	diffs := make([]float64, len(pr.Samples))
	for i, lat := range pr.Samples {
		diffs[i] = lat - pr.Injected[i]
		if diffs[i] < -1 || diffs[i] > 800 {
			t.Fatalf("sample %d: measured %v µs vs injected %v µs", i, lat, pr.Injected[i])
		}
	}
	if med := statsMedian(diffs); med > 250 {
		t.Fatalf("median detection overshoot = %v µs, want ≲250", med)
	}
}

func TestCPUTransitionsAreMicrosecondScale(t *testing.T) {
	// The paper's headline contrast: CPU transitions are µs-scale.
	c := testCore(t, cpu.UniformTransition{BaseNs: 30_000, JitterNs: 10_000, UpPenaltyNs: 40_000})
	r, err := NewRunner(c, quickCfg(1200, 3000))
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 2 {
		t.Fatalf("pairs = %d", len(res.Pairs))
	}
	for _, pr := range res.Pairs {
		if pr.Summary.N == 0 {
			t.Fatalf("%v: no samples", pr.Pair)
		}
		if pr.Summary.Median > 1000 {
			t.Fatalf("%v median = %v µs: not µs-scale", pr.Pair, pr.Summary.Median)
		}
	}
}

func TestDetectionIntervalDegradesWithSampleCount(t *testing.T) {
	// §V-A: growing the phase-1 population shrinks the CI detection
	// interval and inflates the iterations needed to detect — the reason
	// the GPU methodology abandons the CI for the 2σ band.
	run := func(measureIters int) float64 {
		c := testCore(t, cpu.UniformTransition{BaseNs: 30_000})
		cfg := quickCfg(1200, 2400)
		cfg.MeasureIters = measureIters
		cfg.Repeats = 8
		r, err := NewRunner(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		p1, err := r.Phase1()
		if err != nil {
			t.Fatal(err)
		}
		target := p1.Stats[1200]
		var total, n float64
		for i := 0; i < 8; i++ {
			m, err := r.MeasureOnce(Pair{2400, 1200}, target)
			if err != nil {
				continue
			}
			total += float64(m.DetectIters)
			n++
		}
		if n == 0 {
			t.Fatal("no successful detections")
		}
		return total / n
	}
	small := run(100)
	large := run(6400)
	if large <= small {
		t.Fatalf("detection effort did not grow with population: %v (n=100) vs %v (n=6400)",
			small, large)
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() []float64 {
		c := testCore(t, cpu.UniformTransition{BaseNs: 30_000, JitterNs: 5_000})
		r, err := NewRunner(c, quickCfg(1200, 2400))
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		for _, pr := range res.Pairs {
			out = append(out, pr.Samples...)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
}
