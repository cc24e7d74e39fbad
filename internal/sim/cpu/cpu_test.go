package cpu

import (
	"math"
	"testing"

	"golatest/internal/sim/clock"
)

func testConfig() Config {
	return Config{
		Name:       "test-core",
		FreqsMHz:   []float64{1200, 1800, 2400, 3000},
		Transition: UniformTransition{BaseNs: 20_000, JitterNs: 5_000, UpPenaltyNs: 30_000},
		Seed:       11,
	}
}

func newCore(t *testing.T, cfg Config) (*Core, *clock.Clock) {
	t.Helper()
	clk := clock.New()
	c, err := New(cfg, clk)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c, clk
}

func TestNewValidation(t *testing.T) {
	clk := clock.New()
	bad := []Config{
		{},
		{Name: "x"},
		{Name: "x", FreqsMHz: []float64{100}}, // nil transition
		{Name: "x", FreqsMHz: []float64{200, 100}, Transition: UniformTransition{}},
		{Name: "x", FreqsMHz: []float64{100, 200}, DefaultFreqMHz: 150, Transition: UniformTransition{}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg, clk); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestDefaultFrequencyIsMax(t *testing.T) {
	c, _ := newCore(t, testConfig())
	if f := c.CurrentFreqMHz(); f != 3000 {
		t.Fatalf("default frequency = %v, want 3000", f)
	}
}

func TestSetFrequencyTransition(t *testing.T) {
	c, clk := newCore(t, testConfig())
	inj, err := c.SetFrequency(1200)
	if err != nil {
		t.Fatal(err)
	}
	if inj.InitMHz != 3000 || inj.TargetMHz != 1200 {
		t.Fatalf("injection = %+v", inj)
	}
	lat := inj.TransitionLatencyNs()
	if lat < 20_000 || lat > 25_000 {
		t.Fatalf("down-transition latency %d ns, want in [20000, 25000]", lat)
	}
	// Before completion the core still runs at the initial frequency.
	if f := c.CurrentFreqMHz(); f != 3000 {
		t.Fatalf("mid-transition frequency = %v", f)
	}
	clk.AdvanceTo(inj.CompleteNs)
	if f := c.CurrentFreqMHz(); f != 1200 {
		t.Fatalf("post-transition frequency = %v", f)
	}
}

func TestUpTransitionSlower(t *testing.T) {
	c, clk := newCore(t, testConfig())
	injDown, _ := c.SetFrequency(1200)
	clk.AdvanceTo(injDown.CompleteNs)
	injUp, _ := c.SetFrequency(3000)
	if injUp.TransitionLatencyNs() <= injDown.TransitionLatencyNs() {
		t.Fatalf("up %d ns not slower than down %d ns",
			injUp.TransitionLatencyNs(), injDown.TransitionLatencyNs())
	}
}

func TestSetFrequencyUnsupported(t *testing.T) {
	c, _ := newCore(t, testConfig())
	if _, err := c.SetFrequency(1500); err == nil {
		t.Fatal("unsupported frequency accepted")
	}
}

func TestSetFrequencyNoop(t *testing.T) {
	c, _ := newCore(t, testConfig())
	inj, err := c.SetFrequency(3000)
	if err != nil {
		t.Fatal(err)
	}
	if inj.TransitionLatencyNs() != 0 {
		t.Fatalf("no-op change latency = %d", inj.TransitionLatencyNs())
	}
}

func TestRunIterationsScalesWithFrequency(t *testing.T) {
	cfg := testConfig()
	cfg.IterJitterSigma = 1e-9
	c, clk := newCore(t, cfg)

	mean := func(samples []IterSample) float64 {
		var sum float64
		for _, s := range samples {
			sum += float64(s.DurNs())
		}
		return sum / float64(len(samples))
	}

	at3000, err := c.RunIterations(100, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	inj, _ := c.SetFrequency(1200)
	clk.AdvanceTo(inj.CompleteNs)
	at1200, err := c.RunIterations(100, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	ratio := mean(at1200) / mean(at3000)
	if math.Abs(ratio-2.5) > 0.05 {
		t.Fatalf("duration ratio = %v, want ≈2.5", ratio)
	}
}

func TestRunIterationsSpansTransition(t *testing.T) {
	cfg := testConfig()
	cfg.IterJitterSigma = 1e-9
	cfg.Transition = UniformTransition{BaseNs: 100_000} // 100 µs, no jitter
	c, _ := newCore(t, cfg)

	// 10 µs iterations at 3 GHz; request a change, keep iterating.
	if _, err := c.SetFrequency(1200); err != nil {
		t.Fatal(err)
	}
	samples, err := c.RunIterations(300, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	first := float64(samples[0].DurNs())
	last := float64(samples[len(samples)-1].DurNs())
	if first > 11_000 {
		t.Fatalf("first iteration %v ns, want ≈10000 (still at 3 GHz)", first)
	}
	if last < 24_000 || last > 26_000 {
		t.Fatalf("last iteration %v ns, want ≈25000 (at 1.2 GHz)", last)
	}
}

func TestRunIterationsMonotoneTimestamps(t *testing.T) {
	c, _ := newCore(t, testConfig())
	samples, err := c.RunIterations(200, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(-1)
	for i, s := range samples {
		if s.EndNs < s.StartNs || s.StartNs < prev {
			t.Fatalf("iteration %d not monotone: %+v (prev end %d)", i, s, prev)
		}
		prev = s.EndNs
	}
}

func TestRunIterationsValidation(t *testing.T) {
	c, _ := newCore(t, testConfig())
	if _, err := c.RunIterations(0, 100); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := c.RunIterations(10, 0); err == nil {
		t.Error("cycles=0 accepted")
	}
}

func TestInjectionsRecorded(t *testing.T) {
	c, clk := newCore(t, testConfig())
	i1, _ := c.SetFrequency(1800)
	clk.AdvanceTo(i1.CompleteNs)
	i2, _ := c.SetFrequency(2400)
	if i2.InitMHz != 1800 || i2.TargetMHz != 2400 {
		t.Fatalf("second injection %v → %v, want 1800 → 2400", i2.InitMHz, i2.TargetMHz)
	}
}

func TestOverlappingRequestSupersedes(t *testing.T) {
	cfg := testConfig()
	cfg.Transition = UniformTransition{BaseNs: 1_000_000} // 1 ms
	c, clk := newCore(t, cfg)
	c.SetFrequency(1200)
	// Second request lands mid-transition.
	inj2, err := c.SetFrequency(2400)
	if err != nil {
		t.Fatal(err)
	}
	// The first change never lands; after the second completes the core
	// runs at its target.
	clk.AdvanceTo(inj2.CompleteNs)
	if f := c.CurrentFreqMHz(); f != 2400 {
		t.Fatalf("frequency after superseding change = %v, want 2400", f)
	}
}

func TestTimestampsQuantised(t *testing.T) {
	cfg := testConfig()
	cfg.TimerResolutionNs = 100
	c, _ := newCore(t, cfg)
	samples, err := c.RunIterations(10, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if s.StartNs%100 != 0 || s.EndNs%100 != 0 {
			t.Fatalf("timestamps not quantised: %+v", s)
		}
	}
}
