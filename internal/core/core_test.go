package core

import (
	"math"
	"testing"
	"time"

	"golatest/internal/nvml"
	"golatest/internal/sim/clock"
	"golatest/internal/sim/gpu"
)

// fixedModel injects a constant switching latency.
type fixedModel struct{ bus, dur int64 }

func (m fixedModel) Sample(init, target float64, r *clock.Rand) gpu.Transition {
	return gpu.Transition{BusDelayNs: m.bus, DurationNs: m.dur}
}

// pairModel injects different constant latencies per direction.
type pairModel struct{ upNs, downNs int64 }

func (m pairModel) Sample(init, target float64, r *clock.Rand) gpu.Transition {
	d := m.downNs
	if target > init {
		d = m.upNs
	}
	return gpu.Transition{BusDelayNs: 40_000, DurationNs: d - 40_000}
}

func testDevice(t *testing.T, model gpu.LatencyModel, mutate func(*gpu.Config)) *nvml.Device {
	t.Helper()
	cfg := gpu.Config{
		Name:         "core-gpu",
		Architecture: "Test",
		SMCount:      6,
		MemFreqMHz:   1215,
		FreqsMHz:     []float64{600, 750, 900, 1050, 1200, 1350, 1500},
		Latency:      model,
		Seed:         77,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	dev, err := gpu.New(cfg, clock.New())
	if err != nil {
		t.Fatal(err)
	}
	lib, err := nvml.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	h, err := lib.DeviceHandleByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// quickConfig keeps campaigns small for unit tests.
func quickConfig(freqs ...float64) Config {
	return Config{
		Frequencies:      freqs,
		Blocks:           3,
		WarmKernels:      2,
		ItersPerKernel:   150,
		MinMeasurements:  5,
		MaxMeasurements:  10,
		RSECheckEvery:    5,
		MaxLatencyHintNs: 30_000_000, // 30 ms
	}
}

func TestConfigValidation(t *testing.T) {
	dev := testDevice(t, fixedModel{bus: 1000, dur: 5_000_000}, nil)
	cases := []Config{
		{},                                 // no frequencies
		{Frequencies: []float64{600}},      // single clock
		{Frequencies: []float64{600, 601}}, // unsupported clock
		{Frequencies: []float64{600, 600}}, // duplicate
		{Frequencies: []float64{600, 900}, MinMeasurements: 10, MaxMeasurements: 5},
		{Frequencies: []float64{600, 900}, MinMeasurements: -5, MaxMeasurements: -1},
		{Frequencies: []float64{600, 900}, MinMeasurements: -5},
		{Frequencies: []float64{600, 900}, Blocks: -1},
		{Frequencies: []float64{600, 900}, IterTargetNs: 500}, // below quantum floor
	}
	for i, cfg := range cases {
		if _, err := NewRunner(dev, cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	if _, err := NewRunner(nil, quickConfig(600, 900)); err == nil {
		t.Error("nil device accepted")
	}
	if _, err := NewRunner(dev, quickConfig(600, 900)); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestConfigDefaults(t *testing.T) {
	dev := testDevice(t, fixedModel{bus: 1000, dur: 5_000_000}, nil)
	r, err := NewRunner(dev, Config{Frequencies: []float64{600, 900}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := r.Config()
	if cfg.RSETarget != 0.05 || cfg.MinMeasurements != 25 || cfg.MaxMeasurements != 100 {
		t.Errorf("stopping defaults: %+v", cfg)
	}
	if cfg.SigmaK != 2 {
		t.Errorf("statistical defaults: %+v", cfg)
	}
	if cfg.RSECheckEvery != 25 || cfg.Cooldown != 10*time.Second {
		t.Errorf("cadence defaults: %+v", cfg)
	}
	if cfg.Blocks != 6 { // device has 6 SMs, under the cap of 8
		t.Errorf("Blocks = %d, want 6", cfg.Blocks)
	}
}

func TestAllPairsOrderedComplete(t *testing.T) {
	cfg := Config{Frequencies: []float64{600, 900, 1200}}
	pairs := cfg.AllPairs()
	if len(pairs) != 6 {
		t.Fatalf("len(pairs) = %d, want 6", len(pairs))
	}
	if pairs[0] != (Pair{600, 900}) || pairs[5] != (Pair{1200, 900}) {
		t.Fatalf("ordering: %v", pairs)
	}
	for _, p := range pairs {
		if p.InitMHz == p.TargetMHz {
			t.Fatalf("self pair %v", p)
		}
	}
}

func TestPairString(t *testing.T) {
	p := Pair{InitMHz: 1770, TargetMHz: 1260}
	if got := p.String(); got != "1770→1260 MHz" {
		t.Fatalf("String = %q", got)
	}
	if p.Increasing() {
		t.Fatal("1770→1260 reported as increasing")
	}
}

func TestPhase1StatsOrderedByFrequency(t *testing.T) {
	dev := testDevice(t, fixedModel{bus: 1000, dur: 5_000_000}, nil)
	r, err := NewRunner(dev, quickConfig(600, 900, 1200))
	if err != nil {
		t.Fatal(err)
	}
	p1, err := r.Phase1()
	if err != nil {
		t.Fatal(err)
	}
	// Higher clocks must give shorter iterations, and all pairs must be
	// distinguishable at these step sizes.
	if !(p1.Stats[600].Iter.Mean > p1.Stats[900].Iter.Mean &&
		p1.Stats[900].Iter.Mean > p1.Stats[1200].Iter.Mean) {
		t.Fatalf("iteration means not ordered: %+v", p1.Stats)
	}
	if len(p1.ValidPairs) != 6 || len(p1.Excluded) != 0 {
		t.Fatalf("valid=%d excluded=%d, want 6/0", len(p1.ValidPairs), len(p1.Excluded))
	}
	// The reference iteration duration at the slowest clock ≈ the target.
	mean := p1.Stats[600].Iter.Mean
	if math.Abs(mean-0.15) > 0.01 {
		t.Fatalf("iteration at slowest clock = %v ms, want ≈0.15", mean)
	}
}

func TestPhase1ExcludesIndistinguishablePairs(t *testing.T) {
	// A device with enormous iteration jitter makes neighbouring clocks
	// statistically inseparable at phase-1 sample sizes.
	dev := testDevice(t, fixedModel{bus: 1000, dur: 5_000_000}, func(c *gpu.Config) {
		// 8 % iteration noise: the 0.25 %-apart clocks are hopeless, but
		// the 2× pair stays separated beyond the detection band + margin.
		c.FreqsMHz = []float64{1200, 1203, 2400}
		c.IterJitterSigma = 0.08
	})
	cfg := quickConfig(1200, 1203, 2400)
	cfg.WarmKernels = 2
	cfg.ItersPerKernel = 60
	cfg.Blocks = 2
	r, err := NewRunner(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := r.Phase1()
	if err != nil {
		t.Fatal(err)
	}
	excluded := map[Pair]bool{}
	for _, p := range p1.Excluded {
		excluded[p] = true
	}
	if !excluded[Pair{1200, 1203}] || !excluded[Pair{1203, 1200}] {
		t.Fatalf("0.25%%-apart clocks under 20%% jitter not excluded: %+v", p1.Excluded)
	}
	if excluded[Pair{1200, 2400}] {
		t.Fatalf("2× apart clocks wrongly excluded")
	}
}

func TestMeasureOnceMatchesInjected(t *testing.T) {
	const injectedNs = 12_000_000 // 12 ms
	dev := testDevice(t, fixedModel{bus: 60_000, dur: injectedNs - 60_000}, nil)
	r, err := NewRunner(dev, quickConfig(600, 1200))
	if err != nil {
		t.Fatal(err)
	}
	p1, err := r.Phase1()
	if err != nil {
		t.Fatal(err)
	}
	pair := Pair{InitMHz: 1200, TargetMHz: 600}
	is, ts, err := r.pairStats(pair, p1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.MeasureOnce(pair, is, ts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.InjectedMs-12.0) > 0.001 {
		t.Fatalf("InjectedMs = %v, want 12", m.InjectedMs)
	}
	// Measured = injected + detection granularity (≤ ~2.5 iterations)
	// + sync error (µs-scale).
	iterMs := r.cfg.IterTargetNs / 1e6
	errMs := m.LatencyMs - m.InjectedMs
	if errMs < -0.1*iterMs || errMs > 4*iterMs {
		t.Fatalf("measured %v vs injected %v: error %v ms outside [0, 4 iter]",
			m.LatencyMs, m.InjectedMs, errMs)
	}
}

func TestMeasurePairRSEStopsEarly(t *testing.T) {
	// Constant injected latency → tiny RSE → the loop must stop at the
	// first check past the minimum, not run to MaxMeasurements.
	dev := testDevice(t, fixedModel{bus: 50_000, dur: 8_000_000}, nil)
	cfg := quickConfig(600, 1200)
	cfg.MinMeasurements = 5
	cfg.MaxMeasurements = 50
	cfg.RSECheckEvery = 5
	r, err := NewRunner(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := r.Phase1()
	if err != nil {
		t.Fatal(err)
	}
	pr, err := r.MeasurePair(Pair{600, 1200}, p1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Samples) != 5 {
		t.Fatalf("samples = %d, want 5 (early RSE stop)", len(pr.Samples))
	}
	if pr.FinalRSE >= 0.05 {
		t.Fatalf("FinalRSE = %v", pr.FinalRSE)
	}
	if pr.Skipped || pr.ThrottleEvents != 0 {
		t.Fatalf("unexpected throttle state: %+v", pr)
	}
}

func TestMeasurePairValidationAgainstGroundTruth(t *testing.T) {
	// The central validation: across a pair campaign the measured
	// latencies track the injected ones within detection granularity.
	dev := testDevice(t, pairModel{upNs: 15_000_000, downNs: 6_000_000}, nil)
	cfg := quickConfig(600, 1200)
	r, err := NewRunner(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := r.Phase1()
	if err != nil {
		t.Fatal(err)
	}
	iterMs := r.Config().IterTargetNs / 1e6
	for _, pair := range []Pair{{600, 1200}, {1200, 600}} {
		pr, err := r.MeasurePair(pair, p1)
		if err != nil {
			t.Fatal(err)
		}
		if len(pr.Samples) < cfg.MinMeasurements {
			t.Fatalf("%v: only %d samples", pair, len(pr.Samples))
		}
		for i, lat := range pr.Samples {
			diff := lat - pr.Injected[i]
			if diff < -0.1*iterMs || diff > 5*iterMs {
				t.Fatalf("%v sample %d: measured %v, injected %v",
					pair, i, lat, pr.Injected[i])
			}
		}
	}
}

func TestMeasurePairExcludedPairRejected(t *testing.T) {
	dev := testDevice(t, fixedModel{bus: 1000, dur: 5_000_000}, nil)
	r, err := NewRunner(dev, quickConfig(600, 1200))
	if err != nil {
		t.Fatal(err)
	}
	p1 := &Phase1Result{Stats: map[float64]FreqStats{}}
	if _, err := r.MeasurePair(Pair{600, 1200}, p1); err == nil {
		t.Fatal("pair absent from ValidPairs accepted")
	}
}

func TestMeasurePairPowerThrottleSkips(t *testing.T) {
	dev := testDevice(t, fixedModel{bus: 50_000, dur: 5_000_000}, func(c *gpu.Config) {
		c.PowerCapMHz = 900
		c.PowerCapDelayNs = int64(20 * time.Millisecond)
	})
	cfg := quickConfig(600, 1200)
	r, err := NewRunner(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := r.Phase1()
	if err != nil {
		t.Fatal(err)
	}
	pr, err := r.MeasurePair(Pair{600, 1200}, p1)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Skipped {
		t.Fatalf("pair above the power cap not skipped: %+v", pr)
	}
}

func TestMeasurePairThermalBackoff(t *testing.T) {
	// Scenario: the device enters the campaign hot (a previous tenant ran
	// it at full clocks). The clamp equals the pair's upper clock, so the
	// throttled measurements still succeed; the 5-pass reason check must
	// discard them and back off, after which the cooled device completes
	// the campaign cleanly.
	dev := testDevice(t, fixedModel{bus: 50_000, dur: 5_000_000}, func(c *gpu.Config) {
		c.ThermalLimitC = 45
		c.ThermalHysteresisC = 2
		c.SteadyTempAtMaxC = 120
		c.ThermalTauS = 10
		c.ThrottleClampMHz = 750
	})
	cfg := quickConfig(600, 750)
	cfg.Cooldown = 30 * time.Second
	r, err := NewRunner(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := r.Phase1()
	if err != nil {
		t.Fatal(err)
	}
	// Pre-heat: ~10 s of full-clock load drives the die far past the
	// 45 °C limit and latches the thermal throttle.
	if err := dev.SetApplicationsClocks(0, 1500); err != nil {
		t.Fatal(err)
	}
	r.ctx.Sleep(200 * time.Millisecond)
	if _, err := dev.Sim().Launch(gpu.KernelSpec{Iters: 100, CyclesPerIter: 1.5e8, Blocks: 1}); err != nil {
		t.Fatal(err)
	}
	dev.Sim().Synchronize()
	if !dev.Sim().ThrottleReasons().Has(gpu.ThrottleThermal) {
		t.Fatalf("pre-heat failed: temp=%v", dev.Temperature())
	}

	// measurePair, not MeasurePair: the pair must run on the pre-heated
	// device, not on a cool replica of it.
	pr, err := r.measurePair(Pair{750, 600}, p1)
	if err != nil {
		t.Fatal(err)
	}
	if pr.ThrottleEvents == 0 {
		t.Fatalf("no thermal backoff despite hot start: temp=%v", dev.Temperature())
	}
	if pr.DiscardedByThrottle == 0 {
		t.Fatal("thermal backoff discarded nothing")
	}
	if len(pr.Samples) == 0 {
		t.Fatal("campaign produced no samples after cooldown")
	}
	if dev.Sim().ThrottleReasons().Has(gpu.ThrottleThermal) {
		t.Fatal("thermal throttle still latched after cooldown")
	}
}

func TestProbeEstimatesCapture(t *testing.T) {
	dev := testDevice(t, fixedModel{bus: 50_000, dur: 9_000_000}, nil)
	cfg := quickConfig(600, 900, 1200)
	cfg.MaxLatencyHintNs = 0 // force probing path via Probe
	r, err := NewRunner(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := r.Phase1()
	if err != nil {
		t.Fatal(err)
	}
	est, err := r.Probe(p1)
	if err != nil {
		t.Fatal(err)
	}
	// 10× the ≈9 ms latency, plus detection granularity.
	if est < 85_000_000 || est > 130_000_000 {
		t.Fatalf("probe estimate = %d ns, want ≈90 ms", est)
	}
}

func TestRunEndToEnd(t *testing.T) {
	dev := testDevice(t, pairModel{upNs: 10_000_000, downNs: 5_000_000}, nil)
	cfg := quickConfig(600, 900, 1200)
	r, err := NewRunner(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.DeviceName != "core-gpu" {
		t.Fatalf("DeviceName = %q", res.DeviceName)
	}
	if len(res.Pairs) != 6 {
		t.Fatalf("pairs measured = %d, want 6", len(res.Pairs))
	}
	for _, pr := range res.Pairs {
		if pr.Skipped {
			t.Fatalf("%v skipped unexpectedly", pr.Pair)
		}
		if pr.Summary.N == 0 {
			t.Fatalf("%v: empty summary", pr.Pair)
		}
		// Direction must control the measured magnitude.
		wantMs := 5.0
		if pr.Pair.Increasing() {
			wantMs = 10.0
		}
		if math.Abs(pr.Summary.Median-wantMs) > 0.6 {
			t.Fatalf("%v median = %v, want ≈%v", pr.Pair, pr.Summary.Median, wantMs)
		}
	}
	if _, ok := res.PairByFreqs(600, 1200); !ok {
		t.Fatal("PairByFreqs lookup failed")
	}
	if _, ok := res.PairByFreqs(600, 601); ok {
		t.Fatal("PairByFreqs found a non-measured pair")
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() []float64 {
		dev := testDevice(t, pairModel{upNs: 10_000_000, downNs: 5_000_000}, nil)
		r, err := NewRunner(dev, quickConfig(600, 1200))
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
		t.Fatalf("lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestPairReplicaIsPhase1Chip: a pair is measured on the chip phase 1
// characterised. Phase 1 re-run on each pair's replica must reproduce
// every clock's mean iteration within 3 standard errors. The campaign
// runs one block, so the mean is SM 0's, and SM speeds spread by 0.8%
// here: a replica that drew a speed of its own would miss by dozens.
func TestPairReplicaIsPhase1Chip(t *testing.T) {
	dev := testDevice(t, fixedModel{bus: 50_000, dur: 5_000_000}, func(c *gpu.Config) {
		c.SMSpeedSigma = 0.008
	})
	cfg := quickConfig(600, 1200)
	cfg.Blocks = 1
	r, err := NewRunner(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := r.Phase1()
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.ValidPairs) != 2 {
		t.Fatalf("phase 1: %+v; want both pairs valid", p1)
	}
	for _, pair := range p1.ValidPairs {
		sub, err := r.replicaRunner(pair)
		if err != nil {
			t.Fatal(err)
		}
		q1, err := sub.Phase1()
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range cfg.Frequencies {
			a, b := p1.Stats[f].Iter, q1.Stats[f].Iter
			se := math.Sqrt(a.Std*a.Std/float64(a.N) + b.Std*b.Std/float64(b.N))
			if z := (b.Mean - a.Mean) / se; math.Abs(z) > 3 {
				t.Errorf("%v: replica's mean iteration at %v MHz is %v ms, phase 1's %v ms (%.1f SE apart)",
					pair, f, b.Mean, a.Mean, z)
			}
		}
	}
}
