package gpu

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"golatest/internal/sim/clock"
)

// fixedModel is a deterministic latency model for tests.
type fixedModel struct {
	bus, dur int64
}

func (m fixedModel) Sample(init, target float64, r *clock.Rand) Transition {
	return Transition{BusDelayNs: m.bus, DurationNs: m.dur}
}

func testConfig() Config {
	return Config{
		Name:           "test-gpu",
		Architecture:   "Test",
		SMCount:        4,
		MemFreqMHz:     1215,
		FreqsMHz:       []float64{300, 600, 900, 1200, 1500},
		DefaultFreqMHz: 1200,
		Latency:        fixedModel{bus: 50_000, dur: 10_000_000}, // 50 µs + 10 ms
		Seed:           42,
	}
}

func newTestDevice(t *testing.T, cfg Config) (*Device, *clock.Clock) {
	t.Helper()
	clk := clock.New()
	d, err := New(cfg, clk)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d, clk
}

func TestNewValidation(t *testing.T) {
	clk := clock.New()
	bad := []Config{
		{},                      // no name
		{Name: "x"},             // no SMs
		{Name: "x", SMCount: 1}, // no freqs
		{Name: "x", SMCount: 1, FreqsMHz: []float64{100, 100}, Latency: fixedModel{}},                         // not ascending
		{Name: "x", SMCount: 1, FreqsMHz: []float64{-5, 100}, Latency: fixedModel{}},                          // negative step
		{Name: "x", SMCount: 1, FreqsMHz: []float64{100, 200}},                                                // nil model
		{Name: "x", SMCount: 1, FreqsMHz: []float64{100, 200}, DefaultFreqMHz: 150, Latency: fixedModel{}},    // default off-table
		{Name: "x", SMCount: 1, FreqsMHz: []float64{100, 200}, IterJitterSigma: -0.02, Latency: fixedModel{}}, // negative jitter
	}
	for i, cfg := range bad {
		if _, err := New(cfg, clk); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(testConfig(), clk); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestDefaultsFilled(t *testing.T) {
	d, _ := newTestDevice(t, testConfig())
	cfg := d.Config()
	if cfg.TimerQuantumNs != 1000 {
		t.Errorf("TimerQuantumNs = %d, want 1000", cfg.TimerQuantumNs)
	}
	if cfg.ThermalLimitC != 90 {
		t.Errorf("thermal defaults: %+v", cfg)
	}
}

func TestSetFrequencyUnsupported(t *testing.T) {
	d, _ := newTestDevice(t, testConfig())
	if _, err := d.SetFrequency(700); err == nil {
		t.Fatal("unsupported clock accepted")
	}
}

func TestSetFrequencyGroundTruth(t *testing.T) {
	d, clk := newTestDevice(t, testConfig())
	clk.Advance(1_000_000)
	inj, err := d.SetFrequency(900)
	if err != nil {
		t.Fatalf("SetFrequency: %v", err)
	}
	if inj.RequestNs != 1_000_000 {
		t.Errorf("RequestNs = %d", inj.RequestNs)
	}
	if inj.ApplyNs != 1_050_000 {
		t.Errorf("ApplyNs = %d, want request+50µs", inj.ApplyNs)
	}
	if inj.CompleteNs != 11_050_000 {
		t.Errorf("CompleteNs = %d, want apply+10ms", inj.CompleteNs)
	}
	if inj.InitMHz != 1200 || inj.TargetMHz != 900 {
		t.Errorf("Init/Target = %v/%v", inj.InitMHz, inj.TargetMHz)
	}
	if got := inj.SwitchingLatencyNs(); got != 10_050_000 {
		t.Errorf("SwitchingLatencyNs = %d", got)
	}
	// The clock holds the initial frequency through the transition.
	clk.AdvanceTo(inj.CompleteNs - 1)
	if f := d.CurrentFreqMHz(); f != 1200 {
		t.Errorf("mid-transition clock = %v, want 1200", f)
	}
	clk.AdvanceTo(inj.CompleteNs)
	if f := d.CurrentFreqMHz(); f != 900 {
		t.Errorf("post-transition clock = %v, want 900", f)
	}
	if d.SetFreqMHz() != 900 {
		t.Errorf("SetFreqMHz = %v", d.SetFreqMHz())
	}
}

func TestSetFrequencyNoopCompletesOnReceipt(t *testing.T) {
	d, _ := newTestDevice(t, testConfig())
	inj, err := d.SetFrequency(1200) // already effective
	if err != nil {
		t.Fatal(err)
	}
	if inj.CompleteNs != inj.ApplyNs {
		t.Fatalf("no-op change: complete %d != apply %d", inj.CompleteNs, inj.ApplyNs)
	}
}

func TestInjectionsAccumulate(t *testing.T) {
	d, clk := newTestDevice(t, testConfig())
	if _, ok := d.LastInjection(); ok {
		t.Fatal("LastInjection before any request")
	}
	d.SetFrequency(900)
	clk.Advance(50_000_000)
	inj, _ := d.SetFrequency(1500)
	last, ok := d.LastInjection()
	if !ok || last != inj || last.TargetMHz != 1500 {
		t.Fatalf("LastInjection = %+v, %v; SetFrequency returned %+v", last, ok, inj)
	}
	if last.InitMHz != 900 {
		t.Fatalf("second injection init = %v, want 900", last.InitMHz)
	}
}

func TestKernelDurationScalesWithFrequency(t *testing.T) {
	cfg := testConfig()
	cfg.IterJitterSigma = 1e-9 // effectively deterministic
	cfg.SMSpeedSigma = 1e-9
	cfg.IdleTimeoutNs = int64(10 * time.Second) // keep the device warm across runs
	d, clk := newTestDevice(t, cfg)

	run := func(freq float64) float64 {
		inj, err := d.SetFrequency(freq)
		if err != nil {
			t.Fatal(err)
		}
		clk.AdvanceTo(inj.CompleteNs + int64(100*time.Millisecond)) // settle well past wake
		k, err := d.Launch(KernelSpec{Iters: 50, CyclesPerIter: 200_000})
		if err != nil {
			t.Fatal(err)
		}
		d.Synchronize()
		durs := k.DurationsMs()
		var sum float64
		for _, v := range durs[len(durs)/2:] { // skip any wake residue
			sum += v
		}
		return sum / float64(len(durs)/2)
	}

	// Keep the device warm with a dummy kernel first.
	if _, err := d.Launch(KernelSpec{Iters: 400, CyclesPerIter: 200_000}); err != nil {
		t.Fatal(err)
	}
	d.Synchronize()

	at600 := run(600)
	at1200 := run(1200)
	ratio := at600 / at1200
	if math.Abs(ratio-2) > 0.05 {
		t.Fatalf("iteration time ratio 600/1200 MHz = %v, want ≈2", ratio)
	}
}

func TestKernelTimestampsQuantised(t *testing.T) {
	d, _ := newTestDevice(t, testConfig())
	k, err := d.Launch(KernelSpec{Iters: 20, CyclesPerIter: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	d.Synchronize()
	for _, block := range k.Samples() {
		for _, it := range block {
			if it.StartNs%1000 != 0 || it.EndNs%1000 != 0 {
				t.Fatalf("timestamp not quantised: %+v", it)
			}
		}
	}
}

func TestKernelTimestampsMonotone(t *testing.T) {
	d, clk := newTestDevice(t, testConfig())
	k, err := d.Launch(KernelSpec{Iters: 300, CyclesPerIter: 150_000})
	if err != nil {
		t.Fatal(err)
	}
	// Fire a frequency change mid-kernel to stress segment crossings.
	clk.Advance(2_000_000)
	d.SetFrequency(600)
	d.Synchronize()
	for smIdx, block := range k.Samples() {
		prevEnd := int64(-1)
		for i, it := range block {
			if it.EndNs < it.StartNs {
				t.Fatalf("SM %d iter %d: end before start: %+v", smIdx, i, it)
			}
			if it.StartNs < prevEnd {
				t.Fatalf("SM %d iter %d: overlaps previous (start %d < prev end %d)",
					smIdx, i, it.StartNs, prevEnd)
			}
			prevEnd = it.EndNs
		}
	}
}

func TestIterationSpanningTransitionBlends(t *testing.T) {
	cfg := testConfig()
	cfg.IterJitterSigma = 1e-9
	cfg.SMSpeedSigma = 1e-9
	cfg.WakeDelayNs = 1 // effectively disable wake effects
	cfg.Latency = fixedModel{bus: 0, dur: 0}
	d, clk := newTestDevice(t, cfg)

	// Warm: run at 1200, then mid-kernel drop to 600 instantaneously.
	k, err := d.Launch(KernelSpec{Iters: 100, CyclesPerIter: 240_000, Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Nominal iteration at 1200 MHz: 240000/1200 = 200 µs. Change the
	// clock 1 ms after the (launch-overhead delayed) start.
	clk.Advance(1_000_000)
	d.SetFrequency(600)
	d.Synchronize()

	durs := k.DurationsMs()
	// Early iterations ≈ 0.2 ms, late ≈ 0.4 ms, with at most one blended
	// iteration in between.
	if durs[0] < 0.19 || durs[0] > 0.21 {
		t.Fatalf("first iteration %v ms, want ≈0.2", durs[0])
	}
	last := durs[len(durs)-1]
	if last < 0.39 || last > 0.41 {
		t.Fatalf("last iteration %v ms, want ≈0.4", last)
	}
	// Find the change: total time must be conserved (no lost cycles).
	fast, slow, blended := 0, 0, 0
	for _, dms := range durs {
		switch {
		case dms < 0.21:
			fast++
		case dms > 0.39:
			slow++
		default:
			blended++
		}
	}
	if blended > 1 {
		t.Fatalf("%d blended iterations, want ≤1", blended)
	}
	if fast == 0 || slow == 0 {
		t.Fatalf("fast=%d slow=%d: transition not visible", fast, slow)
	}
}

func TestWakeUpSlowsFirstIterations(t *testing.T) {
	cfg := testConfig()
	cfg.WakeDelayNs = 5_000_000 // 5 ms at idle clocks
	d, _ := newTestDevice(t, cfg)

	k, err := d.Launch(KernelSpec{Iters: 200, CyclesPerIter: 120_000, Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	d.Synchronize()
	durs := k.DurationsMs()
	// At idle clocks (300 MHz) an iteration takes 4× its 1200 MHz time.
	if durs[0] < 3*durs[len(durs)-1] {
		t.Fatalf("first iteration %v not slowed vs last %v", durs[0], durs[len(durs)-1])
	}
	// A second kernel launched immediately is warm: no wake penalty.
	k2, err := d.Launch(KernelSpec{Iters: 20, CyclesPerIter: 120_000, Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	d.Synchronize()
	d2 := k2.DurationsMs()
	if d2[0] > 1.5*d2[len(d2)-1] {
		t.Fatalf("warm kernel first iteration %v slowed (last %v)", d2[0], d2[len(d2)-1])
	}
}

func TestDeviceTimeOffsetAndDrift(t *testing.T) {
	cfg := testConfig()
	cfg.ClockOffsetNs = 123_456_789
	cfg.ClockDriftPPM = 12
	d, _ := newTestDevice(t, cfg)
	for _, hostNs := range []int64{0, 1_000_000, 987_654_321, 1 << 40} {
		// The reading is the offset, drifted host time, floored to the
		// 1 µs timer quantum.
		exact := float64(hostNs) + float64(cfg.ClockOffsetNs) + float64(hostNs)*cfg.ClockDriftPPM/1e6
		if lag := exact - float64(d.DeviceTimeAt(hostNs)); lag < -1 || lag >= 1001 {
			t.Fatalf("device time at host %d lags offset+drift by %v ns, want [0, 1000)", hostNs, lag)
		}
	}
}

func TestDeviceTimeQuantised(t *testing.T) {
	cfg := testConfig()
	cfg.ClockOffsetNs = 777
	d, _ := newTestDevice(t, cfg)
	if got := d.DeviceTimeAt(1234); got%1000 != 0 {
		t.Fatalf("DeviceTimeAt not quantised: %d", got)
	}
}

func TestSamplesBeforeSyncPanics(t *testing.T) {
	d, _ := newTestDevice(t, testConfig())
	k, err := d.Launch(KernelSpec{Iters: 1, CyclesPerIter: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Samples before Synchronize did not panic")
		}
	}()
	k.Samples()
}

func TestLaunchValidation(t *testing.T) {
	d, _ := newTestDevice(t, testConfig())
	if _, err := d.Launch(KernelSpec{Iters: 0, CyclesPerIter: 1}); err == nil {
		t.Error("Iters=0 accepted")
	}
	if _, err := d.Launch(KernelSpec{Iters: 1, CyclesPerIter: 0}); err == nil {
		t.Error("CyclesPerIter=0 accepted")
	}
	if _, err := d.Launch(KernelSpec{Iters: 1, CyclesPerIter: 1, Blocks: 99}); err == nil {
		t.Error("Blocks beyond SMCount accepted")
	}
}

func TestSynchronizeAdvancesClock(t *testing.T) {
	d, clk := newTestDevice(t, testConfig())
	before := clk.Now()
	_, err := d.Launch(KernelSpec{Iters: 100, CyclesPerIter: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	d.Synchronize()
	if clk.Now() <= before {
		t.Fatal("Synchronize did not advance the host clock")
	}
	if d.Pending() != 0 {
		t.Fatalf("Pending = %d after sync", d.Pending())
	}
}

func TestThermalHeatsAndCools(t *testing.T) {
	cfg := testConfig()
	cfg.ThermalTauS = 1 // fast dynamics for the test
	d, clk := newTestDevice(t, cfg)
	if temp := d.Temperature(); temp != 30 {
		t.Fatalf("initial temperature %v, want ambient 30", temp)
	}
	// A long kernel heats the die.
	_, err := d.Launch(KernelSpec{Iters: 100, CyclesPerIter: 60_000_000, Blocks: 1}) // ~5 s
	if err != nil {
		t.Fatal(err)
	}
	d.Synchronize()
	hot := d.Temperature()
	if hot < 50 {
		t.Fatalf("temperature after 5 s load = %v, want > 50", hot)
	}
	// Idle cooling brings it back toward ambient.
	clk.Sleep(20 * time.Second)
	cool := d.Temperature()
	if cool >= hot || cool > 31 {
		t.Fatalf("temperature after cooling = %v (was %v)", cool, hot)
	}
}

func TestThermalThrottleEngagesAndRecovers(t *testing.T) {
	cfg := testConfig()
	cfg.ThermalTauS = 1
	cfg.ThermalLimitC = 55
	cfg.SteadyTempAtMaxC = 80
	cfg.ThrottleClampMHz = 300
	d, clk := newTestDevice(t, cfg)

	_, err := d.Launch(KernelSpec{Iters: 100, CyclesPerIter: 60_000_000, Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	d.Synchronize()
	if !d.ThrottleReasons().Has(ThrottleThermal) {
		t.Fatalf("thermal throttle not engaged at %v °C", d.Temperature())
	}
	if f := d.CurrentFreqMHz(); f != 300 {
		t.Fatalf("throttled clock = %v, want clamp 300", f)
	}
	// Cooling through the hysteresis band releases the throttle.
	clk.Sleep(30 * time.Second)
	if d.ThrottleReasons().Has(ThrottleThermal) {
		t.Fatalf("throttle still engaged at %v °C", d.Temperature())
	}
	if f := d.CurrentFreqMHz(); f != 1200 {
		t.Fatalf("post-recovery clock = %v, want 1200", f)
	}
}

func TestPowerCapThrottle(t *testing.T) {
	cfg := testConfig()
	cfg.PowerCapMHz = 900
	cfg.PowerCapDelayNs = int64(50 * time.Millisecond)
	d, clk := newTestDevice(t, cfg)

	inj, err := d.SetFrequency(1500)
	if err != nil {
		t.Fatal(err)
	}
	clk.AdvanceTo(inj.CompleteNs)
	_, err = d.Launch(KernelSpec{Iters: 100, CyclesPerIter: 3_000_000, Blocks: 1}) // ~200 ms at 1.5 GHz
	if err != nil {
		t.Fatal(err)
	}
	d.Synchronize()
	if !d.ThrottleReasons().Has(ThrottlePower) {
		t.Fatal("power throttle not engaged above cap")
	}
	if f := d.CurrentFreqMHz(); f != 900 {
		t.Fatalf("power-capped clock = %v, want 900", f)
	}
	// Programming a clock at or below the cap releases the latch.
	if _, err := d.SetFrequency(600); err != nil {
		t.Fatal(err)
	}
	if d.ThrottleReasons().Has(ThrottlePower) {
		t.Fatal("power throttle not released after lowering clocks")
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func() []float64 {
		d, clk := newTestDevice(t, testConfig())
		clk.Advance(5_000)
		k, err := d.Launch(KernelSpec{Iters: 50, CyclesPerIter: 100_000})
		if err != nil {
			t.Fatal(err)
		}
		clk.Advance(1_000_000)
		d.SetFrequency(600)
		d.Synchronize()
		return k.DurationsMs()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestBlocksSubsetRecorded(t *testing.T) {
	d, _ := newTestDevice(t, testConfig())
	k, err := d.Launch(KernelSpec{Iters: 5, CyclesPerIter: 10_000, Blocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	d.Synchronize()
	if got := len(k.Samples()); got != 2 {
		t.Fatalf("recorded blocks = %d, want 2", got)
	}
}

// TestReplicaKeepsChip: a replica is the same chip on a fresh clock and
// its own noise stream. Its configuration, apart from the seed, and its
// per-SM speeds equal the source's; none of the source's clock, thermal
// or frequency state carries over; and its noise stream is the one a
// device built from the replica seed draws.
func TestReplicaKeepsChip(t *testing.T) {
	cfg := testConfig()
	d, _ := newTestDevice(t, cfg)
	if _, err := d.SetFrequency(1500); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Launch(KernelSpec{Iters: 200, CyclesPerIter: 1.5e7}); err != nil {
		t.Fatal(err)
	}
	d.Synchronize()

	r, err := d.Replica(clock.New(), 7)
	if err != nil {
		t.Fatal(err)
	}
	want := d.Config()
	want.Seed = 7
	if !reflect.DeepEqual(r.Config(), want) {
		t.Errorf("replica config = %+v, want %+v", r.Config(), want)
	}
	if !slices.Equal(r.smSpeed, d.smSpeed) {
		t.Errorf("replica SM speeds %v, source %v", r.smSpeed, d.smSpeed)
	}
	other, _ := newTestDevice(t, want)
	if slices.Equal(other.smSpeed, d.smSpeed) {
		t.Fatal("seed 7 draws the source's SM speeds: the check above proves nothing")
	}
	if r.Clock().Now() != 0 || r.SetFreqMHz() != cfg.DefaultFreqMHz || r.thermal.tempC != ambientC {
		t.Errorf("replica state: clock %d ns, clock %v MHz, %v °C; want a fresh device",
			r.Clock().Now(), r.SetFreqMHz(), r.thermal.tempC)
	}
	if a, b := r.rng.Float64(), other.rng.Float64(); a != b {
		t.Errorf("replica noise draws %v, a device built from its seed %v", a, b)
	}
}

// squaresSink is a TailSink that also reads each fold's Σd², so the
// device folds its window with fold tables, as for a sink that is not
// mean-only.
type squaresSink struct {
	*TailSink
	sumSqNs int64
}

func (s *squaresSink) Fold(block, n int, sumNs, sumSqNs int64) {
	s.TailSink.Fold(block, n, sumNs, sumSqNs)
	s.sumSqNs += sumSqNs
}

// TestReplicaBuildsNoFoldTableItsChipHas: a replica folds with its
// chip's fold tables. The same warm-up-like kernel, folded through a sink
// that reads Σd², on the source and then on a replica folds at the same
// durations, so the replica adds no table; its handle on each is its own
// (so is its last-length memo), and a table a replica builds first is
// the source's too. The TailSink itself builds no table.
func TestReplicaBuildsNoFoldTableItsChipHas(t *testing.T) {
	d, _ := newTestDevice(t, testConfig())
	spec := KernelSpec{Iters: 600, CyclesPerIter: 120_000, Blocks: 4}
	if err := d.LaunchWithSink(spec, NewTailSink(100)); err != nil {
		t.Fatal(err)
	}
	d.Synchronize()
	if n := len(d.chip.folds); n != 0 || d.IterCounts().Folded == 0 {
		t.Fatalf("a TailSink folded %d iterations with %d fold tables, want some with none", d.IterCounts().Folded, n)
	}
	warm := func(dev *Device) {
		t.Helper()
		if err := dev.LaunchWithSink(spec, &squaresSink{TailSink: NewTailSink(100)}); err != nil {
			t.Fatal(err)
		}
		dev.Synchronize()
	}
	warm(d)
	built := len(d.chip.folds)
	if built == 0 || d.IterCounts().Folded == 0 {
		t.Fatalf("the source folded %d iterations with %d tables: the check below proves nothing", d.IterCounts().Folded, built)
	}
	r, err := d.Replica(clock.New(), 7)
	if err != nil {
		t.Fatal(err)
	}
	warm(r)
	if r.IterCounts().Folded == 0 {
		t.Fatal("the replica folded nothing")
	}
	if len(r.chip.folds) != built {
		t.Fatalf("the chip holds %d fold tables after the replica's kernel, %d before", len(r.chip.folds), built)
	}
	for key, c := range r.folds {
		if c == nil {
			continue
		}
		if src := d.folds[key]; src.foldTable != c.foldTable || src == c {
			t.Fatalf("duration %v: replica table %p handle %p, source table %p handle %p",
				math.Float64frombits(key), c.foldTable, c, src.foldTable, src)
		}
	}
	if c := r.foldCoef(97_000); c == nil || d.foldCoef(97_000).foldTable != c.foldTable {
		t.Fatal("the source rebuilt a table its replica built")
	}
}

// TestReplicasFoldConcurrently runs warm-up-like kernels, folded
// through a sink that reads Σd², on replicas of one chip from several
// goroutines at once, so the race detector sees the shared fold tables,
// and checks each replica ends where the same replica run alone ends.
func TestReplicasFoldConcurrently(t *testing.T) {
	d, _ := newTestDevice(t, testConfig())
	spec := KernelSpec{Iters: 600, CyclesPerIter: 120_000, Blocks: 4}
	run := func(seed uint64) (int64, error) {
		r, err := d.Replica(clock.New(), seed)
		if err != nil {
			return 0, err
		}
		for _, f := range []float64{1200, 600, 1500} {
			if _, err := r.SetFrequency(f); err != nil {
				return 0, err
			}
			if err := r.LaunchWithSink(spec, &squaresSink{TailSink: NewTailSink(100)}); err != nil {
				return 0, err
			}
			r.Synchronize()
		}
		return r.Clock().Now(), nil
	}
	const replicas = 8
	var ends [replicas]int64
	var errs [replicas]error
	var wg sync.WaitGroup
	for i := range replicas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ends[i], errs[i] = run(uint64(i + 1))
		}()
	}
	wg.Wait()
	for i := range replicas {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if want, err := run(uint64(i + 1)); err != nil || ends[i] != want {
			t.Fatalf("replica %d ended at %d concurrently, %d alone (%v)", i, ends[i], want, err)
		}
	}
}
