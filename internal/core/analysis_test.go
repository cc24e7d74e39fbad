package core

import (
	"fmt"
	"math"
	"testing"

	"golatest/internal/ptp"
	"golatest/internal/sim/gpu"
	"golatest/internal/stats"
)

// refEvaluateBlock is the two-pass phase-3 evaluator of one SM over a
// materialised trace, kept as the reference the streaming detectSink
// must reproduce bit for bit: find the first iteration at or after the
// change timestamp inside the detection band, then confirm that the mean
// of everything from there on lies within relTolerance of the target's.
func refEvaluateBlock(cfg *Config, iters []gpu.IterSample, tsDevNs int64, target stats.MeanStd) blockVerdict {
	v := blockVerdict{}
	band := cfg.SigmaK * target.Std
	if cfg.CIDetection {
		band = cfg.SigmaK * target.StdErr()
	}
	detectIdx := -1
	for i, it := range iters {
		if it.StartNs < tsDevNs {
			continue
		}
		durMs := float64(it.DurNs()) / 1e6
		if math.Abs(durMs-target.Mean) <= band {
			detectIdx = i
			break
		}
	}
	if detectIdx < 0 {
		return v
	}
	v.detected = true
	v.teDevNs = iters[detectIdx].EndNs
	v.iterIndex = detectIdx

	var acc stats.Accumulator
	for _, it := range iters[detectIdx:] {
		acc.Add(float64(it.DurNs()) / 1e6)
	}
	tail := acc.MeanStd()
	if tail.N < 2 || math.Abs(tail.Mean-target.Mean)/target.Mean >= relTolerance {
		return v
	}
	v.confirmed = true
	v.latencyMs = float64(v.teDevNs-tsDevNs) / 1e6
	return v
}

// refEvaluate evaluates every block of a materialised trace and reduces
// the verdicts to the maximum accepted latency, as the pre-sink
// evaluator did.
func refEvaluate(cfg *Config, blocks [][]gpu.IterSample, tsDevNs int64, target stats.MeanStd) ([]blockVerdict, Measurement, error) {
	verdicts := make([]blockVerdict, len(blocks))
	for i, iters := range blocks {
		verdicts[i] = refEvaluateBlock(cfg, iters, tsDevNs, target)
	}
	best := Measurement{LatencyMs: math.Inf(-1)}
	anyDetected, accepted := false, false
	for sm, v := range verdicts {
		anyDetected = anyDetected || v.detected
		if !v.confirmed {
			continue
		}
		accepted = true
		if v.latencyMs > best.LatencyMs {
			best.LatencyMs = v.latencyMs
			best.TeDevNs = v.teDevNs
			best.SM = sm
			best.TransitionIndex = v.iterIndex
		}
	}
	if !accepted {
		if anyDetected {
			return verdicts, Measurement{}, errConfirmFailed
		}
		return verdicts, Measurement{}, errNoDetection
	}
	return verdicts, best, nil
}

// unfolded hides a sink's gpu.TailFolder methods, so the device
// delivers every iteration it wants one by one.
type unfolded struct{ gpu.SampleSink }

// armReachable reports whether MeasureOnce's sink, armed for targetStat
// on r's device, would read the benchmark kernel.
func armReachable(r *Runner, targetStat stats.MeanStd) bool {
	s := new(detectSink)
	s.arm(&r.cfg, 0, targetStat, r.quantumNs)
	return s.reachable
}

// refMeasureOnce is MeasureOnce with a materialised benchmark kernel
// (LaunchKernel, then Samples) evaluated by refEvaluate. With
// mirrorSkip, a kernel that MeasureOnce's sink declines (its band holds
// no timer value) streams into a sink that declines it too and reports
// errNoDetection with undetected blocks, so a twin runner consumes the
// same device and host randomness as MeasureOnce on every kernel;
// without it every kernel materialises. verdicts is nil when the
// attempt failed before phase 3.
func refMeasureOnce(t *testing.T, r *Runner, pair Pair, initStat, targetStat stats.MeanStd, mirrorSkip bool) ([]blockVerdict, Measurement, error) {
	t.Helper()
	cycles := r.cyclesFor(pair)
	iterInitNs := iterNsAt(cycles, pair.InitMHz)
	sync, err := ptp.Sync(r.ctx.Clock(), r.dev.Sim(), r.cfg.PTP, r.rng)
	if err != nil {
		return nil, Measurement{}, err
	}
	if err := r.dev.SetApplicationsClocks(0, pair.InitMHz); err != nil {
		return nil, Measurement{}, err
	}
	if err := r.ensureInitialClock(initStat, cycles, iterInitNs); err != nil {
		return nil, Measurement{}, err
	}
	captureIters := int(float64(r.effectiveCaptureNs())/r.cfg.IterTargetNs) + 1
	spec := gpu.KernelSpec{
		Iters:         r.cfg.DelayIters + captureIters + r.cfg.ConfirmIters,
		CyclesPerIter: cycles,
		Blocks:        r.cfg.Blocks,
	}
	declined := mirrorSkip && !armReachable(r, targetStat)
	var bench *gpu.Kernel
	if declined {
		err = r.ctx.LaunchKernelWithSink(spec, declineSink{})
	} else {
		bench, err = r.ctx.LaunchKernel(spec)
	}
	if err != nil {
		return nil, Measurement{}, err
	}
	r.ctx.Usleep(int64(float64(r.cfg.DelayIters) * iterInitNs / 1000))
	tsHost := r.ctx.HostTimestamp()
	if err := r.dev.SetApplicationsClocks(0, pair.TargetMHz); err != nil {
		return nil, Measurement{}, err
	}
	injected := math.NaN()
	if inj, ok := r.dev.Sim().LastInjection(); ok && inj.TargetMHz == pair.TargetMHz {
		injected = float64(inj.SwitchingLatencyNs()) / 1e6
	}
	r.ctx.DeviceSynchronize()
	if declined {
		return make([]blockVerdict, r.cfg.Blocks), Measurement{}, errNoDetection
	}
	tsDev := sync.HostToDevice(tsHost)
	verdicts, m, err := refEvaluate(&r.cfg, bench.Samples(), tsDev, targetStat)
	if err != nil {
		return verdicts, Measurement{}, err
	}
	m.Pair = pair
	m.TsDevNs = tsDev
	m.InjectedMs = injected
	m.SyncSpreadNs = sync.SpreadNs
	return verdicts, m, nil
}

func sameVerdicts(t *testing.T, what string, got, want []blockVerdict) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d block verdicts, reference %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.detected != w.detected || g.confirmed != w.confirmed || g.teDevNs != w.teDevNs ||
			g.iterIndex != w.iterIndex || math.Float64bits(g.latencyMs) != math.Float64bits(w.latencyMs) {
			t.Fatalf("%s: block %d verdict %+v, reference %+v", what, i, g, w)
		}
	}
}

func sameMeasurement(t *testing.T, what string, got Measurement, gotErr error, want Measurement, wantErr error) {
	t.Helper()
	if gotErr != wantErr {
		t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
	}
	if got.Pair != want.Pair || got.TsDevNs != want.TsDevNs || got.TeDevNs != want.TeDevNs ||
		got.SM != want.SM || got.TransitionIndex != want.TransitionIndex || got.SyncSpreadNs != want.SyncSpreadNs ||
		math.Float64bits(got.LatencyMs) != math.Float64bits(want.LatencyMs) ||
		math.Float64bits(got.InjectedMs) != math.Float64bits(want.InjectedMs) {
		t.Fatalf("%s: measurement %+v, reference %+v", what, got, want)
	}
}

// twinSetup is one device and campaign shape of the twin sweeps.
type twinSetup struct {
	name   string
	model  pairModel
	mutate func(*gpu.Config)
	config func(*Config)
}

// twinSetups covers several seeds, step and ramped transitions and both
// detection bands, plus two devices the 30 ms capture hint does not
// fit: an adapting one — a slow 16-step ramp, noisy iterations and a
// short confirmation region — on which detection often fires mid-ramp
// and confirmation fails, and one whose 150 ms up-switches outlast the
// whole benchmark kernel, so its 2σ band starves.
func twinSetups() []twinSetup {
	var out []twinSetup
	for _, seed := range []uint64{77, 1234, 99991} {
		for _, ramp := range []int{0, 2, 16} {
			for _, ci := range []bool{false, true} {
				out = append(out, twinSetup{
					name:  fmt.Sprintf("seed %d, ramp %d, CI %v", seed, ramp, ci),
					model: pairModel{upNs: 10_000_000, downNs: 5_000_000},
					mutate: func(c *gpu.Config) {
						c.Seed = seed
						c.RampSteps = ramp
						c.ClockOffsetNs = -2_500_000_000
						c.ClockDriftPPM = 6
					},
					config: func(c *Config) { c.CIDetection = ci },
				})
			}
		}
	}
	return append(out, twinSetup{
		name:  "adapting",
		model: pairModel{upNs: 40_000_000, downNs: 20_000_000},
		mutate: func(c *gpu.Config) {
			c.RampSteps = 16
			c.IterJitterSigma = 0.02
		},
		config: func(c *Config) { c.ConfirmIters = 50 },
	}, twinSetup{
		name:  "under-captured",
		model: pairModel{upNs: 150_000_000, downNs: 5_000_000},
	})
}

// runner builds the setup's runner over the 600/900/1200 MHz clocks.
func (ts twinSetup) runner(t *testing.T) *Runner {
	t.Helper()
	cfg := quickConfig(600, 900, 1200)
	if ts.config != nil {
		ts.config(&cfg)
	}
	r, err := NewRunner(testDevice(t, ts.model, ts.mutate), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestDetectSinkMatchesReference drives MeasureOnce (streaming phase 3)
// and refMeasureOnce (materialised phase 3) on twin runners — same
// device, same seeds, same history — over every twin setup, and
// requires identical per-SM verdicts, measurements and errors. The
// streaming twin's sink is wrapped so that only its gpu.SampleSink
// methods show: it reads every tail iteration one by one, which pins
// the per-iteration path bit for bit (TestFoldedTailKeepsDetection
// covers the fold). A kernel the sink declines elapses without a trace
// on both twins (see TestDeclinedKernelsNeverDetect for why its verdict
// holds), so the twins stay in step and every kernel the sink reads is
// compared.
func TestDetectSinkMatchesReference(t *testing.T) {
	outcomes := map[error]int{}
	attempts, declined := 0, 0
	for _, setup := range twinSetups() {
		a, b := setup.runner(t), setup.runner(t)
		a.benchSink = unfolded{a.detect}
		p1, err := a.Phase1()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Phase1(); err != nil {
			t.Fatal(err)
		}
		for _, pair := range p1.ValidPairs {
			is, ts, err := a.pairStats(pair, p1)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 3; k++ {
				what := setup.name + ": " + pair.String()
				m, err := a.MeasureOnce(pair, is, ts)
				wantV, wantM, wantErr := refMeasureOnce(t, b, pair, is, ts, true)
				sameMeasurement(t, what, m, err, wantM, wantErr)
				if wantV != nil {
					sameVerdicts(t, what, a.detect.blocks, wantV)
					if !a.detect.reachable {
						declined++
					}
				}
				outcomes[err]++
				attempts++
			}
		}
	}
	t.Logf("outcomes: %d accepted, %d no detection (%d declined), %d confirmation failed, %d other",
		outcomes[nil], outcomes[errNoDetection], declined, outcomes[errConfirmFailed],
		attempts-outcomes[nil]-outcomes[errNoDetection]-outcomes[errConfirmFailed])
	if outcomes[nil] == 0 || outcomes[errConfirmFailed] == 0 || outcomes[errNoDetection] == declined {
		t.Fatalf("sweep did not exercise acceptance, failed confirmation and starved detection on a read kernel: %v", outcomes)
	}
	if declined == 0 || declined == attempts {
		t.Fatalf("%d of %d kernels declined; the sweep must compare both kinds", declined, attempts)
	}
}

// TestDeclinedKernelsNeverDetect is the property that lets the sink
// decline a kernel: over every twin setup, each benchmark kernel is
// materialised and scanned in full, and every kernel whose band the sink
// marks as holding no timer value must end in errNoDetection with no
// block detected. At least one kernel must be declined.
func TestDeclinedKernelsNeverDetect(t *testing.T) {
	declined, kernels := 0, 0
	for _, setup := range twinSetups() {
		r := setup.runner(t)
		p1, err := r.Phase1()
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range p1.ValidPairs {
			is, ts, err := r.pairStats(pair, p1)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 3; k++ {
				verdicts, _, err := refMeasureOnce(t, r, pair, is, ts, false)
				if verdicts == nil {
					continue // failed before phase 3
				}
				kernels++
				if armReachable(r, ts) {
					continue
				}
				declined++
				if err != errNoDetection {
					t.Fatalf("%s: %v: declined kernel ends in %v, want no detection", setup.name, pair, err)
				}
				for sm, v := range verdicts {
					if v.detected {
						t.Fatalf("%s: %v: declined kernel detected on block %d: %+v", setup.name, pair, sm, v)
					}
				}
			}
		}
	}
	t.Logf("%d of %d benchmark kernels declined", declined, kernels)
	if declined == 0 {
		t.Fatal("no kernel was declined")
	}
}

// blockTrace builds one block's trace: back-to-back iterations from
// startNs with the given durations.
func blockTrace(startNs int64, durs ...int64) []gpu.IterSample {
	out := make([]gpu.IterSample, len(durs))
	t := startNs
	for i, d := range durs {
		out[i] = gpu.IterSample{StartNs: t, EndNs: t + d}
		t += d
	}
	return out
}

// repeat returns n copies of d.
func repeat(d int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = d
	}
	return out
}

// replay streams a materialised trace into the sink the way the device
// delivers a kernel.
func replay(s *detectSink, blocks [][]gpu.IterSample) {
	for b, iters := range blocks {
		for i := s.BlockStart(b, len(iters)); i < len(iters); i++ {
			s.Sample(b, i, iters[i])
		}
		s.BlockEnd(b)
	}
}

// replayFolded streams a materialised trace like replay, except that
// once a block is in its tail, the rest of the block arrives in one Fold,
// as the device hands over a tail within one clock segment.
func replayFolded(s *detectSink, blocks [][]gpu.IterSample) {
	for b, iters := range blocks {
		i := s.BlockStart(b, len(iters))
		for ; i < len(iters) && !s.InTail(b); i++ {
			s.Sample(b, i, iters[i])
		}
		if i < len(iters) {
			s.Fold(b, len(iters)-i, iters[len(iters)-1].EndNs-iters[i].StartNs)
		}
		s.BlockEnd(b)
	}
}

// TestDetectSinkEdgeCases replays hand-built traces through the sink and
// the reference: an in-band iteration starting exactly at the change,
// detection on a block's last iteration (a one-iteration tail cannot
// confirm) or one before it, no iteration at or after the change, a
// failed confirmation, tails 1.9% and 2.1% off the target mean on either
// side of the 2% tolerance, and a multi-block reduction. Each case is
// replayed twice, with the tail delivered one by one and folded.
func TestDetectSinkEdgeCases(t *testing.T) {
	cfg, err := quickConfig(600, 1200).withDefaults(testDevice(t, fixedModel{dur: 1}, nil))
	if err != nil {
		t.Fatal(err)
	}
	// Target population: 0.2 ms iterations; the initial clock runs 0.1 ms.
	target := stats.MeanStd{N: 900, Mean: 0.2, Std: 0.002}
	const fast, slow = int64(100_000), int64(200_000)
	const t0 = int64(1_000_000)
	confirmed := blockTrace(t0, append(repeat(fast, 10), repeat(slow, 20)...)...)
	lastOnly := blockTrace(t0, append(repeat(fast, 10), slow)...)
	adapting := blockTrace(t0, append(repeat(fast, 10), append([]int64{slow}, repeat(fast, 20)...)...)...)
	lateSwitch := blockTrace(t0, append(repeat(fast, 14), repeat(slow, 16)...)...)
	shortTail := blockTrace(t0, append(repeat(fast, 10), slow, slow)...)
	// One in-band iteration, then 99 whose durations put the tail's mean
	// 1.8998% and 2.0998% above the target's.
	nearTol := blockTrace(t0, append(repeat(fast, 10), append([]int64{slow}, repeat(203_838, 99)...)...)...)
	pastTol := blockTrace(t0, append(repeat(fast, 10), append([]int64{slow}, repeat(204_242, 99)...)...)...)

	cases := []struct {
		name      string
		blocks    [][]gpu.IterSample
		tsDevNs   int64
		wantErr   error
		wantBlock []blockVerdict // detected/confirmed per block
	}{
		{"confirmed", [][]gpu.IterSample{confirmed}, t0 + 5*fast, nil,
			[]blockVerdict{{detected: true, confirmed: true}}},
		{"detected on last iteration", [][]gpu.IterSample{lastOnly, lastOnly}, t0, errConfirmFailed,
			[]blockVerdict{{detected: true}, {detected: true}}},
		{"detected iteration starts at the change", [][]gpu.IterSample{confirmed}, t0 + 10*fast, nil,
			[]blockVerdict{{detected: true, confirmed: true}}},
		{"two-iteration tail", [][]gpu.IterSample{shortTail}, t0, nil,
			[]blockVerdict{{detected: true, confirmed: true}}},
		{"nothing at or after the change", [][]gpu.IterSample{confirmed}, t0 + 10*fast + 20*slow + 1, errNoDetection,
			[]blockVerdict{{}}},
		{"confirmation failure", [][]gpu.IterSample{adapting}, t0, errConfirmFailed,
			[]blockVerdict{{detected: true}}},
		{"tail mean 1.9% off", [][]gpu.IterSample{nearTol}, t0, nil,
			[]blockVerdict{{detected: true, confirmed: true}}},
		{"tail mean 2.1% off", [][]gpu.IterSample{pastTol}, t0, errConfirmFailed,
			[]blockVerdict{{detected: true}}},
		{"maximum over blocks", [][]gpu.IterSample{confirmed, lastOnly, lateSwitch, adapting}, t0, nil,
			[]blockVerdict{{detected: true, confirmed: true}, {detected: true}, {detected: true, confirmed: true}, {detected: true}}},
	}
	s := new(detectSink)
	for _, tc := range cases {
		wantV, wantM, wantErr := refEvaluate(&cfg, tc.blocks, tc.tsDevNs, target)
		for _, how := range []struct {
			name   string
			replay func(*detectSink, [][]gpu.IterSample)
		}{{"one by one", replay}, {"folded", replayFolded}} {
			what := tc.name + ", " + how.name
			s.arm(&cfg, tc.tsDevNs, target, 1000)
			how.replay(s, tc.blocks)
			m, err := s.verdict()
			sameVerdicts(t, what, s.blocks, wantV)
			sameMeasurement(t, what, m, err, wantM, wantErr)
			if err != tc.wantErr {
				t.Fatalf("%s: error %v, want %v", what, err, tc.wantErr)
			}
			for i, w := range tc.wantBlock {
				if g := s.blocks[i]; g.detected != w.detected || g.confirmed != w.confirmed {
					t.Fatalf("%s: block %d detected/confirmed = %v/%v, want %v/%v",
						what, i, g.detected, g.confirmed, w.detected, w.confirmed)
				}
			}
		}
	}
	// The reduction picks the later switch (block 2) over block 0.
	s.arm(&cfg, t0, target, 1000)
	replay(s, cases[len(cases)-1].blocks)
	if m, _ := s.verdict(); m.SM != 2 || m.TransitionIndex != 14 {
		t.Fatalf("maximum over blocks: SM %d at iteration %d, want SM 2 at 14", m.SM, m.TransitionIndex)
	}
}
