package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"golatest/internal/cuda"
	"golatest/internal/nvml"
	"golatest/internal/ptp"
	"golatest/internal/sim/clock"
	"golatest/internal/sim/gpu"
	"golatest/internal/stats"
	"golatest/internal/workload"
)

// warmTailWindow is how many trailing iterations per block the warm-up
// verification compares against the phase-1 characterisation (capped at
// half the block).
const warmTailWindow = 100

// Runner drives a measurement campaign on one device.
type Runner struct {
	dev *nvml.Device
	ctx *cuda.Context
	cfg Config
	rng *clock.Rand

	// moments and tails are the reusable streaming sinks of the phase-1
	// and warm-up kernels, which only need summary statistics and
	// therefore skip trace materialisation. One of each per runner: the
	// single host thread that advances virtual time is also the only
	// sink writer. warmSink, when set, is what warm-up kernels stream
	// into instead: a wrapper around tails (tests hide its fold).
	// unreadSink, when set, is what phase 1's unread warm kernels stream
	// into instead of declining every block (tests simulate them one by
	// one).
	moments    *gpu.MomentSink
	tails      *gpu.TailSink
	warmSink   gpu.SampleSink
	unreadSink gpu.SampleSink
	// detect is the phase-3 sink: the benchmark kernel streams into it
	// and it evaluates every SM online, folding each block's tail.
	// benchSink, when set, is what the kernel streams into instead: a
	// wrapper around detect (tests hide its fold to read every tail
	// iteration).
	detect    *detectSink
	benchSink gpu.SampleSink
	// quantumNs is the device timer's refresh period: every measured
	// duration is a multiple of it.
	quantumNs int64

	// captureHintNs is the effective capture bound (config hint or probe
	// result), mutable because adaptive retry may grow it.
	captureHintNs int64
}

// runnerTag labels the host randomness stream of a runner ("runner").
const runnerTag = 0x72756e6e6572

// NewRunner validates the configuration against the device and returns a
// ready campaign runner.
func NewRunner(dev *nvml.Device, cfg Config) (*Runner, error) {
	cfg, err := cfg.withDefaults(dev)
	if err != nil {
		return nil, err
	}
	return newRunner(dev, cfg, clock.NewRand(cfg.Seed, runnerTag), cfg.MaxLatencyHintNs)
}

// newRunner builds a runner on dev from a default-filled configuration,
// a host randomness stream and a capture bound.
func newRunner(dev *nvml.Device, cfg Config, rng *clock.Rand, captureHintNs int64) (*Runner, error) {
	ctx, err := cuda.NewContext(dev.Sim())
	if err != nil {
		return nil, err
	}
	return &Runner{
		dev:           dev,
		ctx:           ctx,
		cfg:           cfg,
		rng:           rng,
		moments:       new(gpu.MomentSink),
		tails:         gpu.NewTailSink(warmTailWindow),
		detect:        new(detectSink),
		quantumNs:     dev.Sim().Config().TimerQuantumNs,
		captureHintNs: captureHintNs,
	}, nil
}

// pairTag folds a pair's identity into a seed. It depends only on the
// frequencies, so a pair's replica behaves identically no matter which
// other pairs the campaign sweeps or in what order.
func pairTag(seed uint64, pair Pair) uint64 {
	return clock.SplitMix64(clock.SplitMix64(seed^math.Float64bits(pair.InitMHz)) ^ math.Float64bits(pair.TargetMHz))
}

// replicaRunner builds the runner that measures one pair: a replica of
// the chip phase 1 characterised (same configuration and per-SM speeds)
// on a fresh virtual clock, with device noise seeded from the device seed
// and the pair, plus an independent host randomness stream. No clock,
// temperature or capture window carries over from other pairs, so a
// pair's samples depend only on (device, config, pair), and pairs
// measure in parallel bit-for-bit reproducibly.
func (r *Runner) replicaRunner(pair Pair) (*Runner, error) {
	src := r.dev.Sim()
	sim, err := src.Replica(clock.New(), pairTag(src.Config().Seed, pair))
	if err != nil {
		return nil, err
	}
	lib, err := nvml.New(sim)
	if err != nil {
		return nil, err
	}
	h, err := lib.DeviceHandleByIndex(0)
	if err != nil {
		return nil, err
	}
	return newRunner(h, r.cfg, clock.NewRand(r.cfg.Seed, pairTag(runnerTag, pair)), r.captureHintNs)
}

// Config returns the runner's effective (default-filled) configuration.
func (r *Runner) Config() Config { return r.cfg }

// cyclesFor returns the per-iteration cycle budget that makes an
// iteration last IterTargetNs at the slower clock of the pair.
func (r *Runner) cyclesFor(pair Pair) float64 {
	slow := math.Min(pair.InitMHz, pair.TargetMHz)
	return workload.CyclesForIterDuration(r.cfg.IterTargetNs, slow)
}

// iterNsAt returns the nominal iteration duration at clock f for the
// given cycle budget.
func iterNsAt(cycles, f float64) float64 { return workload.IterDurationNs(cycles, f) }

// FreqStats is the phase-1 characterisation of one clock: the iteration
// duration population of the last warm kernel, in milliseconds.
type FreqStats struct {
	FreqMHz float64
	Iter    stats.MeanStd // iteration duration, ms
	// Normalish reports whether the population's skewness and excess
	// kurtosis lie within plausiblyNormal's margins of the timer-quantised
	// normal with the same mean and variance
	// (stats.QuantisedNormalShape). The 2σ band and the pairwise
	// intervals assume approximate normality (§V-A); a false here flags a
	// clock whose iteration distribution is skewed or heavy-tailed enough
	// to distort them (e.g. residual throttling or a contaminated
	// warm-up).
	Normalish bool
}

// Phase1Result carries Algorithm 1's outputs.
type Phase1Result struct {
	// Stats maps each clock to its iteration statistics at the campaign's
	// reference cycle budget.
	Stats map[float64]FreqStats
	// ValidPairs are the statistically distinguishable ordered pairs.
	ValidPairs []Pair
	// Excluded are the pairs whose mean-difference interval contained
	// zero (measurement impossible: the transition end cannot be told
	// apart from noise) or whose population bands overlap.
	Excluded []Pair
	// Unstable lists clocks the device never demonstrably reached during
	// warm-up (e.g. power-capped); pairs touching them are excluded.
	Unstable []float64
}

// refCycles returns the campaign-wide phase-1 cycle budget: iterations
// sized at the slowest configured clock, so every clock's population uses
// the same workload (a prerequisite for comparing their means).
func (r *Runner) refCycles() float64 {
	slow := r.cfg.Frequencies[0]
	for _, f := range r.cfg.Frequencies[1:] {
		if f < slow {
			slow = f
		}
	}
	return workload.CyclesForIterDuration(r.cfg.IterTargetNs, slow)
}

// plausiblyNormal is the phase-1 shape diagnostic over the streamed
// skewness (g1) and excess kurtosis (g2) of the population m (ms), read
// off a timer of quantum quantumNs. A full Jarque–Bera test
// over-rejects here, and so does any test against a continuous normal's
// shape: the timer turns a population whose jitter is under a few
// quanta into a lattice of a few points, which may be skewed, flat or
// heavy-tailed however normal the underlying durations are — harmless
// for the 2σ band. So g1 and g2 are judged against the quantised normal
// with the population's mean and variance (stats.QuantisedNormalShape).
// A departure of 0.5 in skew (residual throttling or adaptation in the
// window) or of −1.5 or +3 in kurtosis (strongly bimodal or heavy
// tails) distorts the band, unless four of the lattice's sampling
// standard errors exceed it.
func plausiblyNormal(m stats.MeanStd, g1, g2 float64, quantumNs int64) bool {
	if math.IsNaN(g1) || math.IsNaN(g2) {
		return true // too small to judge
	}
	q := float64(quantumNs) / 1e6
	s := m.Std / q
	w1, w2, se1, se2 := stats.QuantisedNormalShape(m.Mean/q, s*s, m.N)
	if math.IsNaN(se1) {
		return true
	}
	d1, d2 := math.Abs(g1-w1), g2-w2
	return d1 < max(0.5, 4*se1) && d2 > -max(1.5, 4*se2) && d2 < max(3, 4*se2)
}

// declineSink declines every block, so a kernel launched into it only
// elapses: no iteration is delivered.
type declineSink struct{}

func (declineSink) BlockStart(block, iters int) int            { return iters }
func (declineSink) Sample(block, iter int, smp gpu.IterSample) {}
func (declineSink) BlockEnd(block int)                         {}

// settleSleep waits long enough for a just-requested clock change to
// complete: the capture hint (if known) plus slack, otherwise a
// conservative second.
func (r *Runner) settleSleep() {
	slack := 50 * time.Millisecond
	if r.captureHintNs > 0 {
		r.ctx.Sleep(time.Duration(float64(r.captureHintNs)*1.2) + slack)
		return
	}
	r.ctx.Sleep(time.Second + slack)
}

// Phase1 executes the warm-up and frequency-comparison phase as one
// measurement step.
func (r *Runner) Phase1() (*Phase1Result, error) { return step(r.phase1) }

func (r *Runner) phase1() (*Phase1Result, error) {
	cycles := r.refCycles()
	res := &Phase1Result{Stats: make(map[float64]FreqStats, len(r.cfg.Frequencies))}

	unstable := map[float64]bool{}
	for _, f := range r.cfg.Frequencies {
		if err := r.dev.SetApplicationsClocks(0, f); err != nil {
			return nil, fmt.Errorf("core: phase 1 clock %v: %w", f, err)
		}
		r.settleSleep()
		// §V wake-up estimation: keep running warm kernels until the last
		// kernel's mean matches the nominal iteration duration at the
		// imposed clock. A fixed kernel count (or plateau detection
		// alone) is unsafe: a slow or driver-delayed transition executes
		// the early kernels at the previous clock, which also looks like
		// a stable plateau. The nominal duration is known here because
		// the runner authored the workload's cycle budget.
		nominalMs := cycles / f / 1000
		kernelNs := float64(r.cfg.ItersPerKernel) * workload.IterDurationNs(cycles, f)
		maxRounds := r.cfg.WarmKernels + int(3e9/kernelNs) + 1
		settled := false
		for k := 0; k < maxRounds; k++ {
			// Warm kernels only feed summary statistics, so they stream
			// through the runner's moment sink instead of materialising
			// their iteration traces. Nothing reads the first
			// WarmKernels−1 kernels' moments, so those decline every
			// block: they only elapse, one draw per clock segment.
			r.moments.Reset()
			var sink gpu.SampleSink = r.moments
			if k+1 < r.cfg.WarmKernels {
				sink = declineSink{}
				if r.unreadSink != nil {
					sink = r.unreadSink
				}
			}
			if err := r.ctx.LaunchKernelWithSink(gpu.KernelSpec{
				Iters:         r.cfg.ItersPerKernel,
				CyclesPerIter: cycles,
				Blocks:        r.cfg.Blocks,
			}, sink); err != nil {
				return nil, fmt.Errorf("core: phase 1 launch at %v MHz: %w", f, err)
			}
			r.ctx.DeviceSynchronize()
			if k+1 >= r.cfg.WarmKernels &&
				math.Abs(r.moments.MeanStd().Mean-nominalMs) < 0.02*nominalMs {
				settled = true
				break
			}
		}
		if !settled {
			unstable[f] = true
			res.Unstable = append(res.Unstable, f)
		}
		// The sink still holds the last warm kernel's moments.
		res.Stats[f] = FreqStats{
			FreqMHz:   f,
			Iter:      r.moments.MeanStd(),
			Normalish: plausiblyNormal(r.moments.MeanStd(), r.moments.Skewness(), r.moments.ExcessKurtosis(), r.quantumNs),
		}
	}

	for _, pair := range r.cfg.AllPairs() {
		if unstable[pair.InitMHz] || unstable[pair.TargetMHz] {
			res.Excluded = append(res.Excluded, pair)
			continue
		}
		a := res.Stats[pair.InitMHz].Iter
		b := res.Stats[pair.TargetMHz].Iter
		iv := stats.MeanDiffCI(a, b, r.cfg.Confidence)
		if iv.ContainsZero() || math.IsNaN(iv.Lo) {
			res.Excluded = append(res.Excluded, pair)
			continue
		}
		// The mean-difference interval alone degenerates at large n
		// (§V-A): it can admit pairs whose iteration *populations*
		// overlap, on which the phase-3 band detection would fire on
		// initial-clock iterations and report near-zero latencies. A
		// pair is measurable only when the means are separated beyond
		// the detection band plus a tail margin of the noisier
		// population, so initial-clock iterations essentially never
		// enter the target band.
		sep := math.Abs(a.Mean - b.Mean)
		guard := (r.cfg.SigmaK + 3) * math.Max(a.Std, b.Std)
		if sep <= guard {
			res.Excluded = append(res.Excluded, pair)
			continue
		}
		res.ValidPairs = append(res.ValidPairs, pair)
	}
	return res, nil
}

// Measurement is one accepted switching-latency observation.
type Measurement struct {
	Pair Pair
	// LatencyMs is t_e − t_s in milliseconds (device timebase).
	LatencyMs float64
	// TsDevNs and TeDevNs are the change-request and detection timestamps
	// on the device clock.
	TsDevNs, TeDevNs int64
	// SM is the block index that produced the maximal latency.
	SM int
	// TransitionIndex is the iteration index at which that block reached
	// the target band.
	TransitionIndex int
	// InjectedMs is the simulator's ground-truth switching latency for
	// this request. Real hardware cannot provide it; it exists to
	// validate the methodology (NaN when unavailable).
	InjectedMs float64
	// SyncSpreadNs echoes the PTP dispersion during this measurement.
	SyncSpreadNs int64
}

// measureErr classifies a failed measurement attempt.
type measureErr struct {
	reason string
}

func (e *measureErr) Error() string { return "core: measurement failed: " + e.reason }

// errNoDetection marks runs where no SM saw a target-band iteration —
// §V's "latency cannot be captured" case; the caller retries with a
// longer workload.
var errNoDetection = &measureErr{reason: "no iteration reached the target band (capture too short?)"}

// errConfirmFailed marks runs where detection fired but the confirmation
// population did not match the target clock (§IV's adaptation case).
var errConfirmFailed = &measureErr{reason: "confirmation mean did not match the target clock"}

// errInitUnstable marks runs where the device never stabilised at the
// initial clock during warm-up (§V's wake-up verification).
var errInitUnstable = &measureErr{reason: "device did not stabilise at the initial clock"}

// ensureInitialClock runs warm-up kernels until the trailing iterations
// match the initial clock's phase-1 characterisation, or gives up.
func (r *Runner) ensureInitialClock(initStat stats.MeanStd, cycles, iterInitNs float64) error {
	warmNs := 1.2*float64(r.effectiveCaptureNs()) + float64(50*time.Millisecond)
	warmIters := int(warmNs/iterInitNs) + 1
	const rounds = 5
	for attempt := 0; attempt < rounds; attempt++ {
		// Warm kernels stream into the reusable tail sink: the check below
		// only needs each block's tail-window mean, so the full trace
		// (warmIters × blocks IterSamples per round) is never allocated,
		// iterations before the tail are never delivered, and the tail
		// itself arrives folded wherever the clock holds still.
		r.tails.Reset()
		var sink gpu.SampleSink = r.tails
		if r.warmSink != nil {
			sink = r.warmSink
		}
		if err := r.ctx.LaunchKernelWithSink(gpu.KernelSpec{
			Iters: warmIters, CyclesPerIter: cycles, Blocks: r.cfg.Blocks,
		}, sink); err != nil {
			return err
		}
		r.ctx.DeviceSynchronize()

		// Compare the tail of each block against the init population.
		stable := true
		for b := 0; b < r.tails.NumBlocks(); b++ {
			if _, mean := r.tails.BlockTail(b); math.Abs(mean-initStat.Mean) >= r.cfg.RelTolerance*initStat.Mean {
				stable = false
				break
			}
		}
		if stable {
			return nil
		}
		// Not settled: the clock transition outlived this round; loop for
		// another warm kernel (subsequent rounds run at clocks closer to
		// the target, so coverage improves geometrically).
	}
	return errInitUnstable
}

// MeasureOnce performs one phase-2 run and phase-3 evaluation for the
// pair. p1 must contain statistics for both clocks of the pair at the
// pair's cycle budget — campaigns use pairStats to re-characterise.
func (r *Runner) MeasureOnce(pair Pair, initStat, targetStat stats.MeanStd) (Measurement, error) {
	cycles := r.cyclesFor(pair)
	iterInitNs := iterNsAt(cycles, pair.InitMHz)

	// (1) Timer synchronisation.
	sync, err := ptp.Sync(r.ctx.Clock(), r.dev.Sim(), r.cfg.PTP, r.rng)
	if err != nil {
		return Measurement{}, err
	}

	// (2) Initial clock + warm-up workload: covers the clock transition
	// to the initial frequency and any wake-up from idle. Per §V, the
	// warm-up is verified, not assumed: the last iterations of each warm
	// kernel must match the initial clock's characterisation before the
	// benchmark proceeds. (Sizing alone is unsafe — a warm-up budgeted in
	// init-clock iterations executes faster while the device still runs
	// at a higher previous clock, so a driver-outlier transition can
	// outlive it.)
	if err := r.dev.SetApplicationsClocks(0, pair.InitMHz); err != nil {
		return Measurement{}, err
	}
	if err := r.ensureInitialClock(initStat, cycles, iterInitNs); err != nil {
		return Measurement{}, err
	}

	// (3)–(5) Benchmark kernel, clock change and phase-3 evaluation.
	tsDev, injected, err := r.benchmarkKernel(pair, cycles, iterInitNs, targetStat, sync)
	if err != nil {
		return Measurement{}, err
	}
	m, err := r.detect.verdict()
	if err != nil {
		return Measurement{}, err
	}
	m.Pair = pair
	m.TsDevNs = tsDev
	m.InjectedMs = injected
	m.SyncSpreadNs = sync.SpreadNs
	return m, nil
}

// benchmarkKernel runs Algorithm 2's benchmark kernel for pair on a
// device at the initial clock and leaves every SM's phase-3 verdict in
// r.detect. It returns the change request's device-clock stamp and the
// simulator's injected latency in ms (NaN when unavailable).
func (r *Runner) benchmarkKernel(pair Pair, cycles, iterInitNs float64, targetStat stats.MeanStd, sync ptp.Result) (tsDev int64, injectedMs float64, err error) {
	// (3) Benchmark kernel: delay + capture + confirmation regions. It
	// streams into the detection sink, which evaluates each SM while the
	// kernel materialises at the synchronise below.
	captureIters := int(float64(r.effectiveCaptureNs())/r.cfg.IterTargetNs) + 1
	spec := gpu.KernelSpec{
		Iters:         r.cfg.DelayIters + captureIters + r.cfg.ConfirmIters,
		CyclesPerIter: cycles,
		Blocks:        r.cfg.Blocks,
	}
	var sink gpu.SampleSink = r.detect
	if r.benchSink != nil {
		sink = r.benchSink
	}
	if err := r.ctx.LaunchKernelWithSink(spec, sink); err != nil {
		return 0, 0, err
	}

	// (4) Sleep through the delay region, then issue the change and stamp
	// it (Algorithm 2 lines 5–7). The stamp converts to the device clock
	// by a pure offset, so the sink is armed before the kernel
	// materialises, and a band no timer value can enter spares the
	// kernel's iterations altogether.
	r.ctx.Usleep(int64(float64(r.cfg.DelayIters) * iterInitNs / 1000))
	tsDev = sync.HostToDevice(r.ctx.HostTimestamp())
	r.detect.arm(&r.cfg, tsDev, targetStat, r.quantumNs)
	if err := r.dev.SetApplicationsClocks(0, pair.TargetMHz); err != nil {
		return 0, 0, err
	}
	injectedMs = math.NaN()
	if inj, ok := r.dev.Sim().LastInjection(); ok && inj.TargetMHz == pair.TargetMHz {
		injectedMs = float64(inj.SwitchingLatencyNs()) / 1e6
	}

	// (5) Wait for the kernel; the sink has evaluated every SM.
	r.ctx.DeviceSynchronize()
	return tsDev, injectedMs, nil
}

// effectiveCaptureNs returns the current capture bound.
func (r *Runner) effectiveCaptureNs() int64 {
	if r.captureHintNs > 0 {
		return int64(float64(r.captureHintNs) * r.cfg.CaptureSafety)
	}
	return int64(time.Second) // conservative bootstrap
}

// Probe estimates the capture bound per §V: measure a few representative
// pairs (low, medium, high clocks) with a generous capture window and
// keep ten times the longest latency seen. The runner adopts the result.
// The probe runs as one measurement step.
func (r *Runner) Probe(p1 *Phase1Result) (int64, error) {
	return step(func() (int64, error) { return r.probe(p1) })
}

func (r *Runner) probe(p1 *Phase1Result) (int64, error) {
	freqs := append([]float64(nil), r.cfg.Frequencies...)
	sort.Float64s(freqs)
	lo, mid, hi := freqs[0], freqs[len(freqs)/2], freqs[len(freqs)-1]
	candidates := []Pair{{lo, hi}, {hi, lo}, {mid, lo}, {lo, mid}, {mid, hi}}

	saved := r.captureHintNs
	r.captureHintNs = 0 // bootstrap window
	defer func() {
		if r.captureHintNs == 0 {
			r.captureHintNs = saved
		}
	}()

	var probes []int64
	for _, pair := range candidates {
		if pair.InitMHz == pair.TargetMHz || !pairValid(p1, pair) {
			continue
		}
		is, ts, err := r.pairStats(pair, p1)
		if err != nil {
			return 0, err
		}
		m, err := r.MeasureOnce(pair, is, ts)
		if err != nil {
			continue // probe failures are tolerable; others will cover
		}
		probes = append(probes, int64(m.LatencyMs*1e6))
	}
	est := workload.EstimateCaptureNs(probes)
	if est == 0 {
		return 0, fmt.Errorf("core: probe captured no transitions; re-run with a larger MaxLatencyHintNs")
	}
	r.captureHintNs = est
	return est, nil
}

func pairValid(p1 *Phase1Result, pair Pair) bool {
	for _, v := range p1.ValidPairs {
		if v == pair {
			return true
		}
	}
	return false
}

// pairStats converts phase-1 reference statistics to the pair's cycle
// budget. Iteration durations scale linearly with the cycle budget, so
// the mean and standard deviation rescale by the same factor.
func (r *Runner) pairStats(pair Pair, p1 *Phase1Result) (initStat, targetStat stats.MeanStd, err error) {
	ratio := r.cyclesFor(pair) / r.refCycles()
	is, ok := p1.Stats[pair.InitMHz]
	if !ok {
		return initStat, targetStat, fmt.Errorf("core: no phase-1 stats for %v MHz", pair.InitMHz)
	}
	tsd, ok := p1.Stats[pair.TargetMHz]
	if !ok {
		return initStat, targetStat, fmt.Errorf("core: no phase-1 stats for %v MHz", pair.TargetMHz)
	}
	scale := func(m stats.MeanStd) stats.MeanStd {
		return stats.MeanStd{N: m.N, Mean: m.Mean * ratio, Std: m.Std * ratio}
	}
	return scale(is.Iter), scale(tsd.Iter), nil
}
