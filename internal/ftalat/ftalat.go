// Package ftalat implements the FTaLaT CPU frequency-transition-latency
// methodology (§IV) against the simulated DVFS core: the baseline the
// paper's accelerator methodology descends from and contrasts with.
//
// Differences from the accelerator methodology, faithfully kept:
//
//   - Detection uses the confidence interval of the mean
//     (mean ± 2·stderr), not the two-standard-deviation population band;
//     §V-A explains why this degenerates on many-core accelerators but
//     works on a single CPU core.
//   - No timer synchronisation: the workload and the change request share
//     the CPU's own clock.
//   - Confirmation runs exactly one hundred extra iterations.
package ftalat

import (
	"fmt"
	"math"

	"golatest/internal/sim/cpu"
	"golatest/internal/stats"
	"golatest/internal/workload"
)

// Pair is an ordered CPU frequency pair.
type Pair struct {
	InitMHz   float64
	TargetMHz float64
}

// String renders the pair like the paper writes transitions.
func (p Pair) String() string { return fmt.Sprintf("%.0f→%.0f MHz", p.InitMHz, p.TargetMHz) }

// FTaLaT's fixed parameters. No run tunes them, so they are constants
// rather than Config fields.
const (
	// iterTargetNs sizes the workload iteration at the slowest frequency:
	// 10 µs, much finer-grained than the GPU's, matching the CPU's
	// µs-scale transitions.
	iterTargetNs = 10_000
	// warmIters run at each frequency before phase 1 measures it.
	warmIters = 200
	// confidence drives every interval test.
	confidence = 0.95
	// delayIters run at the initial frequency before the change.
	delayIters = 100
	// maxCaptureIters bounds the detection scan.
	maxCaptureIters = 100_000
	// confirmIters is FTaLaT's confirmation population.
	confirmIters = 100
	// detectK is the half-width of the detection interval in standard
	// errors (FTaLaT uses 2).
	detectK = 2
)

// Config tunes the FTaLaT run.
type Config struct {
	// Frequencies are the P-states under test (≥ 2).
	Frequencies []float64
	// MeasureIters is phase 1's population per frequency (default 100).
	// Keeping it modest keeps the CI detection interval wider than the
	// timer quantisation; the §V-A degeneration study sweeps it upward
	// to show what goes wrong.
	MeasureIters int
	// Repeats is the number of measurements per pair (default 30).
	Repeats int
}

func (c Config) withDefaults() (Config, error) {
	if len(c.Frequencies) < 2 {
		return c, fmt.Errorf("ftalat: need at least two frequencies")
	}
	if c.MeasureIters < 0 || c.Repeats < 0 {
		return c, fmt.Errorf("ftalat: negative count (measure iters %d, repeats %d)",
			c.MeasureIters, c.Repeats)
	}
	if c.MeasureIters == 0 {
		c.MeasureIters = 100
	}
	if c.Repeats == 0 {
		c.Repeats = 30
	}
	return c, nil
}

// Runner drives FTaLaT on one simulated core.
type Runner struct {
	core *cpu.Core
	cfg  Config
}

// NewRunner validates the configuration against the core's P-states.
func NewRunner(core *cpu.Core, cfg Config) (*Runner, error) {
	if core == nil {
		return nil, fmt.Errorf("ftalat: nil core")
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	supported := map[float64]bool{}
	for _, f := range core.Config().FreqsMHz {
		supported[f] = true
	}
	for _, f := range cfg.Frequencies {
		if !supported[f] {
			return nil, fmt.Errorf("ftalat: frequency %v MHz not supported by %s",
				f, core.Config().Name)
		}
	}
	return &Runner{core: core, cfg: cfg}, nil
}

func (r *Runner) cycles() float64 {
	slow := r.cfg.Frequencies[0]
	for _, f := range r.cfg.Frequencies[1:] {
		if f < slow {
			slow = f
		}
	}
	return workload.CyclesForIterDuration(iterTargetNs, slow)
}

// Phase1Result mirrors the first FTaLaT phase: per-frequency iteration
// statistics (in microseconds — CPU scale) and the distinguishable pairs.
type Phase1Result struct {
	Stats      map[float64]stats.MeanStd
	ValidPairs []Pair
	Excluded   []Pair
}

// Phase1 characterises every frequency and tests all pairs.
func (r *Runner) Phase1() (*Phase1Result, error) {
	cycles := r.cycles()
	res := &Phase1Result{Stats: make(map[float64]stats.MeanStd)}
	for _, f := range r.cfg.Frequencies {
		inj, err := r.core.SetFrequency(f)
		if err != nil {
			return nil, err
		}
		// Settle past the transition, then warm.
		r.settlePast(inj)
		if _, err := r.core.RunIterations(warmIters, cycles); err != nil {
			return nil, err
		}
		samples, err := r.core.RunIterations(r.cfg.MeasureIters, cycles)
		if err != nil {
			return nil, err
		}
		res.Stats[f] = describeUs(samples)
	}
	for _, init := range r.cfg.Frequencies {
		for _, target := range r.cfg.Frequencies {
			if init == target {
				continue
			}
			iv := stats.MeanDiffCI(res.Stats[init], res.Stats[target], confidence)
			pair := Pair{init, target}
			if iv.ContainsZero() || math.IsNaN(iv.Lo) {
				res.Excluded = append(res.Excluded, pair)
			} else {
				res.ValidPairs = append(res.ValidPairs, pair)
			}
		}
	}
	return res, nil
}

func (r *Runner) settlePast(inj cpu.Injection) {
	clk := r.core.Clock()
	if inj.CompleteNs > clk.Now() {
		clk.AdvanceTo(inj.CompleteNs)
	}
	clk.Advance(10_000) // small guard band past the transition
}

// Measurement is one accepted transition-latency observation.
type Measurement struct {
	Pair Pair
	// LatencyUs is t_e − t_s in microseconds.
	LatencyUs float64
	// DetectIters counts iterations scanned before detection, the §V-A
	// degeneration metric.
	DetectIters int
	// InjectedUs is the simulator ground truth.
	InjectedUs float64
}

// PairResult is a pair's campaign.
type PairResult struct {
	Pair     Pair
	Samples  []float64 // µs
	Injected []float64 // µs
	Failures int
	Summary  stats.Summary
}

// Result is a full FTaLaT run.
type Result struct {
	CoreName string
	Phase1   *Phase1Result
	Pairs    []*PairResult
}
