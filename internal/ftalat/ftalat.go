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

// Config tunes the FTaLaT run.
type Config struct {
	// Frequencies are the P-states under test (≥ 2).
	Frequencies []float64
	// IterTargetNs sizes the workload iteration at the slowest frequency
	// (default 10 µs — the CPU workload is much finer-grained than the
	// GPU's, matching its µs-scale transitions).
	IterTargetNs float64
	// WarmIters and MeasureIters shape phase 1 (defaults 200 and 100).
	// Keeping the phase-1 population modest keeps the CI detection
	// interval wider than the timer quantisation; the §V-A degeneration
	// study sweeps MeasureIters upward to show what goes wrong.
	WarmIters    int
	MeasureIters int
	// Confidence for interval tests (default 0.95).
	Confidence float64
	// DelayIters run at the initial frequency before the change
	// (default 100).
	DelayIters int
	// MaxCaptureIters bounds the detection scan (default 100000).
	MaxCaptureIters int
	// ConfirmIters is FTaLaT's confirmation population (default 100).
	ConfirmIters int
	// Repeats is the number of measurements per pair (default 30).
	Repeats int
	// DetectK is the half-width of the detection interval in standard
	// errors (FTaLaT uses 2). Exposed for the §V-A degeneration study.
	DetectK float64
}

func (c Config) withDefaults() (Config, error) {
	if len(c.Frequencies) < 2 {
		return c, fmt.Errorf("ftalat: need at least two frequencies")
	}
	if c.IterTargetNs == 0 {
		c.IterTargetNs = 10_000
	}
	if c.WarmIters == 0 {
		c.WarmIters = 200
	}
	if c.MeasureIters == 0 {
		c.MeasureIters = 100
	}
	if c.Confidence == 0 {
		c.Confidence = 0.95
	}
	if c.DelayIters == 0 {
		c.DelayIters = 100
	}
	if c.MaxCaptureIters == 0 {
		c.MaxCaptureIters = 100_000
	}
	if c.ConfirmIters == 0 {
		c.ConfirmIters = 100
	}
	if c.Repeats == 0 {
		c.Repeats = 30
	}
	if c.DetectK == 0 {
		c.DetectK = 2
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
	return workload.CyclesForIterDuration(r.cfg.IterTargetNs, slow)
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
		if _, err := r.core.RunIterations(r.cfg.WarmIters, cycles); err != nil {
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
			iv := stats.MeanDiffCI(res.Stats[init], res.Stats[target], r.cfg.Confidence)
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
