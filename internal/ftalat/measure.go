package ftalat

import (
	"errors"
	"math"

	"golatest/internal/sim/cpu"
	"golatest/internal/stats"
)

// errDetectFailed marks a run where no iteration entered the detection
// interval within the capture budget.
var errDetectFailed = errors.New("ftalat: no iteration entered the detection interval")

// errConfirmFailed marks a run where the hundred confirmation iterations
// did not match the target frequency — the core was still adapting (§IV).
var errConfirmFailed = errors.New("ftalat: confirmation mean did not match the target frequency")

// describeUs summarises iteration durations in microseconds.
func describeUs(samples []cpu.IterSample) stats.MeanStd {
	var acc stats.Accumulator
	for _, s := range samples {
		acc.Add(float64(s.DurNs()) / 1e3)
	}
	return acc.MeanStd()
}

// MeasureOnce performs a single FTaLaT phase-2 run for the pair.
func (r *Runner) MeasureOnce(pair Pair, target stats.MeanStd) (Measurement, error) {
	cycles := r.cycles()

	// Initial frequency, settled and warm.
	inj, err := r.core.SetFrequency(pair.InitMHz)
	if err != nil {
		return Measurement{}, err
	}
	r.settlePast(inj)
	if _, err := r.core.RunIterations(delayIters, cycles); err != nil {
		return Measurement{}, err
	}

	// Issue the change and scan iterations for the first one inside the
	// FTaLaT detection interval: target mean ± detectK standard errors.
	ts := r.core.Clock().Now()
	tinj, err := r.core.SetFrequency(pair.TargetMHz)
	if err != nil {
		return Measurement{}, err
	}
	band := target.StdErr() * detectK
	var te int64
	detect := -1
	for i := 0; i < maxCaptureIters; i++ {
		it, err := r.core.RunIterations(1, cycles)
		if err != nil {
			return Measurement{}, err
		}
		durUs := float64(it[0].DurNs()) / 1e3
		if math.Abs(durUs-target.Mean) <= band {
			te = it[0].EndNs
			detect = i
			break
		}
	}
	if detect < 0 {
		return Measurement{}, errDetectFailed
	}

	// Confirmation: one hundred additional iterations whose mean must be
	// statistically indistinguishable from the phase-1 target mean.
	confirm, err := r.core.RunIterations(confirmIters, cycles)
	if err != nil {
		return Measurement{}, err
	}
	tail := describeUs(confirm)
	if iv := stats.MeanDiffCI(tail, target, confidence); !iv.ContainsZero() {
		return Measurement{}, errConfirmFailed
	}

	return Measurement{
		Pair:        pair,
		LatencyUs:   float64(te-ts) / 1e3,
		DetectIters: detect,
		InjectedUs:  float64(tinj.TransitionLatencyNs()) / 1e3,
	}, nil
}

// MeasurePair repeats MeasureOnce Repeats times, tolerating discards.
func (r *Runner) MeasurePair(pair Pair, p1 *Phase1Result) (*PairResult, error) {
	target, ok := p1.Stats[pair.TargetMHz]
	if !ok {
		return nil, errors.New("ftalat: pair not characterised in phase 1")
	}
	pr := &PairResult{Pair: pair}
	maxAttempts := 4 * r.cfg.Repeats
	for attempts := 0; len(pr.Samples) < r.cfg.Repeats && attempts < maxAttempts; attempts++ {
		m, err := r.MeasureOnce(pair, target)
		if err != nil {
			if errors.Is(err, errDetectFailed) || errors.Is(err, errConfirmFailed) {
				pr.Failures++
				continue
			}
			return nil, err
		}
		pr.Samples = append(pr.Samples, m.LatencyUs)
		pr.Injected = append(pr.Injected, m.InjectedUs)
	}
	pr.Summary = stats.Summarize(pr.Samples)
	return pr, nil
}

// Run executes the full FTaLaT campaign over all valid pairs.
func (r *Runner) Run() (*Result, error) {
	p1, err := r.Phase1()
	if err != nil {
		return nil, err
	}
	res := &Result{CoreName: r.core.Config().Name, Phase1: p1}
	for _, pair := range p1.ValidPairs {
		pr, err := r.MeasurePair(pair, p1)
		if err != nil {
			return nil, err
		}
		res.Pairs = append(res.Pairs, pr)
	}
	return res, nil
}
