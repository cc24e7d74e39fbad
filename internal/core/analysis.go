package core

import (
	"math"

	"golatest/internal/sim/gpu"
	"golatest/internal/stats"
)

// blockVerdict is one SM's phase-3 outcome.
type blockVerdict struct {
	detected  bool
	confirmed bool
	teDevNs   int64
	latencyMs float64
	iterIndex int
}

// detectSink is the phase-3 evaluator (Algorithm 2 lines 9–24) as a
// streaming gpu.SampleSink: it runs each SM's detection and confirmation
// online while the benchmark kernel materialises, so the kernel's trace
// is never stored.
//
// Per block it skips iterations that start before the change timestamp,
// detects the first iteration whose duration falls inside the SigmaK·σ
// band of the target population, and folds every duration from the
// detected iteration on into one accumulator — the confirmation
// population, in execution order. BlockEnd then confirms that this tail's
// mean matches the target mean (difference interval containing zero, or
// relative difference under tolerance).
//
// A detectSink is reusable: arm resets it for the next benchmark kernel.
// Like the runner's other sinks, it has a single writer — the host thread
// that synchronises the device.
type detectSink struct {
	cfg     *Config
	tsDevNs int64
	target  stats.MeanStd
	band    float64

	blocks []blockVerdict
	tail   stats.Accumulator // confirmation population of the current block
}

// arm prepares the sink for one benchmark kernel whose clock change was
// stamped at tsDevNs on the device clock.
func (s *detectSink) arm(cfg *Config, tsDevNs int64, target stats.MeanStd) {
	s.cfg = cfg
	s.tsDevNs = tsDevNs
	s.target = target
	s.band = s.cfg.SigmaK * target.Std
	if s.cfg.CIDetection {
		// FTaLaT-style detection: the confidence interval of the mean.
		// With phase-1 populations of thousands of iterations this band
		// collapses far below the iteration noise (§V-A).
		s.band = s.cfg.SigmaK * target.StdErr()
	}
	s.blocks = s.blocks[:0]
}

// BlockStart implements gpu.SampleSink. Whether an iteration starts
// before the change is only known from its device timestamp, so the sink
// wants every iteration.
func (s *detectSink) BlockStart(block, iters int) int {
	s.blocks = append(s.blocks, blockVerdict{})
	s.tail = stats.Accumulator{}
	return 0
}

// Sample implements gpu.SampleSink.
func (s *detectSink) Sample(block, iter int, it gpu.IterSample) {
	v := &s.blocks[block]
	durMs := float64(it.DurNs()) / 1e6
	if !v.detected {
		if it.StartNs < s.tsDevNs || math.Abs(durMs-s.target.Mean) > s.band {
			return
		}
		v.detected = true
		v.teDevNs = it.EndNs
		v.iterIndex = iter
	}
	s.tail.Add(durMs)
}

// BlockEnd implements gpu.SampleSink: it confirms the block's detection.
func (s *detectSink) BlockEnd(block int) {
	v := &s.blocks[block]
	if !v.detected {
		return
	}
	tail := s.tail.MeanStd()
	if tail.N < 2 {
		return
	}
	iv := stats.MeanDiffCI(tail, s.target, s.cfg.Confidence)
	relDiff := math.Abs(tail.Mean-s.target.Mean) / s.target.Mean
	if !iv.ContainsZero() && relDiff >= s.cfg.RelTolerance {
		// The device was still adapting: discard this run (§IV).
		return
	}
	v.confirmed = true
	v.latencyMs = float64(v.teDevNs-s.tsDevNs) / 1e6
}

// verdict reduces the blocks to the pair's switching latency: the maximum
// accepted t_e − t_s across SMs.
func (s *detectSink) verdict() (Measurement, error) {
	best := Measurement{LatencyMs: math.Inf(-1)}
	anyDetected := false
	accepted := false
	for sm, v := range s.blocks {
		if v.detected {
			anyDetected = true
		}
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
			return Measurement{}, errConfirmFailed
		}
		return Measurement{}, errNoDetection
	}
	return best, nil
}
