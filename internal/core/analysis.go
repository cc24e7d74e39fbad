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
// detects the first iteration whose duration falls inside the detection
// band of the target population, and sums every duration from the
// detected iteration on — the confirmation population. BlockEnd then
// confirms that this tail's mean matches the target mean: a tail of at
// least two iterations whose mean lies within relTolerance of the
// target's (Algorithm 2's "meanDiff < tol").
//
// Every duration is an integer count of device nanoseconds, so the tail
// is kept as its exact count and integer duration sum, turned into a
// millisecond mean once per block.
//
// Those sums are all the tail is read for, and before it only the band
// matters, so the sink is a gpu.TailFolder. Until a block detects, Band
// gives the device the band, from which it works out which clock
// segments' iterations cannot enter it — such as the initial clock's,
// which phase 1's pair guard keeps well clear of it — and those elapse
// undelivered; in a segment whose iterations reach it only through one
// jitter tail, the device delivers only the iterations whose jitter
// could. Once a block has detected, its band holds every duration,
// InTail says the rest of it is tail, and the device hands it over in
// chunks of n and Σd (Fold) wherever the clock holds still. Detection,
// t_e and the iteration index are exact in distribution, up to an
// iteration straying past the device's trusted jitter bound; the tail's
// n and Σd are exact, so the confirmation verdict and the block's end
// time are exact in distribution, not in bits.
//
// When no value on the device timer's lattice (multiples of its
// quantum) can fall inside the band, no block can detect, and the sink
// declines the whole kernel: its iterations elapse undelivered and the
// verdict is errNoDetection, as a full scan would find.
//
// A detectSink is reusable: arm resets it for the next benchmark kernel.
// Like the runner's other sinks, it has a single writer — the host thread
// that synchronises the device.
type detectSink struct {
	cfg       *Config
	tsDevNs   int64
	target    stats.MeanStd
	band      float64
	reachable bool // some timer value lies inside the band

	blocks []blockVerdict
	// The current block's confirmation population: n durations summing
	// to sumNs.
	n, sumNs int64
	// delivered counts the iterations the sink has been handed, one by
	// one or folded, since it was made, so tests can tell a declined
	// kernel from a scanned one.
	delivered int
}

// A detectSink that stopped implementing gpu.TailFolder would still
// stream, one iteration at a time, so the compiler checks it.
var _ gpu.TailFolder = (*detectSink)(nil)

// arm prepares the sink for one benchmark kernel whose clock change was
// stamped at tsDevNs on the device clock, on a device whose timer
// advances in steps of quantumNs.
func (s *detectSink) arm(cfg *Config, tsDevNs int64, target stats.MeanStd, quantumNs int64) {
	s.cfg = cfg
	s.tsDevNs = tsDevNs
	s.target = target
	s.band = s.cfg.SigmaK * target.Std
	if s.cfg.CIDetection {
		// FTaLaT-style detection: the confidence interval of the mean.
		// With phase-1 populations of thousands of iterations this band
		// collapses far below the iteration noise (§V-A), and below the
		// timer quantum it holds no duration at all.
		s.band = s.cfg.SigmaK * target.StdErr()
	}
	s.reachable = bandReachable(target.Mean, s.band, quantumNs)
	s.blocks = s.blocks[:0]
}

// bandReachable reports whether some duration k·quantumNs ns passes
// Sample's band test, |d/1e6 − mean| ≤ band, evaluated as Sample
// evaluates it. A band narrower than one quantum holds at most the
// lattice points next to the mean, so only floor(mean/q)−1 … +2 are
// tried (the margin absorbs the rounding of mean/q); a wider band, or a
// NaN one, which rejects nothing, is reachable.
func bandReachable(mean, band float64, quantumNs int64) bool {
	if !(band < float64(quantumNs)/1e6) {
		return true
	}
	k0 := int64(math.Floor(mean * 1e6 / float64(quantumNs)))
	for k := k0 - 1; k <= k0+2; k++ {
		if !(math.Abs(float64(k*quantumNs)/1e6-mean) > band) {
			return true
		}
	}
	return false
}

// BlockStart implements gpu.SampleSink. Whether an iteration starts
// before the change is only known from its device timestamp, so the sink
// wants every iteration from the first on — unless no iteration can
// enter the band, in which case it wants none. Until the block detects,
// Band spares it the iterations that cannot enter the band either.
func (s *detectSink) BlockStart(block, iters int) int {
	s.blocks = append(s.blocks, blockVerdict{})
	s.n, s.sumNs = 0, 0
	if !s.reachable {
		return iters
	}
	return 0
}

// Band implements gpu.TailFolder: an undetected block reacts only to
// durations inside the band (a NaN band rejects nothing), a detected one
// to every duration.
func (s *detectSink) Band(block int) (loNs, hiNs float64) {
	if s.blocks[block].detected {
		return math.Inf(-1), math.Inf(1)
	}
	return (s.target.Mean - s.band) * 1e6, (s.target.Mean + s.band) * 1e6
}

// Sample implements gpu.SampleSink.
func (s *detectSink) Sample(block, iter int, it gpu.IterSample) {
	s.delivered++
	v := &s.blocks[block]
	d := it.DurNs()
	if !v.detected {
		if it.StartNs < s.tsDevNs || math.Abs(float64(d)/1e6-s.target.Mean) > s.band {
			return
		}
		v.detected = true
		v.teDevNs = it.EndNs
		v.iterIndex = iter
	}
	s.n++
	s.sumNs += d
}

// InTail implements gpu.TailFolder: from a block's detection on, the
// rest of the block is confirmation tail.
func (s *detectSink) InTail(block int) bool { return s.blocks[block].detected }

// Fold implements gpu.TailFolder: it adds n tail durations summing to
// sumNs to the block's confirmation population.
func (s *detectSink) Fold(block, n int, sumNs int64) {
	s.delivered += n
	s.n += int64(n)
	s.sumNs += sumNs
}

// BlockEnd implements gpu.SampleSink: it confirms the block's detection.
func (s *detectSink) BlockEnd(block int) {
	v := &s.blocks[block]
	if !v.detected || s.n < 2 {
		return
	}
	mean := float64(s.sumNs) / float64(s.n) / 1e6
	if math.Abs(mean-s.target.Mean)/s.target.Mean >= relTolerance {
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
