package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"golatest/internal/cluster"
	"golatest/internal/sim/gpu"
	"golatest/internal/stats"
)

// PairResult is the completed campaign of one frequency pair.
type PairResult struct {
	Pair Pair

	// Measurements are the accepted observations in acquisition order
	// (post throttle-discard).
	Measurements []Measurement
	// Samples are the switching latencies in ms (parallel to
	// Measurements).
	Samples []float64
	// Injected are the simulator ground-truth latencies in ms (NaN-free
	// only in simulation; parallel to Samples).
	Injected []float64

	// Attempts counts phase-2 runs including failed ones; Failures counts
	// runs that produced no usable latency; DiscardedByThrottle counts
	// measurements dropped by thermal backoff.
	Attempts            int
	Failures            int
	DiscardedByThrottle int
	ThrottleEvents      int

	// Skipped marks pairs abandoned due to power throttling (§VI) with
	// the reason recorded.
	Skipped    bool
	SkipReason string

	// Kept and Outliers partition Samples by the adaptive DBSCAN filter;
	// Clusters is the underlying clustering.
	Kept     []float64
	Outliers []float64
	Clusters *cluster.Result

	// Summary describes Kept; FinalRSE is the stopping-rule value over
	// all samples.
	Summary  stats.Summary
	FinalRSE float64
}

// MeasurePair runs the full phase-2/3 campaign for one pair, as one
// measurement step, on the pair's replica of the runner's device (see
// replicaRunner), exactly as Run measures each of its pairs: repeated
// measurements under the RSE stopping rule with throttle handling and
// adaptive-capture retry, then outlier filtering. The runner's own
// device is not touched, so MeasurePair may be called concurrently and
// its result does not depend on which pairs were measured before.
func (r *Runner) MeasurePair(pair Pair, p1 *Phase1Result) (*PairResult, error) {
	return step(func() (*PairResult, error) { return r.replicaPair(pair, p1) })
}

// replicaPair measures pair on its own replica: the body of MeasurePair
// and of Run's pair steps.
func (r *Runner) replicaPair(pair Pair, p1 *Phase1Result) (*PairResult, error) {
	sub, err := r.replicaRunner(pair)
	if err != nil {
		return nil, err
	}
	return sub.measurePair(pair, p1)
}

// captureCapNs bounds the capture window that adaptive retry grows.
const captureCapNs = 2_000_000_000

// onPairCompute, when non-nil, is called with +1 as a pair's campaign
// starts and with -1 as it ends; tests count the pair computes in
// flight with it.
var onPairCompute func(delta int)

// measurePair runs the pair's campaign on r's own device, inside the
// caller's slot.
func (r *Runner) measurePair(pair Pair, p1 *Phase1Result) (*PairResult, error) {
	if onPairCompute != nil {
		onPairCompute(1)
		defer onPairCompute(-1)
	}
	if !pairValid(p1, pair) {
		return nil, fmt.Errorf("core: pair %v was excluded in phase 1", pair)
	}
	initStat, targetStat, err := r.pairStats(pair, p1)
	if err != nil {
		return nil, err
	}

	pr := &PairResult{
		Pair:         pair,
		Measurements: make([]Measurement, 0, r.cfg.MaxMeasurements),
		Samples:      make([]float64, 0, r.cfg.MaxMeasurements),
		Injected:     make([]float64, 0, r.cfg.MaxMeasurements),
	}
	consecutiveFailures := 0
	maxAttempts := 6 * r.cfg.MaxMeasurements

	for len(pr.Samples) < r.cfg.MaxMeasurements && pr.Attempts < maxAttempts {
		pr.Attempts++
		m, err := r.MeasureOnce(pair, initStat, targetStat)
		if err != nil {
			var me *measureErr
			if errors.As(err, &me) {
				pr.Failures++
				consecutiveFailures++
				// §V: if the latency cannot be captured, retry with a
				// longer workload (here: doubling the capture window,
				// bounded — pairs that keep failing are unmeasurable, not
				// under-captured). The window is the hint times
				// CaptureSafety.
				if consecutiveFailures >= 3 {
					if next := 2 * r.effectiveCaptureNs(); next <= captureCapNs {
						r.captureHintNs = int64(float64(next) / r.cfg.CaptureSafety)
					}
					consecutiveFailures = 0
				}
				continue
			}
			return nil, err
		}
		consecutiveFailures = 0
		pr.Measurements = append(pr.Measurements, m)
		pr.Samples = append(pr.Samples, m.LatencyMs)
		pr.Injected = append(pr.Injected, m.InjectedMs)
		n := len(pr.Samples)

		// Throttle-reason poll every few passes (§VI).
		if n%throttleCheckEvery == 0 {
			reasons := r.dev.ClocksThrottleReasons()
			if reasons.Has(gpu.ThrottlePower) {
				pr.Skipped = true
				pr.SkipReason = fmt.Sprintf(
					"power throttling: clocks of %v cannot be sustained", pair)
				break
			}
			if reasons.Has(gpu.ThrottleThermal) {
				// Drop the passes since the last poll; n is a positive
				// multiple of the cadence, so all of them exist.
				keep := n - throttleCheckEvery
				pr.Measurements = pr.Measurements[:keep]
				pr.Samples = pr.Samples[:keep]
				pr.Injected = pr.Injected[:keep]
				pr.DiscardedByThrottle += throttleCheckEvery
				pr.ThrottleEvents++
				r.ctx.Sleep(r.cfg.Cooldown)
				continue
			}
		}

		// RSE stopping rule every RSECheckEvery passes past the minimum.
		if n >= r.cfg.MinMeasurements && n%r.cfg.RSECheckEvery == 0 {
			if stats.RSE(pr.Samples) < r.cfg.RSETarget {
				break
			}
		}
	}

	if len(pr.Samples) > 0 {
		pr.FinalRSE = stats.RSE(pr.Samples)
		// Algorithm 3 presumes "several hundred" measurements; below a
		// couple of density thresholds DBSCAN degenerates (every point is
		// low-density), so small campaigns keep all samples.
		if len(pr.Samples) >= 5*r.cfg.Outlier.MinPtsFloor {
			pr.Kept, pr.Outliers, pr.Clusters = cluster.FilterOutliers(pr.Samples, r.cfg.Outlier)
		} else {
			pr.Kept = append([]float64(nil), pr.Samples...)
		}
		pr.Summary = stats.Summarize(pr.Kept)
	}
	return pr, nil
}

// Result is a whole-campaign output: one PairResult per valid pair.
type Result struct {
	DeviceName    string
	Architecture  string
	Phase1        *Phase1Result
	CaptureHintNs int64
	Pairs         []*PairResult
}

// PairByFreqs finds the result for init→target, if measured.
func (res *Result) PairByFreqs(init, target float64) (*PairResult, bool) {
	for _, pr := range res.Pairs {
		if pr.Pair.InitMHz == init && pr.Pair.TargetMHz == target {
			return pr, true
		}
	}
	return nil, false
}

// Run executes the complete campaign: phase 1, capture-bound probing when
// no hint was configured, then the pair sweep.
//
// Run holds no slot of the measurement-step pool itself: phase 1 and the
// probe are steps, and so is each valid pair. Every pair gets its own
// goroutine, which takes a slot before it builds the pair's replica of
// the characterised chip (see replicaRunner) and measures the pair on
// it, so pairs neither contend for the shared clock nor observe each
// other's thermal or frequency state. Results — sample values and
// their order within each pair, and the init-major pair order of
// Result.Pairs — are bit-for-bit identical at every pool size and
// GOMAXPROCS.
func (r *Runner) Run() (*Result, error) {
	p1, err := r.Phase1()
	if err != nil {
		return nil, err
	}
	if r.captureHintNs == 0 {
		if _, err := r.Probe(p1); err != nil {
			return nil, err
		}
	}
	res := &Result{
		DeviceName:    r.dev.Name(),
		Architecture:  r.dev.Architecture(),
		Phase1:        p1,
		CaptureHintNs: r.captureHintNs,
	}
	if len(p1.ValidPairs) == 0 {
		return res, nil
	}
	res.Pairs, err = steps(p1.ValidPairs, func(pair Pair) (*PairResult, error) {
		return r.replicaPair(pair, p1)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// pool gates measurement compute process-wide. Phase1, Probe and every
// pair step (MeasurePair, and each pair of Run) hold one slot while they
// compute, so every campaign in a process shares GOMAXPROCS workers, no
// matter how many campaigns or artefacts run at once. A step never
// takes a second slot: with every slot held by a step waiting for
// another, the process would deadlock.
var pool = make(chan struct{}, runtime.GOMAXPROCS(0))

// step runs fn while holding one slot of the pool.
func step[T any](fn func() (T, error)) (T, error) {
	pool <- struct{}{}
	defer func() { <-pool }()
	return fn()
}

// steps runs fn on every element of xs as a step of its own, one
// goroutine each, and returns the results by index, or the
// lowest-indexed error. Elements start in index order as slots free up,
// and once one has failed no further element starts, so the error
// returned is the same in every schedule.
func steps[X, T any](xs []X, fn func(X) (T, error)) ([]T, error) {
	out := make([]T, len(xs))
	errs := make([]error, len(xs))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(len(xs))
	for range xs {
		go func() {
			defer wg.Done()
			pool <- struct{}{}
			defer func() { <-pool }()
			if failed.Load() {
				return
			}
			i := int(next.Add(1)) - 1
			if out[i], errs[i] = fn(xs[i]); errs[i] != nil {
				failed.Store(true)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
