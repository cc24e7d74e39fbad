// Package workload sizes the artificial iterative microbenchmark of §V:
// how much arithmetic one iteration contains at a given clock, how long
// the capture region must be on an untested platform (ten times the
// longest latency a few probe pairs observe), and how a wake-up
// workload splits into equal kernels.
package workload

import "fmt"

// CyclesForIterDuration returns the per-iteration cycle budget that makes
// an iteration last about durNs at the given clock. The iteration is the
// measurement granule: the paper wants it "as tiny as possible" because
// it bounds the resolution of the switching-latency estimate, but it must
// remain long against the device timer quantum.
func CyclesForIterDuration(durNs float64, freqMHz float64) float64 {
	return durNs * freqMHz / 1000
}

// IterDurationNs inverts CyclesForIterDuration.
func IterDurationNs(cycles, freqMHz float64) float64 {
	return cycles * 1000 / freqMHz
}

// EstimateCaptureNs implements the §V bootstrap for an untested platform:
// given the latencies observed on a few probe pairs (small, medium, and
// high frequency levels), the capture budget is ten times the longest
// observed latency. If the probes saw nothing (all zero), the caller
// should retry with a ten-times longer workload; this function returns 0
// in that case so the caller can detect it.
func EstimateCaptureNs(probeLatenciesNs []int64) int64 {
	var max int64
	for _, l := range probeLatenciesNs {
		if l > max {
			max = l
		}
	}
	return 10 * max
}

// SplitKernels divides a total iteration count into n equal kernels
// (remainder in the last), the shape the wake-up estimation procedure
// uses: comparing the first kernel's iteration times with the last
// kernel's average reveals when the device stabilised.
func SplitKernels(total, n int) ([]int, error) {
	if total <= 0 || n <= 0 {
		return nil, fmt.Errorf("workload: invalid split %d into %d", total, n)
	}
	if n > total {
		n = total
	}
	out := make([]int, n)
	base := total / n
	for i := range out {
		out[i] = base
	}
	out[n-1] += total - base*n
	return out, nil
}
