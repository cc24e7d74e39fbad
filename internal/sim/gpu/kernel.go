package gpu

import "fmt"

// KernelSpec describes the microbenchmark kernel of the methodology: one
// block resident per SM, each looping over iterations of a fixed
// arithmetic cycle budget, with a device timestamp read at the first and
// last instruction of every iteration.
type KernelSpec struct {
	// Iters is the number of timed iterations each block executes.
	Iters int
	// CyclesPerIter is the arithmetic work per iteration in SM cycles.
	// At clock f MHz an iteration nominally lasts CyclesPerIter/f µs.
	CyclesPerIter float64
	// Blocks is the number of SM-resident blocks to simulate and record.
	// Zero means one block per SM (the methodology's full-load shape).
	// Smaller values keep huge campaigns cheap. Per-SM populations are
	// statistically identical, but a statistic over SMs (such as core's
	// maximum-over-SMs verdict) can depend on how many there are.
	Blocks int
}

func (s KernelSpec) validate(cfg *Config) error {
	if s.Iters <= 0 {
		return fmt.Errorf("gpu: kernel Iters must be positive, got %d", s.Iters)
	}
	if s.CyclesPerIter <= 0 {
		return fmt.Errorf("gpu: kernel CyclesPerIter must be positive, got %v", s.CyclesPerIter)
	}
	if s.Blocks < 0 || s.Blocks > cfg.SMCount {
		return fmt.Errorf("gpu: kernel Blocks %d out of range [0, %d]", s.Blocks, cfg.SMCount)
	}
	return nil
}

// IterSample is one timed iteration: device-clock timestamps of its first
// and last instruction, already quantised to the timer refresh period.
type IterSample struct {
	StartNs int64
	EndNs   int64
}

// DurNs returns the measured iteration duration in device-clock
// nanoseconds.
func (s IterSample) DurNs() int64 { return s.EndNs - s.StartNs }

// Kernel is the handle of a kernel launched to materialise its trace
// (Launch), possibly still pending. It is the SampleSink that records the
// trace: it wants every iteration of every block.
type Kernel struct {
	done    bool
	startNs int64
	endNs   int64
	samples [][]IterSample
}

// launch is a queued kernel: what materialising it needs.
type launch struct {
	spec       KernelSpec
	enqueuedNs int64
	sink       SampleSink // a *Kernel for Launch
	folder     TailFolder // sink, when it folds tails
}

// BlockStart implements SampleSink: it allocates the block's trace, as
// blocks arrive in index order, and wants all of it.
func (k *Kernel) BlockStart(block, iters int) int {
	k.samples = append(k.samples, make([]IterSample, iters))
	return 0
}

// Sample implements SampleSink.
func (k *Kernel) Sample(block, iter int, s IterSample) { k.samples[block][iter] = s }

// BlockEnd implements SampleSink.
func (k *Kernel) BlockEnd(block int) {}

// Done reports whether the kernel has been materialised by a Synchronize.
func (k *Kernel) Done() bool { return k.done }

// StartNs returns the host time execution began. Valid only after Done.
func (k *Kernel) StartNs() int64 { return k.startNs }

// EndNs returns the host time the last block finished. Valid only after
// Done.
func (k *Kernel) EndNs() int64 { return k.endNs }

// Samples returns the per-block iteration timings ([block][iteration]).
// Valid only after Done; the caller must not modify the slices.
// Materialising a trace costs 16 bytes per iteration and block; a
// consumer that folds iterations as they come should stream them into a
// sink instead (LaunchWithSink).
func (k *Kernel) Samples() [][]IterSample {
	if !k.done {
		panic("gpu: Samples read before Synchronize")
	}
	return k.samples
}

// DurationsMs flattens all blocks' iteration durations into a freshly
// allocated slice, in milliseconds, the unit the statistics layer works
// in. Valid only after Done.
func (k *Kernel) DurationsMs() []float64 {
	samples := k.Samples()
	var n int
	for _, block := range samples {
		n += len(block)
	}
	out := make([]float64, 0, n)
	for _, block := range samples {
		for _, it := range block {
			out = append(out, durMs(it))
		}
	}
	return out
}
