package gpu

import (
	"sync"

	"golatest/internal/stats"
)

// SampleSink consumes iteration timings while a kernel materialises,
// instead of the kernel storing the full [][]IterSample trace. Blocks are
// streamed sequentially in index order, iterations in execution order, so
// sink state needs no synchronisation. A kernel launched with a sink does
// not materialise Samples(); callers that need the raw trace (the phase-3
// evaluator) launch without one.
//
// A sink says what it consumes: BlockStart returns the first iteration
// it wants, and the device delivers only iterations from there on. The
// skipped iterations are still simulated — their execution noise is
// drawn and their time elapses — so the block's timing and the device's
// random stream are exactly those of a fully delivered kernel; only the
// device-timestamp conversion and delivery are skipped.
type SampleSink interface {
	// BlockStart announces that block will execute iters iterations and
	// returns the first iteration the sink wants delivered, in [0, iters].
	BlockStart(block, iters int) (from int)
	// Sample delivers iteration iter of block, in order, for every iter
	// from BlockStart's result to iters−1.
	Sample(block, iter int, s IterSample)
	// BlockEnd marks block complete.
	BlockEnd(block int)
}

// durMs converts an iteration's device-clock duration to milliseconds,
// the statistics layer's unit.
func durMs(s IterSample) float64 { return float64(s.DurNs()) / 1e6 }

// MomentSink is the phase-1 sink: every iteration of every block folds
// into one moment accumulator, giving the whole kernel's iteration
// duration mean, standard deviation, skewness and kurtosis (in ms).
//
// A MomentSink is reusable: Reset clears it for the next kernel.
type MomentSink struct {
	total stats.MomentAccumulator
}

// Reset clears the accumulator for reuse on the next kernel.
func (s *MomentSink) Reset() { s.total.Reset() }

// BlockStart implements SampleSink: the moments need every iteration.
func (s *MomentSink) BlockStart(block, iters int) int { return 0 }

// Sample implements SampleSink.
func (s *MomentSink) Sample(block, iter int, smp IterSample) { s.total.Add(durMs(smp)) }

// BlockEnd implements SampleSink.
func (s *MomentSink) BlockEnd(block int) {}

// N reports the total number of iterations folded in so far.
func (s *MomentSink) N() int { return s.total.N() }

// MeanStd returns the kernel's iteration-duration statistics in ms.
func (s *MomentSink) MeanStd() stats.MeanStd { return s.total.MeanStd() }

// Skewness returns the kernel's sample skewness (g1).
func (s *MomentSink) Skewness() float64 { return s.total.Skewness() }

// ExcessKurtosis returns the kernel's sample excess kurtosis (g2).
func (s *MomentSink) ExcessKurtosis() float64 { return s.total.ExcessKurtosis() }

// TailSink is the warm-up verification sink: one accumulator per block
// over that block's trailing iterations (in ms), and nothing else. The
// tail window of a block with n iterations covers its last
// min(tailCap, n − n/2) iterations — the "last 100, at most the trailing
// half" rule of the warm-up check — so the device delivers only those.
//
// A TailSink is reusable: Reset clears it for the next kernel while
// keeping the per-block slice allocation.
type TailSink struct {
	tailCap int
	blocks  []stats.Accumulator
}

// NewTailSink returns a sink whose per-block tail windows hold at most
// tailCap iterations (0 defaults to 100, the methodology's warm-up
// window).
func NewTailSink(tailCap int) *TailSink {
	if tailCap <= 0 {
		tailCap = 100
	}
	return &TailSink{tailCap: tailCap}
}

// Reset clears all accumulators for reuse on the next kernel.
func (s *TailSink) Reset() { s.blocks = s.blocks[:0] }

// BlockStart implements SampleSink: it wants the block's tail window.
func (s *TailSink) BlockStart(block, iters int) int {
	for len(s.blocks) <= block {
		s.blocks = append(s.blocks, stats.Accumulator{})
	}
	s.blocks[block] = stats.Accumulator{}
	return max(iters-s.tailCap, iters/2)
}

// Sample implements SampleSink.
func (s *TailSink) Sample(block, iter int, smp IterSample) { s.blocks[block].Add(durMs(smp)) }

// BlockEnd implements SampleSink.
func (s *TailSink) BlockEnd(block int) {}

// NumBlocks reports how many blocks streamed into the sink.
func (s *TailSink) NumBlocks() int { return len(s.blocks) }

// BlockTail returns the tail-window statistics of one block.
func (s *TailSink) BlockTail(block int) stats.MeanStd { return s.blocks[block].MeanStd() }

// durationsPool recycles the flattened duration buffers DurationsMs
// returns, bounding steady-state allocation in callers that repeatedly
// flatten kernels of similar size.
var durationsPool = sync.Pool{
	New: func() any { s := make([]float64, 0, 1024); return &s },
}

// GetDurationsBuf leases a zero-length duration buffer from the pool.
func GetDurationsBuf() []float64 { return (*(durationsPool.Get().(*[]float64)))[:0] }

// PutDurationsBuf returns a buffer obtained from GetDurationsBuf (or an
// AppendDurationsMs result built on one) to the pool.
func PutDurationsBuf(buf []float64) {
	buf = buf[:0]
	durationsPool.Put(&buf)
}
