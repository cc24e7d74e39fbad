package gpu

import (
	"math"

	"golatest/internal/stats"
)

// SampleSink consumes iteration timings while a kernel materialises.
// Blocks are streamed sequentially in index order, iterations in
// execution order, so sink state needs no synchronisation. Every kernel
// streams into a sink. Launch's handle, the *Kernel, is the sink that
// stores the whole [][]IterSample trace, for callers that need several
// kernels' raw traces side by side (the wake-up estimator); a kernel
// launched with any other sink (LaunchWithSink) has no handle and no
// trace. The phase-1, warm-up and phase-3 kernels stream into sinks that
// keep only what they read.
//
// A sink says what it consumes. BlockStart returns the first iteration
// it wants, and the device delivers only iterations from there on. The
// skipped iterations still elapse, with the same distribution as
// delivered ones, but they are not drawn one by one: each constant-clock
// segment's share of them — the wake window, at the idle clock, counts
// as one — takes one normal draw (see runSM). A sink that already knows
// a block's outcome — such as a detector whose band no timer value can
// enter, or phase 1's sink for a warm kernel whose moments nobody
// reads — may decline the whole block by returning iters: the block
// then only elapses, and BlockEnd follows BlockStart directly.
//
// A sink may also say where its interest narrows: a TailFolder (below)
// hears, before its tail, only iterations whose duration could enter a
// band, and reads its tail in chunks of two integers rather than
// iteration by iteration.
//
// Which sinks get the materialised kernel's trace exactly: one that
// wants every iteration of every block and does not implement
// TailFolder — Launch's *Kernel, the phase-1 MomentSink, or any
// SampleSink wrapped so that only its SampleSink methods show. All of
// them get the same samples and kernel timing, bit for bit. Every other
// sink gets samples and a kernel end that are reproducible per seed and
// equal in distribution, not in bits, to a fully delivered kernel's. A TailFolder whose Band
// is infinite and whose InTail starts false gets each block's
// materialised iterations up to its first fold.
type SampleSink interface {
	// BlockStart announces that block will execute iters iterations and
	// returns the first iteration the sink wants delivered, in [0, iters].
	BlockStart(block, iters int) (from int)
	// Sample delivers iteration iter of block, in order, for every iter
	// from BlockStart's result to iters−1, except those a TailFolder
	// does not hear or receives through Fold.
	Sample(block, iter int, s IterSample)
	// BlockEnd marks block complete.
	BlockEnd(block int)
}

// TailFolder is a SampleSink that reads a block through aggregates
// wherever it can. The device type-asserts it once per kernel, at
// launch.
//
// Before its tail, the sink reacts only to iterations whose device
// duration lies in its Band — such as phase 3's detector before it
// detects. The device asks Band on entering each constant-clock segment
// (the wake window being one) and after each iteration it delivers in a
// thinned segment, and derives two things from it (see runSM):
//   - the segment gate: if no iteration of the segment's nominal
//     duration, widened by the jitter the device trusts to hold and one
//     timer quantum, can reach the band, the segment's share elapses
//     undelivered, in one draw per chunk, like a skipped prefix;
//   - the candidates: if the segment is heard, but only jitter draws in
//     one rare interval can reach the band (thin.go), the iterations
//     outside it elapse undelivered in one draw per run, and only the
//     candidates are delivered.
//
// A band with a NaN bound reacts to every duration, as does an infinite
// one.
//
// From some iteration of a block on, the sink reads the rest of that
// block only through its count and its duration sum — such as phase 3's
// confirmation population, whose mean alone decides the verdict, or the
// warm-up check's TailSink window. The device asks InTail after
// BlockStart and after each iteration it delivers. From the first true
// on, the block's remaining iterations arrive in order, each exactly
// once, either through Sample or in chunks through Fold: on a device
// whose IterJitterSigma is at most 0.05, each constant-clock segment's
// share that fits clear of the segment's end takes one chunk of at
// least minFoldIters iterations; short remainders are still delivered
// one by one. A chunk's host-time span is one normal draw, as for a
// skipped prefix. Its n is exact, and its Σd is exactly the device-time
// span that draw gives (the quantised durations telescope).
type TailFolder interface {
	SampleSink
	// Band returns the device-clock durations, in ns, that block, not
	// yet in its tail, could react to: [loNs, hiNs].
	Band(block int) (loNs, hiNs float64)
	// InTail reports whether every iteration of block after the last
	// delivered one is tail. Once true, it stays true for the block.
	InTail(block int) bool
	// Fold delivers the next n iterations of block at once: sumNs is the
	// sum of their quantised durations.
	Fold(block, n int, sumNs int64)
}

// durMs converts an iteration's device-clock duration to milliseconds,
// the statistics layer's unit.
func durMs(s IterSample) float64 { return float64(s.DurNs()) / 1e6 }

// MomentSink is the phase-1 sink: every iteration of every block folds
// into one stats.MomentAccumulator, giving the whole kernel's iteration
// duration count, mean and standard deviation (in ms).
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

// TailSink is the warm-up verification sink: the iteration count and
// duration sum of each block's trailing iterations, and nothing else.
// The tail window of a block with n iterations covers its last
// min(tailCap, n − n/2) iterations — the "last 100, at most the trailing
// half" rule of the warm-up check — so the device delivers only those,
// and the iterations before them elapse in one draw per clock segment.
// The window's mean is all the check reads, so the sink is a
// TailFolder whose tail is the whole window: the device folds it too,
// wherever the clock holds still.
//
// A TailSink is reusable: Reset clears it for the next kernel while
// keeping the per-block slice allocation.
type TailSink struct {
	tailCap int
	blocks  []tailWindow
}

var _ TailFolder = (*TailSink)(nil)

// tailWindow is one block's window: n durations summing to sumNs.
type tailWindow struct{ n, sumNs int64 }

// NewTailSink returns a sink whose per-block tail windows hold at most
// tailCap iterations (0 defaults to 100, the methodology's warm-up
// window).
func NewTailSink(tailCap int) *TailSink {
	if tailCap <= 0 {
		tailCap = 100
	}
	return &TailSink{tailCap: tailCap}
}

// Reset clears all windows for reuse on the next kernel.
func (s *TailSink) Reset() { s.blocks = s.blocks[:0] }

// BlockStart implements SampleSink: it wants the block's tail window.
func (s *TailSink) BlockStart(block, iters int) int {
	for len(s.blocks) <= block {
		s.blocks = append(s.blocks, tailWindow{})
	}
	s.blocks[block] = tailWindow{}
	return max(iters-s.tailCap, iters/2)
}

// Sample implements SampleSink.
func (s *TailSink) Sample(block, iter int, smp IterSample) {
	s.blocks[block].n++
	s.blocks[block].sumNs += smp.DurNs()
}

// BlockEnd implements SampleSink.
func (s *TailSink) BlockEnd(block int) {}

// Band implements TailFolder; it is never asked, as the whole window is
// tail.
func (s *TailSink) Band(block int) (loNs, hiNs float64) { return math.Inf(-1), math.Inf(1) }

// InTail implements TailFolder: every wanted iteration is tail.
func (s *TailSink) InTail(block int) bool { return true }

// Fold implements TailFolder.
func (s *TailSink) Fold(block, n int, sumNs int64) {
	s.blocks[block].n += int64(n)
	s.blocks[block].sumNs += sumNs
}

// NumBlocks reports how many blocks streamed into the sink.
func (s *TailSink) NumBlocks() int { return len(s.blocks) }

// BlockTail returns one block's tail window: its iteration count and
// its mean duration in ms (NaN for an empty window).
func (s *TailSink) BlockTail(block int) (n int, meanMs float64) {
	w := s.blocks[block]
	return int(w.n), float64(w.sumNs) / float64(w.n) / 1e6
}
