package gpu

import (
	"math"
	"testing"

	"golatest/internal/stats"
)

// TestStreamStatsMatchesMaterialised pins the streaming path's
// statistics. The phase-1 MomentSink reads every iteration, so its
// kernel is bit-identical to the materialised one, timing and moments
// alike. The warm-up TailSink skips each block's prefix, which elapses
// in chunks, so its window is checked against a recording sink over the
// "last 100, at most trailing half" window on the same seed. Its fold is
// hidden behind a wrapper (onlySink) so the window arrives one iteration
// at a time; TestTailSinkFoldMatchesInDistribution covers the fold.
func TestStreamStatsMatchesMaterialised(t *testing.T) {
	spec := KernelSpec{Iters: 400, CyclesPerIter: 90_000, Blocks: 3}
	// launch returns the kernel's end and its handle (nil when streamed).
	launch := func(sink SampleSink) (int64, *Kernel) {
		t.Helper()
		dev, _ := newTestDevice(t, testConfig())
		k := launchOn(t, dev, spec, sink)
		dev.Synchronize()
		return dev.busyEndNs, k
	}
	endM, km := launch(nil)
	moments := new(MomentSink)
	if end, _ := launch(moments); end != endM || km.EndNs() != endM {
		t.Fatal("moment sink kernel timing diverged from materialised kernel")
	}

	durs := km.DurationsMs()
	if want, got := stats.Describe(durs), moments.MeanStd(); want != got {
		t.Fatalf("streamed stats %+v != materialised %+v", got, want)
	}
	if moments.N() != len(durs) {
		t.Fatalf("moment sink N = %d, want %d", moments.N(), len(durs))
	}

	tails := NewTailSink(100)
	endTails, _ := launch(onlySink{tails})
	rec := &recordingSink{t: t, from: func(_, iters int) int { return max(iters-100, iters/2) }}
	if endRec, _ := launch(rec); endTails != endRec {
		t.Fatal("same-seed tail kernels diverged in timing")
	}
	if tails.NumBlocks() != len(rec.got) {
		t.Fatalf("sink blocks = %d, want %d", tails.NumBlocks(), len(rec.got))
	}
	for b, block := range rec.got {
		var sum int64
		for _, it := range block {
			sum += it.DurNs()
		}
		want := float64(sum) / float64(len(block)) / 1e6
		if n, mean := tails.BlockTail(b); len(block) != 100 || n != 100 || mean != want {
			t.Fatalf("block %d tail diverged: %d iterations, mean %v; recorded %d, mean %v", b, n, mean, len(block), want)
		}
	}
}

// launchOn launches spec on dev, materialised when sink is nil and
// streamed into sink otherwise, and returns the handle (nil when
// streamed).
func launchOn(t *testing.T, dev *Device, spec KernelSpec, sink SampleSink) *Kernel {
	t.Helper()
	if sink == nil {
		k, err := dev.Launch(spec)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	if err := dev.LaunchWithSink(spec, sink); err != nil {
		t.Fatal(err)
	}
	return nil
}

// onlySink hides a sink's TailFolder methods, so the device delivers
// every iteration it wants one by one.
type onlySink struct{ SampleSink }

// recordingSink asks for the iterations from a per-block start and
// records every delivery.
type recordingSink struct {
	t    *testing.T
	from func(block, iters int) int
	want []int // per block: the next iteration expected
	got  [][]IterSample
}

func (s *recordingSink) BlockStart(block, iters int) int {
	from := s.from(block, iters)
	s.want = append(s.want, from)
	s.got = append(s.got, nil)
	return from
}

func (s *recordingSink) Sample(block, iter int, smp IterSample) {
	if iter != s.want[block] {
		s.t.Fatalf("block %d: got iteration %d, want %d", block, iter, s.want[block])
	}
	s.want[block]++
	s.got[block] = append(s.got[block], smp)
}

func (s *recordingSink) BlockEnd(block int) {}

// wakeRampConfig and runWakeRamp build the kernel shape that exercises
// every path of runSM: it starts in the wake window, and a ramped clock
// change lands mid-kernel, on a device clock with offset and drift.
func wakeRampConfig() Config {
	cfg := testConfig()
	cfg.WakeDelayNs = 3_000_000
	cfg.RampSteps = 2
	cfg.ClockOffsetNs = -5_000_000
	cfg.ClockDriftPPM = 3
	return cfg
}

// runWakeRamp returns the kernel's start and end, and its handle (nil
// when streamed into sink).
func runWakeRamp(t *testing.T, cfg Config, spec KernelSpec, sink SampleSink) (start, end int64, k *Kernel) {
	t.Helper()
	dev, clk := newTestDevice(t, cfg)
	k = launchOn(t, dev, spec, sink)
	start = clk.Now()
	clk.Advance(6_000_000)
	if _, err := dev.SetFrequency(600); err != nil {
		t.Fatal(err)
	}
	dev.Synchronize()
	return start, dev.busyEndNs, k
}

// TestSinkDeliversFromBlockStart checks the sink contract: no Sample
// arrives before the iteration BlockStart returned, every later one
// arrives in order, and the same seed delivers the same samples and
// kernel end — on a kernel that starts in the wake window and crosses a
// ramped transition, with the first wanted iteration inside, after and
// at both ends of those. A block that wants every iteration is the
// materialised trace's, bit for bit.
func TestSinkDeliversFromBlockStart(t *testing.T) {
	cfg := wakeRampConfig()
	spec := KernelSpec{Iters: 300, CyclesPerIter: 120_000, Blocks: 4}
	_, _, ref := runWakeRamp(t, cfg, spec, nil)
	froms := []int{0, 5, 150, spec.Iters}
	record := func() (int64, *recordingSink) {
		sink := &recordingSink{t: t, from: func(block, iters int) int { return froms[block] }}
		_, end, _ := runWakeRamp(t, cfg, spec, sink)
		return end, sink
	}
	end, sink := record()
	end2, sink2 := record()
	if end != end2 {
		t.Fatalf("same seed: kernel end %d, then %d", end, end2)
	}
	for b := range froms {
		if sink.want[b] != spec.Iters {
			t.Fatalf("block %d: delivery stopped at %d of %d", b, sink.want[b], spec.Iters)
		}
		if len(sink.got[b]) != spec.Iters-froms[b] {
			t.Fatalf("block %d: %d samples, want %d", b, len(sink.got[b]), spec.Iters-froms[b])
		}
		for i, s := range sink.got[b] {
			if s != sink2.got[b][i] {
				t.Fatalf("same seed, block %d iteration %d: %+v, then %+v", b, froms[b]+i, s, sink2.got[b][i])
			}
		}
	}
	for i, want := range ref.Samples()[0] {
		if sink.got[0][i] != want {
			t.Fatalf("block 0 iteration %d: %+v, want %+v", i, sink.got[0][i], want)
		}
	}
}

// gateSink hears only durations within [lo, hi] device ns and never
// folds. It records every delivered iteration and checks that they
// arrive in order.
type gateSink struct {
	t      *testing.T
	lo, hi float64
	last   []int // per block: the last iteration delivered
	got    [][]IterSample
}

func (s *gateSink) BlockStart(block, iters int) int {
	s.last = append(s.last, -1)
	s.got = append(s.got, nil)
	return 0
}

func (s *gateSink) Sample(block, iter int, smp IterSample) {
	if iter <= s.last[block] {
		s.t.Fatalf("block %d: iteration %d after %d", block, iter, s.last[block])
	}
	s.last[block] = iter
	s.got[block] = append(s.got[block], smp)
}

func (s *gateSink) BlockEnd(block int) {}

func (s *gateSink) Band(block int) (loNs, hiNs float64) { return s.lo, s.hi }

func (s *gateSink) InTail(block int) bool { return false }

func (s *gateSink) Fold(block, n int, sumNs int64) {
	s.t.Fatal("Fold on a sink that is never in its tail")
}

// TestGateSkipsUnheardSegments runs the wake-window + ramp kernel
// (1200 MHz, ramping through 1000 and 800 to 600 MHz) into sinks that
// hear only durations near the 600 MHz iterations' 200 µs. The wake
// window (at the 300 MHz idle clock), the 1200 MHz segment and both ramp
// steps must elapse undelivered, in chunks, while the iterations near
// each segment's end arrive one by one. A sink whose band holds the
// 600 MHz iterations' bulk gets every one of them, up to the block's
// last; a sink whose band lies in their upper jitter tail (candidates
// from 2.6σ up on the slowest SM, so p < 0.005) gets only the
// candidates of that heard segment, the others elapsing undelivered
// too, and must simulate under a tenth of the first sink's iterations
// one by one. In both, the iterations delivered are exactly those
// the device simulated one by one, those plus the skipped ones are every
// iteration of every block, and each delivered iteration takes a fresh
// start stamp after a skip, so none lasts longer than an idle-clock
// iteration's 400 µs plus its jitter.
func TestGateSkipsUnheardSegments(t *testing.T) {
	spec := KernelSpec{Iters: 300, CyclesPerIter: 120_000, Blocks: 4}
	run := func(lo, hi float64, toEnd bool) (sink *gateSink, c IterCounts, inBand int) {
		t.Helper()
		sink = &gateSink{t: t, lo: lo, hi: hi}
		dev, clk := newTestDevice(t, wakeRampConfig())
		launchOn(t, dev, spec, sink)
		clk.Advance(6_000_000)
		if _, err := dev.SetFrequency(600); err != nil {
			t.Fatal(err)
		}
		dev.Synchronize()
		c = dev.IterCounts()
		delivered := 0
		for b, block := range sink.got {
			if toEnd && sink.last[b] != spec.Iters-1 {
				t.Fatalf("band [%v, %v], block %d: last delivered iteration %d, want %d", lo, hi, b, sink.last[b], spec.Iters-1)
			}
			delivered += len(block)
			for _, s := range block {
				if d := s.DurNs(); d > 420_000 {
					t.Fatalf("band [%v, %v], block %d: a delivered iteration lasts %d ns", lo, hi, b, d)
				} else if float64(d) >= lo && float64(d) <= hi {
					inBand++
				}
			}
		}
		if int64(delivered) != c.OneByOne || c.Folded != 0 || c.OneByOne+c.Skipped != int64(spec.Iters*spec.Blocks) {
			t.Fatalf("band [%v, %v]: %d iterations delivered; device counts %+v for %d", lo, hi, delivered, c, spec.Iters*spec.Blocks)
		}
		t.Logf("band [%v, %v]: %d delivered (%d in the band), %d skipped", lo, hi, delivered, inBand, c.Skipped)
		return sink, c, inBand
	}
	_, heard, inBand := run(195_000, 205_000, true)
	if heard.Skipped == 0 || inBand == 0 {
		t.Fatalf("%d iterations skipped, %d delivered in the band", heard.Skipped, inBand)
	}
	_, thinned, _ := run(203_000, 204_000, false)
	if 10*thinned.OneByOne > heard.OneByOne {
		t.Fatalf("the thinned kernel simulates %d iterations one by one, the heard one %d: want under a tenth",
			thinned.OneByOne, heard.OneByOne)
	}
}

// TestSkippedPrefixMatchesInDistribution checks that skipped iterations
// elapse with the distribution of delivered ones. Over many device seeds
// of the wake-window + ramp kernel, a one-block kernel whose sink skips
// every iteration must end when the materialised one does: the mean
// paired difference within 4 standard errors and the end-time variance
// ratio within [0.8, 1.25]. The seeds vary the SM speed, which dominates
// the spread, so a chunk that ignores it, overruns a clock boundary, or
// scales its noise by n instead of √n fails.
func TestSkippedPrefixMatchesInDistribution(t *testing.T) {
	const seeds = 2000
	spec := KernelSpec{Iters: 300, CyclesPerIter: 120_000, Blocks: 1}
	end := func(seed uint64, sink SampleSink) float64 {
		cfg := wakeRampConfig()
		cfg.Seed = seed
		start, end, _ := runWakeRamp(t, cfg, spec, sink)
		return float64(end - start)
	}
	var full, skip, diff stats.Accumulator
	for seed := uint64(1); seed <= seeds; seed++ {
		a := end(seed, nil)
		b := end(seed, &recordingSink{t: t, from: func(_, iters int) int { return iters }})
		full.Add(a)
		skip.Add(b)
		diff.Add(b - a)
	}
	d := diff.MeanStd()
	if se := d.Std / math.Sqrt(float64(d.N)); math.Abs(d.Mean) > 4*se {
		t.Errorf("mean end-time difference %.1f ns exceeds 4 standard errors (%.1f ns)", d.Mean, 4*se)
	}
	ratio := math.Pow(skip.MeanStd().Std/full.MeanStd().Std, 2)
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("end-time variance ratio %.3f outside [0.8, 1.25]", ratio)
	}
}

// TestStreamedLaunchAllocatesNothing checks that a streamed kernel
// costs no allocation in steady state: it has no handle, and the queue
// and the sink keep their storage across launches.
func TestStreamedLaunchAllocatesNothing(t *testing.T) {
	dev, _ := newTestDevice(t, testConfig())
	spec := KernelSpec{Iters: 50, CyclesPerIter: 50_000, Blocks: 2}
	moments := new(MomentSink)
	launch := func() {
		moments.Reset()
		if err := dev.LaunchWithSink(spec, moments); err != nil {
			t.Fatal(err)
		}
		dev.Synchronize()
	}
	launch()
	if n := testing.AllocsPerRun(20, launch); n != 0 {
		t.Fatalf("a streamed launch allocates %v times", n)
	}
	if err := dev.LaunchWithSink(spec, nil); err == nil {
		t.Fatal("LaunchWithSink accepted a nil sink")
	}
}

// TestStreamStatsReset checks both sinks can be reused across kernels.
func TestStreamStatsReset(t *testing.T) {
	dev, _ := newTestDevice(t, testConfig())
	moments, tails := new(MomentSink), NewTailSink(0)
	spec := KernelSpec{Iters: 50, CyclesPerIter: 50_000, Blocks: 2}
	for round := 0; round < 3; round++ {
		moments.Reset()
		tails.Reset()
		if err := dev.LaunchWithSink(spec, moments); err != nil {
			t.Fatal(err)
		}
		if err := dev.LaunchWithSink(spec, tails); err != nil {
			t.Fatal(err)
		}
		dev.Synchronize()
		if moments.N() != 100 {
			t.Fatalf("round %d: N = %d, want 100", round, moments.N())
		}
		if tails.NumBlocks() != 2 {
			t.Fatalf("round %d: blocks = %d", round, tails.NumBlocks())
		}
		for b := 0; b < 2; b++ {
			if n, _ := tails.BlockTail(b); n != 25 {
				t.Fatalf("round %d block %d: tail N = %d, want 25", round, b, n)
			}
		}
	}
}

// TestWakeChunkMatchesInDistribution checks that undelivered iterations
// inside a wake window elapse with the distribution of delivered ones.
// Over many device seeds, a one-block kernel launched on an idle device
// spends its first 30 ms at the 300 MHz idle clock (75 iterations of
// 400 µs) and the rest at 1200 MHz; a sink wants only its last 10
// iterations, so the undelivered prefix crosses the end of the wake
// window. Against the materialised kernel of the same seed, the kernel
// end and the first delivered iteration's start (from the launch) must
// match: mean paired difference within 4 standard errors and variance
// ratio within [0.8, 1.25]. The 2% jitter and the SM speed carry
// comparable shares of the spread, so a wake chunk that drops its
// σ√n noise or ignores the SM speed fails the variance ratio.
func TestWakeChunkMatchesInDistribution(t *testing.T) {
	const seeds, from = 2000, 100
	spec := KernelSpec{Iters: from + 10, CyclesPerIter: 120_000, Blocks: 1}
	run := func(seed uint64, sink SampleSink) (end, first float64, c IterCounts) {
		t.Helper()
		cfg := testConfig()
		cfg.Seed = seed
		cfg.WakeDelayNs = 30_000_000
		cfg.IterJitterSigma = 0.02
		dev, clk := newTestDevice(t, cfg)
		k := launchOn(t, dev, spec, sink)
		start := clk.Now()
		dev.Synchronize()
		s := IterSample{}
		if k != nil {
			s = k.Samples()[0][from]
		} else {
			s = sink.(*recordingSink).got[0][0]
		}
		return float64(dev.busyEndNs - start), float64(s.StartNs - dev.DeviceTimeAt(start)), dev.IterCounts()
	}
	var ends, firsts [2]stats.Accumulator
	var dEnd, dFirst stats.Accumulator
	var oneByOne int64
	for seed := uint64(1); seed <= seeds; seed++ {
		endM, firstM, _ := run(seed, nil)
		endS, firstS, c := run(seed, &recordingSink{t: t, from: func(_, iters int) int { return from }})
		oneByOne += c.OneByOne
		ends[0].Add(endM)
		ends[1].Add(endS)
		firsts[0].Add(firstM)
		firsts[1].Add(firstS)
		dEnd.Add(endS - endM)
		dFirst.Add(firstS - firstM)
	}
	for _, c := range []struct {
		what string
		diff *stats.Accumulator
		acc  *[2]stats.Accumulator
	}{{"kernel end", &dEnd, &ends}, {"first delivered start", &dFirst, &firsts}} {
		d := c.diff.MeanStd()
		if se := d.Std / math.Sqrt(float64(d.N)); math.Abs(d.Mean) > 4*se {
			t.Errorf("%s: mean chunked − per-iteration difference %.1f ns exceeds 4 standard errors (%.1f ns)", c.what, d.Mean, 4*se)
		}
		ratio := math.Pow(c.acc[1].MeanStd().Std/c.acc[0].MeanStd().Std, 2)
		if ratio < 0.8 || ratio > 1.25 {
			t.Errorf("%s: variance ratio %.3f outside [0.8, 1.25]", c.what, ratio)
		}
		t.Logf("%s: mean difference %.1f ns, variance ratio %.3f", c.what, d.Mean, ratio)
	}
	// The 10 delivered iterations, and the few next to the wake window's
	// end and the first one, are all the chunked kernel simulates one by
	// one.
	if per := float64(oneByOne) / seeds; per > 20 {
		t.Errorf("the chunked kernel simulates %.1f iterations one by one, want at most 20", per)
	}
}
