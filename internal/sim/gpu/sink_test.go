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
// "last 100, at most trailing half" window on the same seed.
func TestStreamStatsMatchesMaterialised(t *testing.T) {
	spec := KernelSpec{Iters: 400, CyclesPerIter: 90_000, Blocks: 3}
	launch := func(sink SampleSink) *Kernel {
		t.Helper()
		dev, _ := newTestDevice(t, testConfig())
		k, err := dev.LaunchWithSink(spec, sink)
		if err != nil {
			t.Fatal(err)
		}
		dev.Synchronize()
		return k
	}
	km := launch(nil)
	moments := new(MomentSink)
	kMoments := launch(moments)
	if km.StartNs() != kMoments.StartNs() || km.EndNs() != kMoments.EndNs() {
		t.Fatal("moment sink kernel timing diverged from materialised kernel")
	}

	durs := km.DurationsMs()
	if want, got := stats.Describe(durs), moments.MeanStd(); want != got {
		t.Fatalf("streamed stats %+v != materialised %+v", got, want)
	}
	if moments.N() != len(durs) {
		t.Fatalf("moment sink N = %d, want %d", moments.N(), len(durs))
	}
	// Streamed skewness/kurtosis must agree with the two-pass slice
	// versions to floating-point accuracy.
	if g1, want := moments.Skewness(), stats.Skewness(durs); math.Abs(g1-want) > 1e-9*math.Abs(want)+1e-12 {
		t.Fatalf("skewness %v, want %v", g1, want)
	}
	if g2, want := moments.ExcessKurtosis(), stats.ExcessKurtosis(durs); math.Abs(g2-want) > 1e-9*math.Abs(want)+1e-12 {
		t.Fatalf("kurtosis %v, want %v", g2, want)
	}

	tails := NewTailSink(100)
	kTails := launch(tails)
	rec := &recordingSink{t: t, from: func(_, iters int) int { return max(iters-100, iters/2) }}
	kRec := launch(rec)
	if kTails.StartNs() != kRec.StartNs() || kTails.EndNs() != kRec.EndNs() {
		t.Fatal("same-seed tail kernels diverged in timing")
	}
	if tails.NumBlocks() != len(rec.got) {
		t.Fatalf("sink blocks = %d, want %d", tails.NumBlocks(), len(rec.got))
	}
	for b, block := range rec.got {
		var acc stats.Accumulator
		for _, it := range block {
			acc.Add(float64(it.DurNs()) / 1e6)
		}
		if acc.N() != 100 || acc.MeanStd() != tails.BlockTail(b) {
			t.Fatalf("block %d tail diverged: %+v vs %+v", b, tails.BlockTail(b), acc.MeanStd())
		}
	}
}

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

func runWakeRamp(t *testing.T, cfg Config, spec KernelSpec, sink SampleSink) *Kernel {
	t.Helper()
	dev, clk := newTestDevice(t, cfg)
	k, err := dev.LaunchWithSink(spec, sink)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(6_000_000)
	if _, err := dev.SetFrequency(600); err != nil {
		t.Fatal(err)
	}
	dev.Synchronize()
	return k
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
	ref := runWakeRamp(t, cfg, spec, nil)
	froms := []int{0, 5, 150, spec.Iters}
	record := func() (*Kernel, *recordingSink) {
		sink := &recordingSink{t: t, from: func(block, iters int) int { return froms[block] }}
		return runWakeRamp(t, cfg, spec, sink), sink
	}
	k, sink := record()
	k2, sink2 := record()
	if k.EndNs() != k2.EndNs() {
		t.Fatalf("same seed: kernel end %d, then %d", k.EndNs(), k2.EndNs())
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
		k := runWakeRamp(t, cfg, spec, sink)
		return float64(k.EndNs() - k.StartNs())
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

// TestSinkKernelSamplesPanics documents that a streamed kernel keeps no
// trace to return.
func TestSinkKernelSamplesPanics(t *testing.T) {
	dev, _ := newTestDevice(t, testConfig())
	k, err := dev.LaunchWithSink(KernelSpec{Iters: 10, CyclesPerIter: 50_000, Blocks: 1}, NewTailSink(0))
	if err != nil {
		t.Fatal(err)
	}
	dev.Synchronize()
	defer func() {
		if recover() == nil {
			t.Fatal("Samples() on a streamed kernel did not panic")
		}
	}()
	_ = k.Samples()
}

// TestStreamStatsReset checks both sinks can be reused across kernels.
func TestStreamStatsReset(t *testing.T) {
	dev, _ := newTestDevice(t, testConfig())
	moments, tails := new(MomentSink), NewTailSink(0)
	spec := KernelSpec{Iters: 50, CyclesPerIter: 50_000, Blocks: 2}
	for round := 0; round < 3; round++ {
		moments.Reset()
		tails.Reset()
		if _, err := dev.LaunchWithSink(spec, moments); err != nil {
			t.Fatal(err)
		}
		if _, err := dev.LaunchWithSink(spec, tails); err != nil {
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
			if n := tails.BlockTail(b).N; n != 25 {
				t.Fatalf("round %d block %d: tail N = %d, want 25", round, b, n)
			}
		}
	}
}

// TestAppendDurationsMsReusesBuffer checks the pooled flatten path does
// not grow a sufficient buffer.
func TestAppendDurationsMsReusesBuffer(t *testing.T) {
	dev, _ := newTestDevice(t, testConfig())
	k, err := dev.Launch(KernelSpec{Iters: 64, CyclesPerIter: 50_000, Blocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	dev.Synchronize()

	buf := make([]float64, 0, 256)
	out := k.AppendDurationsMs(buf)
	if len(out) != 128 {
		t.Fatalf("len = %d, want 128", len(out))
	}
	if &out[0] != &buf[:1][0] {
		t.Fatal("sufficient buffer was reallocated")
	}
	if diff := len(k.DurationsMs()) - len(out); diff != 0 {
		t.Fatalf("DurationsMs length differs by %d", diff)
	}
}
