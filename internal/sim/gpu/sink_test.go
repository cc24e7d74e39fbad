package gpu

import (
	"math"
	"testing"

	"golatest/internal/stats"
)

// TestStreamStatsMatchesMaterialised pins the core equivalence of the
// streaming path: the same kernel on an identically seeded device must
// yield the statistics of its materialised trace whether it streams
// through the phase-1 MomentSink or the warm-up TailSink, and the same
// kernel timing either way.
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
	tails := NewTailSink(100)
	kTails := launch(tails)

	for _, k := range []*Kernel{kMoments, kTails} {
		if km.StartNs() != k.StartNs() || km.EndNs() != k.EndNs() {
			t.Fatal("sink kernel timing diverged from materialised kernel")
		}
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

	// Per-block tails must match the "last 100, at most trailing half"
	// window applied to the materialised trace.
	blocks := km.Samples()
	if tails.NumBlocks() != len(blocks) {
		t.Fatalf("sink blocks = %d, want %d", tails.NumBlocks(), len(blocks))
	}
	for b, block := range blocks {
		tailStart := len(block) - 100
		if tailStart < len(block)/2 {
			tailStart = len(block) / 2
		}
		var acc stats.Accumulator
		for _, it := range block[tailStart:] {
			acc.Add(float64(it.DurNs()) / 1e6)
		}
		if acc.MeanStd() != tails.BlockTail(b) {
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

// TestSinkDeliversFromBlockStart checks the sink contract: no Sample
// arrives before the iteration BlockStart returned, every later one
// arrives in order, and each delivered sample is the materialised
// trace's — on a kernel that starts in the wake window and crosses a
// ramped transition, with the first wanted iteration inside, after and
// at both ends of those.
func TestSinkDeliversFromBlockStart(t *testing.T) {
	cfg := testConfig()
	cfg.WakeDelayNs = 3_000_000
	cfg.RampSteps = 2
	cfg.ClockOffsetNs = -5_000_000
	cfg.ClockDriftPPM = 3
	spec := KernelSpec{Iters: 300, CyclesPerIter: 120_000, Blocks: 4}
	run := func(sink SampleSink) *Kernel {
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
	ref := run(nil)
	froms := []int{0, 5, 150, spec.Iters}
	sink := &recordingSink{t: t, from: func(block, iters int) int { return froms[block] }}
	k := run(sink)
	if k.EndNs() != ref.EndNs() {
		t.Fatalf("kernel end %d, want %d", k.EndNs(), ref.EndNs())
	}
	for b, block := range ref.Samples() {
		if sink.want[b] != len(block) {
			t.Fatalf("block %d: delivery stopped at %d of %d", b, sink.want[b], len(block))
		}
		want := block[froms[b]:]
		if len(sink.got[b]) != len(want) {
			t.Fatalf("block %d: %d samples, want %d", b, len(sink.got[b]), len(want))
		}
		for i := range want {
			if sink.got[b][i] != want[i] {
				t.Fatalf("block %d iteration %d: %+v, want %+v", b, froms[b]+i, sink.got[b][i], want[i])
			}
		}
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
