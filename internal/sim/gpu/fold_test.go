package gpu

import (
	"math"
	"testing"

	"golatest/internal/stats"
)

// tailSink is a phase-3-like TailFolder for the fold tests: per block
// it detects the first iteration starting at or after tsDev whose
// duration lies within band of the block's own target duration, and
// sums that iteration and every later one. It also follows the device
// timer along the block: every delivered sample must start where the
// previous sample or chunk ended.
type tailSink struct {
	t      *testing.T
	tsDev  int64
	band   float64   // relative half-width of the detection band
	target []float64 // per block: nominal duration at the target clock, ns
	blocks []tailBlock
}

type tailBlock struct {
	detected  bool
	iterIndex int
	teDev     int64
	n, sum    int64
	devT      int64 // device time the block has reached
	handed    int   // iterations handed over, one by one or folded
	folded    int   // of which in chunks
}

func (s *tailSink) BlockStart(block, iters int) int {
	s.blocks = append(s.blocks, tailBlock{})
	return 0
}

func (s *tailSink) Sample(block, iter int, smp IterSample) {
	b := &s.blocks[block]
	if b.handed > 0 && smp.StartNs != b.devT {
		s.t.Fatalf("block %d iteration %d starts at %d, the block was at %d", block, iter, smp.StartNs, b.devT)
	}
	b.devT = smp.EndNs
	b.handed++
	d := smp.DurNs()
	if !b.detected {
		if smp.StartNs < s.tsDev || math.Abs(float64(d)-s.target[block]) > s.band*s.target[block] {
			return
		}
		b.detected, b.iterIndex, b.teDev = true, iter, smp.EndNs
	}
	b.n++
	b.sum += d
}

func (s *tailSink) BlockEnd(block int) {}

// Band hears every iteration, so detection stays the per-iteration
// path's and only the fold differs between the twins.
func (s *tailSink) Band(block int) (loNs, hiNs float64) { return math.Inf(-1), math.Inf(1) }

func (s *tailSink) InTail(block int) bool { return s.blocks[block].detected }

func (s *tailSink) Fold(block, n int, sumNs int64) {
	b := &s.blocks[block]
	b.devT += sumNs
	b.handed += n
	b.folded += n
	b.n += int64(n)
	b.sum += sumNs
}

// mean returns the block's tail mean in ns.
func (b *tailBlock) mean() float64 { return float64(b.sum) / float64(b.n) }

// confirmed applies phase 3's confirmation rule: the tail's mean lies
// within the relative tolerance tol of the target duration.
func (b *tailBlock) confirmed(target, tol float64) bool {
	return math.Abs(b.mean()-target)/target < tol
}

// runTail runs one two-block kernel that switches 1200 → 600 MHz 6 ms
// after launch, on a device seeded with seed and shaped by cfg, into a
// tailSink with the given detection band; with unfold, the sink is
// wrapped so that only its SampleSink methods show.
func runTail(t *testing.T, cfg Config, seed uint64, band float64, unfold bool) (*tailSink, *Device) {
	t.Helper()
	cfg.Seed = seed
	dev, clk := newTestDevice(t, cfg)
	spec := KernelSpec{Iters: 400, CyclesPerIter: 120_000, Blocks: 2}
	sink := &tailSink{t: t, band: band}
	for sm := 0; sm < spec.Blocks; sm++ {
		sink.target = append(sink.target, spec.CyclesPerIter*1000/(600*dev.smSpeed[sm]))
	}
	var s SampleSink = sink
	if unfold {
		s = struct{ SampleSink }{sink}
	}
	if err := dev.LaunchWithSink(spec, s); err != nil {
		t.Fatal(err)
	}
	clk.Advance(6_000_000)
	sink.tsDev = dev.DeviceTimeAt(clk.Now())
	if _, err := dev.SetFrequency(600); err != nil {
		t.Fatal(err)
	}
	dev.Synchronize()
	return sink, dev
}

// TestFoldedTailMatchesInDistribution checks that a folded tail is the
// per-iteration tail in distribution. Over 2000 device seeds, a kernel
// runs folded and unfolded from the same seed. Per block, detection
// (whether, where, t_e) and the tail's n must be identical, the folded
// chunks must telescope to the block's device-time span, and the tail's
// mean must match: the mean paired difference within 4 standard errors,
// the variance ratio within [0.8, 1.25]. The rate at which phase 3's
// mean rule confirms must match within 4 standard errors.
//
// Two devices: a step change, whose tails are the target clock alone;
// and a 16-step ramp with a detection band wide enough to fire on its
// last step, whose tails carry a few ramp iterations. Its tolerance
// sits inside the spread of those tails' means, so the jitter decides
// each verdict. A fold that passes a wrong Σd, or scales a chunk's
// noise by n instead of √n, fails.
func TestFoldedTailMatchesInDistribution(t *testing.T) {
	const seeds = 2000
	for _, tc := range []struct {
		name                   string
		ramp                   int
		band, tol              float64
		minConfirm, maxConfirm float64
	}{
		{"step", 0, 0.01, 0.02, 0.85, 1},
		{"ramp", 16, 0.105, 0.00125, 0.1, 0.9},
	} {
		cfg := testConfig()
		cfg.WakeDelayNs = 3_000_000
		cfg.RampSteps = tc.ramp
		var mean [2]stats.Accumulator // folded, per-iteration
		var dMean, dConfirm, offset stats.Accumulator
		var confirms [2]int
		blocks, folded, tailIters := 0, 0, int64(0)
		for seed := uint64(1); seed <= seeds; seed++ {
			f, dev := runTail(t, cfg, seed, tc.band, false)
			u, _ := runTail(t, cfg, seed, tc.band, true)
			var reached int64
			for sm := range f.blocks {
				fb, ub := &f.blocks[sm], &u.blocks[sm]
				if fb.detected != ub.detected || fb.iterIndex != ub.iterIndex || fb.teDev != ub.teDev || fb.n != ub.n {
					t.Fatalf("%s, seed %d, block %d: folded detection %+v, per-iteration %+v", tc.name, seed, sm, *fb, *ub)
				}
				if fb.handed != 400 || ub.folded != 0 {
					t.Fatalf("%s, seed %d, block %d: %d iterations handed, %d folded per-iteration", tc.name, seed, sm, fb.handed, ub.folded)
				}
				reached = max(reached, fb.devT)
				if !fb.detected {
					continue
				}
				blocks++
				folded += fb.folded
				tailIters += fb.n
				fm, um := fb.mean(), ub.mean()
				mean[0].Add(fm)
				mean[1].Add(um)
				dMean.Add(fm - um)
				offset.Add((um - f.target[sm]) / f.target[sm])
				var c [2]float64
				for i, b := range []*tailBlock{fb, ub} {
					if b.confirmed(f.target[sm], tc.tol) {
						confirms[i]++
						c[i] = 1
					}
				}
				dConfirm.Add(c[0] - c[1])
			}
			if want := dev.DeviceTimeAt(dev.busyEndNs); reached != want {
				t.Fatalf("%s, seed %d: blocks reach device time %d, kernel ends at %d", tc.name, seed, reached, want)
			}
		}
		if blocks < seeds || folded < blocks*minFoldIters {
			t.Fatalf("%s: %d tails, %d iterations folded", tc.name, blocks, folded)
		}
		d := dMean.MeanStd()
		if se := d.Std / math.Sqrt(float64(d.N)); math.Abs(d.Mean) > 4*se {
			t.Errorf("%s: tail mean: mean folded − per-iteration difference %.2f ns exceeds 4 standard errors (%.2f ns)",
				tc.name, d.Mean, 4*se)
		}
		ratio := math.Pow(mean[0].MeanStd().Std/mean[1].MeanStd().Std, 2)
		if ratio < 0.8 || ratio > 1.25 {
			t.Errorf("%s: tail mean: folded/per-iteration variance ratio %.3f outside [0.8, 1.25]", tc.name, ratio)
		}
		rate := float64(confirms[1]) / float64(blocks)
		if rate < tc.minConfirm || rate > tc.maxConfirm {
			t.Errorf("%s: per-iteration confirm rate %.3f outside [%.2f, %.2f]", tc.name, rate, tc.minConfirm, tc.maxConfirm)
		}
		dc := dConfirm.MeanStd()
		if se := dc.Std / math.Sqrt(float64(dc.N)); math.Abs(dc.Mean) > 4*se+1e-12 {
			t.Errorf("%s: confirm rate folded %.3f, per-iteration %.3f: difference exceeds 4 standard errors",
				tc.name, float64(confirms[0])/float64(blocks), rate)
		}
		o := offset.MeanStd()
		t.Logf("%s: %d tails, %.0f%% of their iterations folded; tail mean difference %.2f ns (4 SE %.2f ns), variance ratio %.3f; "+
			"confirm rate folded %.3f, per-iteration %.3f; tail mean offset %.5f ± %.5f",
			tc.name, blocks, 100*float64(folded)/float64(tailIters), d.Mean, 4*d.Std/math.Sqrt(float64(d.N)), ratio,
			float64(confirms[0])/float64(blocks), rate, o.Mean, o.Std)
	}
}
