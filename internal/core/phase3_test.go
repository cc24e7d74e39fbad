package core

import (
	"fmt"
	"math"
	"math/big"
	"testing"

	"golatest/internal/ptp"
	"golatest/internal/sim/gpu"
	"golatest/internal/stats"
)

// ablationRunner builds a runner shaped like the ablations artefact's
// campaigns: an sms-SM device with a constant 15 ms switching latency,
// measured at 600 and 1200 MHz on three blocks, 12 measurements per
// pair, a 40 ms capture hint and the CI detection band; mutate adjusts
// the configuration.
func ablationRunner(t *testing.T, sms int, seed uint64, mutate func(*Config)) *Runner {
	t.Helper()
	dev := testDevice(t, fixedModel{bus: 50_000, dur: 15_000_000 - 50_000}, func(c *gpu.Config) {
		c.SMCount = sms
		c.FreqsMHz = []float64{600, 900, 1200}
		c.Seed = seed
	})
	cfg := Config{
		Frequencies:      []float64{600, 1200},
		Blocks:           3,
		MinMeasurements:  12,
		MaxMeasurements:  12,
		MaxLatencyHintNs: 40_000_000,
		CIDetection:      true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := NewRunner(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// downSwitch is the pair every ablation campaign measures.
var downSwitch = Pair{InitMHz: 1200, TargetMHz: 600}

// TestBandReachable table-tests the lattice predicate on a 1 µs timer,
// including the CI bands of the 1-core and 64-core cells of the
// core-count study (phase-1 populations of 300 and 19,200 iterations),
// neither of which holds a timer value.
func TestBandReachable(t *testing.T) {
	const q = 1000
	// mid lies a quarter quantum past the lattice point 150 µs; dist is
	// its distance as Sample computes it.
	const mid = 0.15025
	dist := math.Abs(float64(150*q)/1e6 - mid)
	below := math.Nextafter(0.15, 0)
	cases := []struct {
		name       string
		mean, band float64
		want       bool
	}{
		{"NaN band", mid, math.NaN(), true},
		{"band of one quantum", 0.1505, 0.001, true},
		{"band over a half quantum between lattice points", 0.1505, 0.0006, true},
		{"mean on a lattice point, zero band", 0.15, 0, true},
		{"zero band between lattice points", mid, 0, false},
		{"band one ulp short of the nearest lattice point", mid, math.Nextafter(dist, 0), false},
		{"band reaching the nearest lattice point", mid, dist, true},
		{"band one ulp past the nearest lattice point", mid, math.Nextafter(dist, math.Inf(1)), true},
		{"mean one ulp below a lattice point, band of that ulp", below, 0.15 - below, true},
		{"negative band", 0.15, -1e-9, false},
	}
	for _, cores := range []int{1, 64} {
		r := ablationRunner(t, cores, 31, func(c *Config) { c.Blocks = cores })
		p1, err := r.Phase1()
		if err != nil {
			t.Fatal(err)
		}
		_, target, err := r.pairStats(downSwitch, p1)
		if err != nil {
			t.Fatal(err)
		}
		band := r.cfg.SigmaK * target.StdErr()
		cases = append(cases, struct {
			name       string
			mean, band float64
			want       bool
		}{fmt.Sprintf("%d-core CI cell (n %d, mean %.6f ms, band %.3g ms)", cores, target.N, target.Mean, band),
			target.Mean, band, false})
	}
	for _, tc := range cases {
		if got := bandReachable(tc.mean, tc.band, q); got != tc.want {
			t.Errorf("%s: reachable = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestDetectSinkTailAtCaptureCap checks the integer tail sums at their
// worst case under the 2 s capture cap: the longest benchmark kernel of
// the default shape, whose tail puts nearly its whole span into one
// iteration, which maximises Σy². The sums must be exact, the tail's
// statistics must match Welford's over the same durations, and the
// verdict must match the reference's.
func TestDetectSinkTailAtCaptureCap(t *testing.T) {
	cfg, err := quickConfig(600, 1200).withDefaults(testDevice(t, fixedModel{dur: 1}, nil))
	if err != nil {
		t.Fatal(err)
	}
	target := stats.MeanStd{N: 900, Mean: 0.15, Std: 0.001}
	const q, d0, t0 = int64(1000), int64(150_000), int64(1_000_000)
	n := int(float64(captureCapNs)/cfg.IterTargetNs) + 1 + cfg.ConfirmIters
	span := captureCapNs + int64(cfg.ConfirmIters)*d0
	durs := repeat(q, n)
	durs[0] = d0
	durs[1] = span - d0 - int64(n-2)*q
	blocks := [][]gpu.IterSample{blockTrace(t0, durs...)}

	s := new(detectSink)
	s.arm(&cfg, t0, target, q)
	replay(s, blocks)

	var wantY2 big.Int
	var welford stats.Accumulator
	for _, d := range durs {
		y := big.NewInt(d - d0)
		wantY2.Add(&wantY2, y.Mul(y, y))
		welford.Add(float64(d) / 1e6)
	}
	if !wantY2.IsInt64() || s.sumY2 != wantY2.Int64() {
		t.Fatalf("Σy² = %d, exact %s", s.sumY2, wantY2.String())
	}
	got, want := s.tail(), welford.MeanStd()
	if got.N != want.N || math.Abs(got.Mean-want.Mean) > 1e-12*want.Mean || math.Abs(got.Std-want.Std) > 1e-9*want.Std {
		t.Fatalf("tail %+v, Welford %+v", got, want)
	}
	wantV, _, _ := refEvaluate(&cfg, blocks, t0, target)
	sameVerdicts(t, "tail at the capture cap", s.blocks, wantV)
	t.Logf("n %d, Σy² %d (%.0f%% of 2⁶³), tail %+v", n, s.sumY2, 100*float64(s.sumY2)/math.MaxInt64, got)
}

// TestCaptureRetryDoublesWindow runs CI-band campaigns, in which every
// attempt fails, so the capture window grows after every third attempt.
// It must double each time and never exceed 2 s: from 60 ms it stops at
// 1.92 s, and from 900 ms at 1.8 s. The campaign runs on r itself
// (measurePair), whose window the test then reads.
func TestCaptureRetryDoublesWindow(t *testing.T) {
	for _, tc := range []struct {
		hintNs, wantNs int64
		n              int
	}{
		{40_000_000, 1_920_000_000, 4},
		{600_000_000, 1_800_000_000, 2},
	} {
		r := ablationRunner(t, 6, 23, func(c *Config) {
			c.MaxLatencyHintNs = tc.hintNs
			c.MinMeasurements, c.MaxMeasurements = tc.n, tc.n
		})
		p1, err := r.Phase1()
		if err != nil {
			t.Fatal(err)
		}
		pr, err := r.measurePair(downSwitch, p1)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Attempts != 6*tc.n || len(pr.Samples) != 0 {
			t.Fatalf("hint %d ns: %d attempts, %d samples; want %d failed attempts",
				tc.hintNs, pr.Attempts, len(pr.Samples), 6*tc.n)
		}
		if got := r.effectiveCaptureNs(); got != tc.wantNs {
			t.Errorf("hint %d ns: capture window grew to %d ns, want %d", tc.hintNs, got, tc.wantNs)
		}
	}
}

// TestCIAblationReadsNoSamples runs the detection ablation's CI-band
// campaign: every one of its 72 benchmark kernels must be declined, so
// the phase-3 sink is handed no iteration at all. The 2σ campaign on
// the same device is the control: its sink reads its kernels. Both run
// on r itself (measurePair), whose sink the test then reads.
func TestCIAblationReadsNoSamples(t *testing.T) {
	for _, ci := range []bool{true, false} {
		r := ablationRunner(t, 6, 23, func(c *Config) { c.CIDetection = ci })
		p1, err := r.Phase1()
		if err != nil {
			t.Fatal(err)
		}
		pr, err := r.measurePair(downSwitch, p1)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("CI %v: %d attempts, %d samples, %d iterations delivered to the sink",
			ci, pr.Attempts, len(pr.Samples), r.detect.delivered)
		if ci && (pr.Attempts != 72 || len(pr.Samples) != 0 || r.detect.delivered != 0) {
			t.Fatalf("CI campaign: %d attempts, %d samples, %d iterations delivered; want 72, 0, 0",
				pr.Attempts, len(pr.Samples), r.detect.delivered)
		}
		if !ci && (len(pr.Samples) == 0 || r.detect.delivered == 0) {
			t.Fatalf("2σ campaign: %d samples, %d iterations delivered; want both positive",
				len(pr.Samples), r.detect.delivered)
		}
	}
}

// tailCounter forwards to a detectSink, which it embeds — gpu.TailFolder
// methods included — and records each block's confirmation-tail length.
type tailCounter struct {
	*detectSink
	n []int64
}

func (c *tailCounter) BlockEnd(block int) {
	c.n = append(c.n, c.detectSink.n)
	c.detectSink.BlockEnd(block)
}

// foldHidden keeps a TailFolder's gate and hides its fold: InTail never
// reports a tail, so the device delivers one by one every iteration the
// gate lets through. It keeps Band, so it thins a block's segments
// exactly as the folding twin does up to its detection; from there the
// detectSink's band holds every duration, and nothing is thinned.
type foldHidden struct{ gpu.TailFolder }

func (foldHidden) InTail(block int) bool { return false }

// TestFoldedTailKeepsDetection runs one benchmark kernel per valid pair
// and twin setup on fresh twin runners, from the same state: one folds
// each block's confirmation tail, the other reads it one iteration at a
// time. Both skip the segments the sink does not hear. Every block's
// detection, t_e and iteration index must be identical, as must the
// tail's length, and most kernels with a detection must fold (a tail
// shorter than a chunk's minimum does not).
func TestFoldedTailKeepsDetection(t *testing.T) {
	detecting, foldedKernels, folded := 0, 0, int64(0)
	for _, setup := range twinSetups() {
		p1, err := setup.runner(t).Phase1()
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range p1.ValidPairs {
			var twins [2]*Runner
			var tails [2]*tailCounter
			var folds [2]int64
			for i := range twins {
				r := setup.runner(t)
				tails[i] = &tailCounter{detectSink: r.detect}
				r.benchSink = tails[i]
				if i == 1 {
					r.benchSink = foldHidden{tails[i]}
				}
				if _, err := r.Phase1(); err != nil {
					t.Fatal(err)
				}
				is, ts, err := r.pairStats(pair, p1)
				if err != nil {
					t.Fatal(err)
				}
				cycles := r.cyclesFor(pair)
				sync, err := ptp.Sync(r.ctx.Clock(), r.dev.Sim(), r.cfg.PTP, r.rng)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.dev.SetApplicationsClocks(0, pair.InitMHz); err != nil {
					t.Fatal(err)
				}
				if err := r.ensureInitialClock(is, cycles, iterNsAt(cycles, pair.InitMHz)); err != nil {
					t.Fatal(err)
				}
				before := r.dev.Sim().IterCounts().Folded
				if _, _, err := r.benchmarkKernel(pair, cycles, iterNsAt(cycles, pair.InitMHz), ts, sync); err != nil {
					t.Fatal(err)
				}
				folds[i] = r.dev.Sim().IterCounts().Folded - before
				twins[i] = r
			}
			what := setup.name + ": " + pair.String()
			a, b := twins[0].detect, twins[1].detect
			if len(a.blocks) != len(b.blocks) || len(tails[0].n) != len(a.blocks) || len(tails[1].n) != len(b.blocks) {
				t.Fatalf("%s: %d blocks folded, %d per-iteration", what, len(a.blocks), len(b.blocks))
			}
			for i, va := range a.blocks {
				vb := b.blocks[i]
				if va.detected != vb.detected || va.teDevNs != vb.teDevNs || va.iterIndex != vb.iterIndex || tails[0].n[i] != tails[1].n[i] {
					t.Fatalf("%s: block %d folded %+v (tail %d), per-iteration %+v (tail %d)",
						what, i, va, tails[0].n[i], vb, tails[1].n[i])
				}
			}
			if folds[1] != 0 {
				t.Fatalf("%s: the per-iteration kernel folded %d iterations", what, folds[1])
			}
			for _, v := range a.blocks {
				if v.detected {
					detecting++
					break
				}
			}
			if folds[0] > 0 {
				foldedKernels++
			}
			folded += folds[0]
		}
	}
	t.Logf("%d of %d kernels with a detection folded %d tail iterations", foldedKernels, detecting, folded)
	if 2*foldedKernels < detecting {
		t.Fatalf("only %d of %d kernels with a detection folded their tails", foldedKernels, detecting)
	}
}

// TestBlocksZeroMeansAllSMs checks that Blocks 0 runs one block per SM
// on a device with more than eight SMs, as Config.Blocks documents: the
// phase-3 kernel evaluates every SM.
func TestBlocksZeroMeansAllSMs(t *testing.T) {
	const sms = 12
	dev := testDevice(t, fixedModel{bus: 50_000, dur: 5_000_000}, func(c *gpu.Config) { c.SMCount = sms })
	cfg := quickConfig(600, 1200)
	cfg.Blocks = 0
	r, err := NewRunner(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Config().Blocks; got != sms {
		t.Fatalf("Blocks 0 on a %d-SM device runs %d blocks, want all %d", sms, got, sms)
	}
	p1, err := r.Phase1()
	if err != nil {
		t.Fatal(err)
	}
	is, ts, err := r.pairStats(downSwitch, p1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.MeasureOnce(downSwitch, is, ts); err != nil {
		t.Fatal(err)
	}
	if got := len(r.detect.blocks); got != sms {
		t.Fatalf("phase 3 evaluated %d blocks, want %d", got, sms)
	}
}
