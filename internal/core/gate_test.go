package core

import (
	"math"
	"sort"
	"testing"

	"golatest/internal/sim/clock"
	"golatest/internal/sim/gpu"
	"golatest/internal/stats"
)

// gateHidden keeps a TailFolder's fold and hides its gate: its band
// holds every duration, so the device neither skips a segment nor thins
// one, and delivers every iteration before the tail.
type gateHidden struct{ gpu.TailFolder }

func (gateHidden) Band(block int) (loNs, hiNs float64) { return math.Inf(-1), math.Inf(1) }

// gateDevice is one device and pair of the gate's distribution test.
type gateDevice struct {
	name       string
	model      pairModel
	mutate     func(*gpu.Config)
	config     func(*Config)
	pair       Pair
	targetMean float64 // target population mean, ms
	targetStd  float64 // target population standard deviation, ms
	// minEarly is the least share of ungated kernels in which some block
	// detects before the transition completes.
	minEarly float64
	// maxOneByOne, when positive, bounds the iterations the gated twins
	// simulate one by one, as a share of the ungated twins' count.
	maxOneByOne float64
}

// gateDevices are the three devices of
// TestGatedDetectionMatchesInDistribution.
//
// The near pair switches 1039 → 1000 MHz in 30 ms on a device with 1%
// iteration jitter: initial-clock iterations last 144.37 µs, target ones
// 150 µs. Its target population (mean 150 µs, deviation 0.1 µs, so a
// ±0.2 µs band that holds the single timer value 150 µs) is the kind of
// population phase 1's pair guard rejects: the band lies 3.76σ from the
// initial clock's mean, so its iterations reach the band now and then,
// and some block of roughly one kernel in seven detects early. That is
// within the gate's trusted jitter and must stay heard; a gate that
// trusted only 3σ would skip it. Only the initial clock's upper jitter
// tail can reach the band, so the device delivers only those
// candidates: the gated twin must simulate under a tenth of the
// ungated twin's iterations one by one.
//
// The lower near pair mirrors it: it switches 961 → 1000 MHz, so
// initial-clock iterations last 150 µs and target ones 144.15 µs, and its
// band (mean 144.15 µs, ±0.2 µs, holding the timer value 144 µs) lies
// 3.77σ below the initial clock's mean: its candidates lie in the lower
// jitter tail.
//
// The ramp device climbs 600 → 1200 MHz through 16 steps in 10 ms. Its
// 9σ band reaches the last ramp steps, so every block detects mid-ramp,
// and with a short capture window and 30 confirmation iterations about
// a fifth of the blocks confirm. The steps far from the band, and the
// initial clock, are skipped.
func gateDevices() []gateDevice {
	return []gateDevice{{
		name:  "near pair",
		model: pairModel{upNs: 30_000_000, downNs: 30_000_000},
		mutate: func(c *gpu.Config) {
			c.FreqsMHz = []float64{600, 1000, 1039, 1200}
			c.IterJitterSigma = 0.01
		},
		config:      func(c *Config) { c.MaxLatencyHintNs = 40_000_000 },
		pair:        Pair{InitMHz: 1039, TargetMHz: 1000},
		targetMean:  0.150,
		targetStd:   0.0001,
		minEarly:    0.01,
		maxOneByOne: 0.1,
	}, {
		name:  "lower near pair",
		model: pairModel{upNs: 30_000_000, downNs: 30_000_000},
		mutate: func(c *gpu.Config) {
			c.FreqsMHz = []float64{600, 961, 1000, 1200}
			c.IterJitterSigma = 0.01
		},
		config:      func(c *Config) { c.MaxLatencyHintNs = 40_000_000 },
		pair:        Pair{InitMHz: 961, TargetMHz: 1000},
		targetMean:  0.14415,
		targetStd:   0.0001,
		minEarly:    0.01,
		maxOneByOne: 0.1,
	}, {
		name:  "ramp",
		model: pairModel{upNs: 10_000_000, downNs: 5_000_000},
		mutate: func(c *gpu.Config) {
			c.RampSteps = 16
		},
		config: func(c *Config) {
			c.MaxLatencyHintNs = 8_000_000
			c.SigmaK = 9
			c.ConfirmIters = 30
		},
		pair:       Pair{InitMHz: 600, TargetMHz: 1200},
		targetMean: 0.075,
		// The quantised target population: 0.25% jitter on 75 µs and a
		// 1 µs timer.
		targetStd: math.Sqrt(0.0025*75*0.0025*75+1.0/6) / 1000,
	}}
}

// gateOutcome is one block's phase-3 outcome in the gate test.
type gateOutcome struct {
	detected, confirmed, early bool
	iterIndex                  int
	latencyMs                  float64
}

// runGated measures dev's pair once on a fresh device seeded with seed,
// with the sink's gate or, with hide, without it, and returns each
// block's outcome (nil when the warm-up did not settle) and how many
// iterations the measurement simulated one by one. early marks a
// detection that ended before the transition completed: on a near pair,
// one at the initial clock.
func runGated(t *testing.T, dev gateDevice, seed uint64, hide bool) ([]gateOutcome, int64) {
	t.Helper()
	cfg := quickConfig(dev.pair.InitMHz, dev.pair.TargetMHz)
	dev.config(&cfg)
	r, err := NewRunner(testDevice(t, dev.model, func(c *gpu.Config) {
		dev.mutate(c)
		c.Seed = seed
	}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hide {
		r.benchSink = gateHidden{r.detect}
	}
	cycles := r.cyclesFor(dev.pair)
	initStat := stats.MeanStd{N: 900, Mean: iterNsAt(cycles, dev.pair.InitMHz) / 1e6, Std: 0.001}
	targetStat := stats.MeanStd{N: 900, Mean: dev.targetMean, Std: dev.targetStd}
	before := r.dev.Sim().IterCounts().OneByOne
	_, err = r.MeasureOnce(dev.pair, initStat, targetStat)
	oneByOne := r.dev.Sim().IterCounts().OneByOne - before
	if err == errInitUnstable {
		return nil, oneByOne
	}
	if err != nil && err != errNoDetection && err != errConfirmFailed {
		t.Fatal(err)
	}
	inj, _ := r.dev.Sim().LastInjection()
	complete := r.dev.Sim().DeviceTimeAt(inj.CompleteNs)
	out := make([]gateOutcome, len(r.detect.blocks))
	for i, v := range r.detect.blocks {
		out[i] = gateOutcome{
			detected:  v.detected,
			confirmed: v.confirmed,
			early:     v.detected && v.teDevNs <= complete,
			iterIndex: v.iterIndex,
			latencyMs: float64(v.teDevNs-r.detect.tsDevNs) / 1e6,
		}
	}
	return out, oneByOne
}

// ksDistance returns the two-sample Kolmogorov–Smirnov statistic of a
// and b, which it sorts.
func ksDistance(a, b []float64) float64 {
	sort.Float64s(a)
	sort.Float64s(b)
	var d float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x := math.Min(a[i], b[j])
		for i < len(a) && a[i] == x {
			i++
		}
		for j < len(b) && b[j] == x {
			j++
		}
		d = math.Max(d, math.Abs(float64(i)/float64(len(a))-float64(j)/float64(len(b))))
	}
	return d
}

// TestGatedDetectionMatchesInDistribution checks that skipping the
// clock segments a detector cannot hear, and thinning those it hears to
// their candidates, leaves phase 3's outcome equal in distribution.
// Over 2000 device seeds of three devices, one benchmark kernel runs
// with the gate and, from the same seed, with the gate hidden. Per
// block, the detect, early-detect and confirm rates must match within 4
// standard errors of their paired differences, the mean latency of
// detecting blocks within 4 standard errors, and the detection's
// iteration index must pass a two-sample KS test at α = 0.001. The near
// pairs' ungated kernels must detect early in at least 1%, so a gate
// that skips iterations within its trusted jitter, or a thinning that
// draws its candidates from the wrong tail or too rarely, fails the
// early-detect rate, the latency and the KS test.
func TestGatedDetectionMatchesInDistribution(t *testing.T) {
	const seeds = 2000
	for _, dev := range gateDevices() {
		var dDetect, dEarly, dConfirm stats.Accumulator
		var lat [2]stats.Accumulator // gated, ungated
		var idx [2][]float64
		var rates [2][3]int // detected, early, confirmed blocks
		kernels, earlyKernels, unsettled := 0, 0, 0
		var oneByOne [2]int64 // gated, ungated
		for seed := uint64(1); seed <= seeds; seed++ {
			g, gn := runGated(t, dev, seed, false)
			u, un := runGated(t, dev, seed, true)
			oneByOne[0] += gn
			oneByOne[1] += un
			if g == nil || u == nil {
				if (g == nil) != (u == nil) {
					t.Fatalf("%s, seed %d: the warm-up settled on one twin only", dev.name, seed)
				}
				unsettled++
				continue
			}
			kernels++
			anyEarly := false
			for b := range g {
				for i, o := range []gateOutcome{g[b], u[b]} {
					for k, on := range []bool{o.detected, o.early, o.confirmed} {
						if on {
							rates[i][k]++
						}
					}
					if o.detected {
						lat[i].Add(o.latencyMs)
						idx[i] = append(idx[i], float64(o.iterIndex))
					}
				}
				anyEarly = anyEarly || u[b].early
				dDetect.Add(b2f(g[b].detected) - b2f(u[b].detected))
				dEarly.Add(b2f(g[b].early) - b2f(u[b].early))
				dConfirm.Add(b2f(g[b].confirmed) - b2f(u[b].confirmed))
			}
			if anyEarly {
				earlyKernels++
			}
		}
		if kernels < seeds*9/10 {
			t.Fatalf("%s: only %d of %d warm-ups settled", dev.name, kernels, seeds)
		}
		blocks := dDetect.N()
		for _, c := range []struct {
			what string
			k    int
			diff *stats.Accumulator
		}{{"detect", 0, &dDetect}, {"early-detect", 1, &dEarly}, {"confirm", 2, &dConfirm}} {
			d := c.diff.MeanStd()
			se := d.Std / math.Sqrt(float64(d.N))
			if math.Abs(d.Mean) > 4*se+1e-12 {
				t.Errorf("%s: %s rate gated %.4f, ungated %.4f: difference exceeds 4 standard errors (%.4f)",
					dev.name, c.what, frac(rates[0][c.k], blocks), frac(rates[1][c.k], blocks), 4*se)
			}
		}
		g, u := lat[0].MeanStd(), lat[1].MeanStd()
		se := math.Sqrt(g.Std*g.Std/float64(g.N) + u.Std*u.Std/float64(u.N))
		if math.Abs(g.Mean-u.Mean) > 4*se {
			t.Errorf("%s: mean latency of detecting blocks gated %.4f ms, ungated %.4f ms: difference exceeds 4 standard errors (%.4f ms)",
				dev.name, g.Mean, u.Mean, 4*se)
		}
		n, m := float64(len(idx[0])), float64(len(idx[1]))
		ks := ksDistance(idx[0], idx[1])
		if crit := 1.95 * math.Sqrt((n+m)/(n*m)); ks > crit {
			t.Errorf("%s: iteration index KS distance %.4f exceeds %.4f (α = 0.001)", dev.name, ks, crit)
		}
		if got := frac(earlyKernels, kernels); got < dev.minEarly {
			t.Errorf("%s: %.4f of ungated kernels detect early, want at least %.2f", dev.name, got, dev.minEarly)
		}
		share := float64(oneByOne[0]) / float64(oneByOne[1])
		if dev.maxOneByOne > 0 && share >= dev.maxOneByOne {
			t.Errorf("%s: the gated twins simulate %d iterations one by one, %.3f of the ungated twins' %d; want under %.2f",
				dev.name, oneByOne[0], share, oneByOne[1], dev.maxOneByOne)
		}
		t.Logf("%s: %d kernels (%d unsettled), %d blocks; detect %.4f/%.4f, early %.4f/%.4f (kernels %.4f), confirm %.4f/%.4f; latency %.4f/%.4f ms; KS %.4f; one by one %d/%d (%.3f)",
			dev.name, kernels, unsettled, blocks,
			frac(rates[0][0], blocks), frac(rates[1][0], blocks),
			frac(rates[0][1], blocks), frac(rates[1][1], blocks), frac(earlyKernels, kernels),
			frac(rates[0][2], blocks), frac(rates[1][2], blocks), g.Mean, u.Mean, ks,
			oneByOne[0], oneByOne[1], share)
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func frac(n, of int) float64 { return float64(n) / float64(of) }

// uniformModel draws each transition's duration uniformly from [lo, hi).
type uniformModel struct{ lo, hi int64 }

func (m uniformModel) Sample(init, target float64, r *clock.Rand) gpu.Transition {
	return gpu.Transition{BusDelayNs: 40_000, DurationNs: m.lo + int64(r.Float64()*float64(m.hi-m.lo))}
}

// TestWarmupFoldMatchesInDistribution checks that folding the warm-up
// check's tail window leaves the check's outcome equal in distribution.
// Over 2000 device seeds, twin runners settle at 600 MHz after a
// transition from 1500 MHz lasting 20–70 ms, against warm kernels of
// about 86 ms (at 600 MHz) whose last 100 iterations the check reads:
// one folds the window, the other reads it one iteration at a time. The number of
// rounds ensureInitialClock takes (the first round passes for about
// half the seeds) and its pass rate must match within 4 standard errors
// of their paired differences, and the last round's window mean must
// match within 4 standard errors with a variance ratio within
// [0.8, 1.25].
func TestWarmupFoldMatchesInDistribution(t *testing.T) {
	const seeds = 2000
	run := func(seed uint64, unfold bool) (rounds int, pass bool, mean float64, folded int64) {
		t.Helper()
		cfg := quickConfig(600, 1500)
		cfg.MaxLatencyHintNs = 20_000_000
		r, err := NewRunner(testDevice(t, uniformModel{lo: 20_000_000, hi: 70_000_000}, func(c *gpu.Config) {
			c.Seed = seed
		}), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if unfold {
			r.warmSink = unfolded{r.tails}
		}
		if err := r.dev.SetApplicationsClocks(0, 600); err != nil {
			t.Fatal(err)
		}
		cycles := r.cyclesFor(Pair{InitMHz: 600, TargetMHz: 1500})
		iterNs := iterNsAt(cycles, 600)
		sim := r.dev.Sim()
		before := sim.IterCounts()
		err = r.ensureInitialClock(stats.MeanStd{N: 900, Mean: iterNs / 1e6, Std: 0.001}, cycles, iterNs)
		if err != nil && err != errInitUnstable {
			t.Fatal(err)
		}
		after := sim.IterCounts()
		iters := after.OneByOne + after.Skipped + after.Folded - before.OneByOne - before.Skipped - before.Folded
		warmIters := int64(1.2*float64(r.effectiveCaptureNs())+50e6)/int64(iterNs) + 1
		_, mean = r.tails.BlockTail(0)
		return int(iters / (warmIters * int64(r.cfg.Blocks))), err == nil, mean, after.Folded - before.Folded
	}
	var dRounds, dPass, dMean stats.Accumulator
	var means [2]stats.Accumulator
	var firstPass [2]int
	var folded int64
	for seed := uint64(1); seed <= seeds; seed++ {
		fr, fp, fm, ff := run(seed, false)
		ur, up, um, uf := run(seed, true)
		if uf != 0 {
			t.Fatalf("seed %d: the per-iteration twin folded %d iterations", seed, uf)
		}
		folded += ff
		dRounds.Add(float64(fr - ur))
		dPass.Add(b2f(fp) - b2f(up))
		for i, r := range []int{fr, ur} {
			if r == 1 {
				firstPass[i]++
			}
		}
		if fp && up {
			means[0].Add(fm)
			means[1].Add(um)
			dMean.Add(fm - um)
		}
	}
	for _, c := range []struct {
		what string
		diff *stats.Accumulator
	}{{"rounds", &dRounds}, {"pass rate", &dPass}, {"window mean", &dMean}} {
		d := c.diff.MeanStd()
		if se := d.Std / math.Sqrt(float64(d.N)); math.Abs(d.Mean) > 4*se+1e-15 {
			t.Errorf("%s: mean folded − per-iteration difference %.6g exceeds 4 standard errors (%.6g)", c.what, d.Mean, 4*se)
		}
	}
	ratio := math.Pow(means[0].MeanStd().Std/means[1].MeanStd().Std, 2)
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("window mean variance ratio %.3f outside [0.8, 1.25]", ratio)
	}
	p := frac(firstPass[1], seeds)
	if p < 0.2 || p > 0.8 {
		t.Errorf("per-iteration first-round pass rate %.3f outside [0.2, 0.8]: the test does not exercise the check", p)
	}
	if folded == 0 {
		t.Error("no warm-up window folded")
	}
	t.Logf("first-round pass folded %.4f, per-iteration %.4f; window mean variance ratio %.3f; %d iterations folded",
		frac(firstPass[0], seeds), p, ratio, folded)
}
