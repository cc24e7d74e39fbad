package hwprofile

import (
	"math"
	"slices"
	"sync"
	"testing"

	"golatest/internal/sim/clock"
	"golatest/internal/sim/gpu"
	"golatest/internal/stats"
)

func TestTable1Metadata(t *testing.T) {
	cases := []struct {
		p        Profile
		sms      int
		memMHz   float64
		minF     float64
		maxF     float64
		steps    int
		nom      float64
		arch     string
		evalFreq int
	}{
		{RTXQuadro6000(), 72, 7001, 300, 2100, 120, 1440, "Turing", 14},
		{A100(), 108, 1215, 210, 1410, 81, 1095, "Ampere", 18},
		{GH200(), 132, 2619, 345, 1980, 110, 1980, "Hopper", 18},
	}
	for _, c := range cases {
		cfg := c.p.Config
		if cfg.SMCount != c.sms {
			t.Errorf("%s: SMCount = %d, want %d", c.p.Key, cfg.SMCount, c.sms)
		}
		if cfg.MemFreqMHz != c.memMHz {
			t.Errorf("%s: MemFreqMHz = %v, want %v", c.p.Key, cfg.MemFreqMHz, c.memMHz)
		}
		if got := cfg.FreqsMHz[0]; got != c.minF {
			t.Errorf("%s: min clock = %v, want %v", c.p.Key, got, c.minF)
		}
		if got := cfg.FreqsMHz[len(cfg.FreqsMHz)-1]; got != c.maxF {
			t.Errorf("%s: max clock = %v, want %v", c.p.Key, got, c.maxF)
		}
		if got := len(cfg.FreqsMHz); got != c.steps {
			t.Errorf("%s: steps = %d, want %d", c.p.Key, got, c.steps)
		}
		if c.p.NomFreqMHz != c.nom {
			t.Errorf("%s: nominal = %v, want %v", c.p.Key, c.p.NomFreqMHz, c.nom)
		}
		if cfg.Architecture != c.arch {
			t.Errorf("%s: arch = %q", c.p.Key, cfg.Architecture)
		}
		if got := len(c.p.EvalFreqsMHz); got != c.evalFreq {
			t.Errorf("%s: eval freqs = %d, want %d", c.p.Key, got, c.evalFreq)
		}
	}
}

func TestEvalFreqsAreSupported(t *testing.T) {
	for _, p := range All() {
		for _, f := range p.EvalFreqsMHz {
			if !p.Config.SupportsFreq(f) {
				t.Errorf("%s: eval frequency %v not in clock table", p.Key, f)
			}
		}
	}
}

func TestProfilesConstructDevices(t *testing.T) {
	clk := clock.New()
	for _, p := range All() {
		if _, err := p.NewDevice(clk); err != nil {
			t.Errorf("%s: NewDevice: %v", p.Key, err)
		}
	}
}

func TestByKey(t *testing.T) {
	for _, key := range []string{"gh200", "a100", "rtx6000"} {
		p, err := ByKey(key)
		if err != nil || p.Key != key {
			t.Errorf("ByKey(%q) = %v, %v", key, p.Key, err)
		}
	}
	if _, err := ByKey("h100"); err == nil {
		t.Error("unknown key accepted")
	}
}

// sampleLatenciesMs draws n switching latencies (in ms) for a pair.
func sampleLatenciesMs(m *Model, init, target float64, n int, seed uint64) []float64 {
	r := clock.NewRand(seed, 99)
	out := make([]float64, n)
	for i := range out {
		tr := m.Sample(init, target, r)
		out[i] = float64(tr.BusDelayNs+tr.DurationNs) / 1e6
	}
	return out
}

func TestModelDeterministicPerStream(t *testing.T) {
	p := A100()
	m := p.Config.Latency.(*Model)
	a := sampleLatenciesMs(m, 1095, 705, 50, 7)
	b := sampleLatenciesMs(m, 1095, 705, 50, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestA100Calibration(t *testing.T) {
	m := A100().Config.Latency.(*Model)
	evals := A100().EvalFreqsMHz

	var mins, maxsDown, maxsUp []float64
	for _, init := range evals {
		for _, target := range evals {
			if init == target {
				continue
			}
			xs := sampleLatenciesMs(m, init, target, 200, 5)
			// Trim outliers crudely for calibration checks.
			lo, _ := stats.MinMax(xs)
			q99 := stats.Quantile(xs, 0.97)
			mins = append(mins, lo)
			if init > target {
				maxsDown = append(maxsDown, q99)
			} else {
				maxsUp = append(maxsUp, q99)
			}
		}
	}
	minSummary := stats.Summarize(mins)
	// Best-case floor: Table II reports 4.4–6.0 ms with mean ≈5.
	if minSummary.Min < 3.4 || minSummary.Min > 5.0 {
		t.Errorf("A100 best min = %v, want ≈4.4", minSummary.Min)
	}
	if minSummary.Mean < 4.2 || minSummary.Mean > 6.2 {
		t.Errorf("A100 best mean = %v, want ≈5", minSummary.Mean)
	}
	if minSummary.Max > 8 {
		t.Errorf("A100 best max = %v, want ≲6", minSummary.Max)
	}
	// Worst-case ceilings: down-transitions cap ≈20–22, up ≈13–17.
	downMean := stats.Mean(maxsDown)
	upMean := stats.Mean(maxsUp)
	if downMean <= upMean {
		t.Errorf("A100 down ceiling %v not above up ceiling %v", downMean, upMean)
	}
	if downMean < 12 || downMean > 24 {
		t.Errorf("A100 down ceiling mean = %v, want ≈17–21", downMean)
	}
	if upMean < 9 || upMean > 18 {
		t.Errorf("A100 up ceiling mean = %v, want ≈12–15", upMean)
	}
	// Everything stays well under 30 ms barring explicit outliers.
	allMax := math.Max(stats.Mean(maxsDown), stats.Summarize(maxsDown).Max)
	if allMax > 30 {
		t.Errorf("A100 ceiling reaches %v, want < 30", allMax)
	}
}

func TestGH200Calibration(t *testing.T) {
	p := GH200()
	m := p.Config.Latency.(*Model)
	evals := p.EvalFreqsMHz

	var floorVals []float64
	pathoMax := 0.0
	normalHighCells := 0
	normalPairs := 0
	for _, init := range evals {
		for _, target := range evals {
			if init == target {
				continue
			}
			xs := sampleLatenciesMs(m, init, target, 150, 9)
			min, _ := stats.MinMax(xs)
			// q97 stands in for the DBSCAN-filtered maximum: raw maxima
			// are dominated by the injected driver outliers by design.
			max := stats.Quantile(xs, 0.97)
			patho := (target >= 1240 && target <= 1300) || (target >= 1850 && target <= 1900)
			if patho {
				if max > pathoMax {
					pathoMax = max
				}
			} else {
				floorVals = append(floorVals, min)
				normalPairs++
				if max > 90 {
					normalHighCells++
				}
			}
		}
	}
	fs := stats.Summarize(floorVals)
	if fs.Median < 4.8 || fs.Median > 7.0 {
		t.Errorf("GH200 floor median = %v, want ≈5.2–6.5", fs.Median)
	}
	if pathoMax < 240 {
		t.Errorf("GH200 pathological ceiling = %v, want ≥ 245", pathoMax)
	}
	// Scattered high cells exist but stay a small minority.
	frac := float64(normalHighCells) / float64(normalPairs)
	if frac < 0.02 || frac > 0.25 {
		t.Errorf("GH200 sporadic high-cell share = %v, want ≈0.08", frac)
	}
}

func TestGH200PathologicalPairMultiCluster(t *testing.T) {
	// The Fig. 5 pair (1770→1260) must span several separated lobes.
	m := GH200().Config.Latency.(*Model)
	xs := sampleLatenciesMs(m, 1770, 1260, 300, 11)
	s := stats.Summarize(xs)
	if s.Max < 200 {
		t.Fatalf("pathological pair max = %v, want ≥ 245-ish", s.Max)
	}
	if s.Max-s.Min < 100 {
		t.Fatalf("pathological pair span = %v, want wide multi-lobe", s.Max-s.Min)
	}
}

func TestRTXCalibrationBands(t *testing.T) {
	p := RTXQuadro6000()
	m := p.Config.Latency.(*Model)

	medianFor := func(target float64) float64 {
		xs := sampleLatenciesMs(m, 1290, target, 150, 13)
		return stats.Median(xs)
	}
	if got := medianFor(750); got < 10 || got > 30 {
		t.Errorf("RTX fast band median = %v, want ≈15–23", got)
	}
	if got := medianFor(930); got < 200 || got > 260 {
		t.Errorf("RTX hot band median = %v, want ≈237", got)
	}
	if got := medianFor(1110); got < 100 || got > 160 {
		t.Errorf("RTX mid band median = %v, want ≈135", got)
	}
	if got := medianFor(1650); got < 10 || got > 45 {
		t.Errorf("RTX fast-high band median = %v, want ≈15–40", got)
	}
}

func TestRTXSubMillisecondMinExists(t *testing.T) {
	// Table II best-case min is 0.558 ms: some mid-band pair must
	// occasionally dip below ~2 ms.
	p := RTXQuadro6000()
	m := p.Config.Latency.(*Model)
	best := math.Inf(1)
	for _, init := range p.EvalFreqsMHz {
		for _, target := range p.EvalFreqsMHz {
			if init == target || target < 1030 || target > 1570 {
				continue
			}
			xs := sampleLatenciesMs(m, init, target, 120, 17)
			if min, _ := stats.MinMax(xs); min < best {
				best = min
			}
		}
	}
	if best > 5 {
		t.Fatalf("RTX best-ever minimum = %v ms, want sub-5 ms lobe to exist", best)
	}
}

func TestInstanceVariabilityBoundedAndStructureShared(t *testing.T) {
	// Across the four A100 units: the same pair must keep the same band
	// (structure shared), differ only by small offsets (Fig. 7/8), and
	// no single unit dominates (Fig. 9).
	var medians [4][]float64
	evals := A100().EvalFreqsMHz[:8]
	for idx := 0; idx < 4; idx++ {
		m := A100Instance(idx).Config.Latency.(*Model)
		for _, init := range evals {
			for _, target := range evals {
				if init == target {
					continue
				}
				xs := sampleLatenciesMs(m, init, target, 80, 23)
				medians[idx] = append(medians[idx], stats.Median(xs))
			}
		}
	}
	worstCount := make([]int, 4)
	for pairIdx := range medians[0] {
		lo, hi := medians[0][pairIdx], medians[0][pairIdx]
		worst := 0
		for idx := 1; idx < 4; idx++ {
			v := medians[idx][pairIdx]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
				worst = idx
			}
		}
		if hi-lo > 6 {
			t.Fatalf("pair %d: instance spread %v ms too large", pairIdx, hi-lo)
		}
		worstCount[worst]++
	}
	for idx, c := range worstCount {
		if c > len(medians[0])*3/4 {
			t.Fatalf("instance %d is worst on %d/%d pairs: systematic bias", idx, c, len(medians[0]))
		}
	}
}

func TestSampleNeverNegative(t *testing.T) {
	r := clock.NewRand(1, 1)
	for _, p := range All() {
		m := p.Config.Latency.(*Model)
		for i := 0; i < 2000; i++ {
			init := p.EvalFreqsMHz[i%len(p.EvalFreqsMHz)]
			target := p.EvalFreqsMHz[(i*7+3)%len(p.EvalFreqsMHz)]
			tr := m.Sample(init, target, r)
			if tr.BusDelayNs < 0 || tr.DurationNs < 0 {
				t.Fatalf("%s: negative transition %+v", p.Key, tr)
			}
			if tr.BusDelayNs == 0 && tr.DurationNs == 0 {
				t.Fatalf("%s: zero transition", p.Key)
			}
		}
	}
}

func TestNormalizeWeights(t *testing.T) {
	modes := normalizeWeights([]Mode{
		{MeanMs: 1, Weight: 2},
		{MeanMs: 2, Weight: 0},
		{MeanMs: 3, Weight: 6},
	})
	if len(modes) != 2 {
		t.Fatalf("zero-weight mode kept: %+v", modes)
	}
	if math.Abs(modes[0].Weight-0.25) > 1e-12 || math.Abs(modes[1].Weight-0.75) > 1e-12 {
		t.Fatalf("weights = %+v", modes)
	}
}

func TestPairHashProperties(t *testing.T) {
	// Determinism and salt independence.
	if pairHash(1, 100, 200, 5) != pairHash(1, 100, 200, 5) {
		t.Fatal("pairHash not deterministic")
	}
	if pairHash(1, 100, 200, 5) == pairHash(1, 100, 200, 6) {
		t.Fatal("salts collide")
	}
	if pairHash(1, 100, 200, 5) == pairHash(1, 200, 100, 5) {
		t.Fatal("pair direction ignored")
	}
	// Rough uniformity.
	var sum float64
	const n = 10000
	for i := 0; i < n; i++ {
		v := pairHash(7, float64(i), float64(i*3), 9)
		if v < 0 || v >= 1 {
			t.Fatalf("hash out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("hash mean = %v, want ≈0.5", mean)
	}
}

// TestModelClassifiesEachPairOnce: Sample classifies a pair on its first
// draw only, and the memoised mixture gives the draws a fresh Classify
// would.
func TestModelClassifiesEachPairOnce(t *testing.T) {
	ref := a100Model(3, 0)
	calls := map[[2]float64]int{}
	m := &Model{
		BusDelayMeanNs:   ref.BusDelayMeanNs,
		BusDelayJitterNs: ref.BusDelayJitterNs,
		Classify: func(init, target float64) PairDist {
			calls[[2]float64{init, target}]++
			return ref.Classify(init, target)
		},
	}
	r, want := clock.NewRand(5, 0), clock.NewRand(5, 0)
	pairs := [][2]float64{{1410, 705}, {705, 1410}, {1410, 705}}
	for round := 0; round < 4; round++ {
		for _, p := range pairs {
			got := m.Sample(p[0], p[1], r)
			fresh := &Model{BusDelayMeanNs: ref.BusDelayMeanNs, BusDelayJitterNs: ref.BusDelayJitterNs, Classify: ref.Classify}
			if w := fresh.Sample(p[0], p[1], want); got != w {
				t.Fatalf("round %d pair %v: memoised draw %+v, fresh %+v", round, p, got, w)
			}
		}
	}
	for p, n := range calls {
		if n != 1 {
			t.Errorf("pair %v classified %d times", p, n)
		}
	}
	if len(calls) != 2 {
		t.Errorf("%d pairs classified, want 2", len(calls))
	}
}

// TestModelSamplesConcurrently draws from one model in several
// goroutines at once, as a chip's replicas do, so the race detector
// sees the Classify memo, and checks every draw against a serial one.
func TestModelSamplesConcurrently(t *testing.T) {
	m := gh200Model(9, 0)
	pairs := [][2]float64{{1980, 705}, {705, 1980}, {1095, 1260}, {1260, 1875}}
	draw := func(seed uint64) []gpu.Transition {
		r := clock.NewRand(seed, 0)
		var out []gpu.Transition
		for i := 0; i < 50; i++ {
			p := pairs[i%len(pairs)]
			out = append(out, m.Sample(p[0], p[1], r))
		}
		return out
	}
	const workers = 8
	var got [workers][]gpu.Transition
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = draw(uint64(w))
		}()
	}
	wg.Wait()
	for w := range workers {
		if want := draw(uint64(w)); !slices.Equal(got[w], want) {
			t.Fatalf("worker %d: concurrent draws differ from serial ones", w)
		}
	}
}
