// Benchmarks regenerating every table and figure of the paper's
// evaluation (the generators table in cmd/experiments maps each artefact
// to the code that produces it). Each benchmark runs the full pipeline
// behind its artefact at quick scale; the printed metrics summarise the
// artefact so `go test -bench` output doubles as a compact reproduction
// report.
package golatest

import (
	"math"
	"net/http/httptest"
	"testing"

	"golatest/internal/core"
	"golatest/internal/experiments"
	"golatest/internal/store"
	"golatest/internal/storenet"
)

// benchSuite is shared across benchmarks: campaigns cache within one
// suite, so each artefact's incremental cost is what the benchmark
// reports after the first iteration warms the cache.
var benchSuite = experiments.NewSuite(experiments.Options{
	Scale: experiments.ScaleQuick,
	Seed:  7,
})

func freshSuite(i int) *experiments.Suite {
	return experiments.NewSuite(experiments.Options{
		Scale: experiments.ScaleQuick,
		Seed:  uint64(1000 + i),
	})
}

// campaignSweepConfig is the shared configuration of the campaign-sweep
// benchmarks: a five-clock A100 sweep (20 ordered pairs) sized so one
// iteration runs in seconds.
func campaignSweepConfig() Config {
	return Config{
		Frequencies:      []float64{705, 885, 1065, 1215, 1410},
		Blocks:           3,
		MinMeasurements:  12,
		MaxMeasurements:  24,
		RSECheckEvery:    6,
		MaxLatencyHintNs: 120_000_000,
		Seed:             17,
	}
}

// BenchmarkCampaignSweep runs the full campaign, its pairs fanned out
// over the measurement-step pool. Results are bit-for-bit identical at
// every GOMAXPROCS, so running it at -cpu 1,N measures the sweep's
// parallel speedup.
func BenchmarkCampaignSweep(b *testing.B) {
	p, err := ProfileByKey("a100")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(p, campaignSweepConfig())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Pairs) != 20 {
			b.Fatalf("pairs = %d, want 20", len(res.Pairs))
		}
	}
}

// BenchmarkPhase1Warmup isolates the phase-1 characterisation whose warm
// kernels stream through Welford sinks instead of materialising
// [][]IterSample; allocs/op tracks that saving. Device construction is
// hoisted out of the loop so the counters cover the warm-up path alone.
func BenchmarkPhase1Warmup(b *testing.B) {
	p, err := ProfileByKey("a100")
	if err != nil {
		b.Fatal(err)
	}
	dev, err := Open(p)
	if err != nil {
		b.Fatal(err)
	}
	r, err := dev.NewRunner(campaignSweepConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p1, err := r.Phase1()
		if err != nil {
			b.Fatal(err)
		}
		if len(p1.ValidPairs) == 0 {
			b.Fatal("no valid pairs")
		}
	}
}

// BenchmarkSuiteCampaignCold measures a suite campaign that misses the
// persistent store: the full compute plus the write-through. Paired with
// BenchmarkSuiteCampaignWarm it quantifies what the content-addressed
// store buys a repeated sweep (warm ≈ one blob decode).
func BenchmarkSuiteCampaignCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := store.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		s := experiments.NewSuite(experiments.Options{
			Scale: experiments.ScaleQuick, Seed: 7, Store: st,
		})
		b.StartTimer()
		res, err := s.CampaignByKey("a100")
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Pairs) == 0 {
			b.Fatal("empty campaign")
		}
	}
}

// BenchmarkSuiteCampaignWarm measures the same campaign served entirely
// from the store: a fresh suite per iteration, so every access is a real
// disk read and blob decode, never the in-process cache.
func BenchmarkSuiteCampaignWarm(b *testing.B) {
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	opts := experiments.Options{Scale: experiments.ScaleQuick, Seed: 7, Store: st}
	if _, err := experiments.NewSuite(opts).CampaignByKey("a100"); err != nil {
		b.Fatal(err) // prewarm the store
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.NewSuite(opts).CampaignByKey("a100")
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Pairs) == 0 {
			b.Fatal("empty campaign")
		}
	}
	if c := st.Counters(); c.Misses > 1 || c.Puts > 1 {
		b.Fatalf("warm benchmark recomputed: %+v", c)
	}
}

// BenchmarkSuiteCampaignRemoteWarm measures the same campaign served
// over the network: a stored daemon on a loopback listener fronts the
// prewarmed store, and each iteration's fresh suite uses a cache-less
// storenet.Client, so every access is a real HTTP round trip plus blob
// decode — the cost a remote warm Get adds over a local one, and what
// cross-host fleets pay when their local tier is cold. Paired with
// BenchmarkSuiteCampaignCold it yields remote_warm_speedup in
// bench_smoke.sh.
func BenchmarkSuiteCampaignRemoteWarm(b *testing.B) {
	backing, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	warm := experiments.Options{Scale: experiments.ScaleQuick, Seed: 7, Store: backing}
	if _, err := experiments.NewSuite(warm).CampaignByKey("a100"); err != nil {
		b.Fatal(err) // prewarm the daemon's store
	}
	srv := httptest.NewServer(storenet.NewServer(backing))
	defer srv.Close()
	client, err := storenet.NewClient(srv.URL, storenet.ClientOptions{})
	if err != nil {
		b.Fatal(err)
	}
	opts := experiments.Options{Scale: experiments.ScaleQuick, Seed: 7, Store: client}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.NewSuite(opts).CampaignByKey("a100")
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Pairs) == 0 {
			b.Fatal("empty campaign")
		}
	}
	if c := client.Counters(); c.Misses > 0 || c.Puts > 0 || c.Corrupt > 0 {
		b.Fatalf("remote warm benchmark recomputed: %+v", c)
	}
}

// BenchmarkTable1Hardware regenerates Table I (hardware setup).
func BenchmarkTable1Hardware(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1()
		if len(rows) != 3 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkTable2Summary regenerates Table II (best/worst-case switching
// latency summaries for the three GPUs), one full three-campaign sweep
// per iteration.
func BenchmarkTable2Summary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := freshSuite(i).Table2()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("%s worst: min %.3f mean %.3f max %.3f | best: min %.3f mean %.3f max %.3f",
					r.Model, r.WorstMinMs, r.WorstMeanMs, r.WorstMaxMs,
					r.BestMinMs, r.BestMeanMs, r.BestMaxMs)
			}
		}
	}
}

// BenchmarkFig1CPUTrace regenerates the Fig. 1 CPU transition trace.
func BenchmarkFig1CPUTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		trace, err := experiments.Fig1CPUTrace()
		if err != nil {
			b.Fatal(err)
		}
		if len(trace) < 3 {
			b.Fatal("trace too short")
		}
	}
}

// BenchmarkFig2ACCTrace regenerates the Fig. 2 CPU→ACC request trace.
func BenchmarkFig2ACCTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		trace, err := experiments.Fig2GPUTrace()
		if err != nil {
			b.Fatal(err)
		}
		if len(trace) < 3 {
			b.Fatal("trace too short")
		}
	}
}

func benchHeatmap(b *testing.B, key string, agg experiments.Agg) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		h, err := benchSuite.Fig3Heatmap(key, agg)
		if err != nil {
			b.Fatal(err)
		}
		min, max, _, _ := h.MinMax()
		if math.IsNaN(min) || math.IsNaN(max) {
			b.Fatal("empty heatmap")
		}
		if i == 0 {
			b.Logf("%s %s heatmap: min %.3f max %.3f mean %.3f", key, agg, min, max, h.Mean())
		}
	}
}

// BenchmarkFig3aGH200Min regenerates the GH200 minimum-latency heatmap.
func BenchmarkFig3aGH200Min(b *testing.B) { benchHeatmap(b, "gh200", experiments.AggMin) }

// BenchmarkFig3bGH200Max regenerates the GH200 maximum-latency heatmap.
func BenchmarkFig3bGH200Max(b *testing.B) { benchHeatmap(b, "gh200", experiments.AggMax) }

// BenchmarkFig3cA100Max regenerates the A100 maximum-latency heatmap.
func BenchmarkFig3cA100Max(b *testing.B) { benchHeatmap(b, "a100", experiments.AggMax) }

// BenchmarkFig3dRTXMax regenerates the RTX Quadro 6000 maximum heatmap.
func BenchmarkFig3dRTXMax(b *testing.B) { benchHeatmap(b, "rtx6000", experiments.AggMax) }

// BenchmarkFig4Violins regenerates the direction-split violin panels.
func BenchmarkFig4Violins(b *testing.B) {
	for i := 0; i < b.N; i++ {
		panels, err := benchSuite.Fig4Violins()
		if err != nil {
			b.Fatal(err)
		}
		if len(panels) != 3 {
			b.Fatal("missing panels")
		}
	}
}

// BenchmarkFig5Scatter regenerates the multi-cluster scatter of the GH200
// 1770→1260 MHz pair.
func BenchmarkFig5Scatter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc, err := benchSuite.FigScatter("gh200", core.Pair{InitMHz: 1770, TargetMHz: 1260}, 120)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("1770→1260: %d samples, %d clusters, silhouette %.2f",
				len(sc.SamplesMs), sc.NumClusters, sc.Silhouette)
		}
	}
}

// BenchmarkFig6Scatter regenerates the single-cluster scatter of a
// non-pathological GH200 pair.
func BenchmarkFig6Scatter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc, err := benchSuite.FigScatter("gh200", core.Pair{InitMHz: 705, TargetMHz: 1095}, 120)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("705→1095: %d samples, %d clusters", len(sc.SamplesMs), sc.NumClusters)
		}
	}
}

// BenchmarkFig7MinRanges regenerates the Fig. 7 cross-unit minimum-range
// heatmap over four A100s.
func BenchmarkFig7MinRanges(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h, err := benchSuite.RangeHeatmap(experiments.AggMin)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("min-range mean %.3f ms", h.Mean())
		}
	}
}

// BenchmarkFig8MaxRanges regenerates the Fig. 8 cross-unit maximum-range
// heatmap.
func BenchmarkFig8MaxRanges(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h, err := benchSuite.RangeHeatmap(experiments.AggMax)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("max-range mean %.3f ms", h.Mean())
		}
	}
}

// BenchmarkFig9Boxplots regenerates the highest-spread box plots across
// the four A100 units.
func BenchmarkFig9Boxplots(b *testing.B) {
	for i := 0; i < b.N; i++ {
		boxes, err := benchSuite.Fig9Boxes(3)
		if err != nil {
			b.Fatal(err)
		}
		if len(boxes) != 12 {
			b.Fatalf("boxes = %d", len(boxes))
		}
	}
}

// BenchmarkClusterCensus regenerates the §VII-B cluster census.
func BenchmarkClusterCensus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := benchSuite.ClusterCensus()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("%s: single-cluster %.0f%%, max clusters %d",
					r.Model, 100*r.SingleClusterShare, r.MaxClusters)
			}
		}
	}
}

// BenchmarkCIDegeneration regenerates the §V-A confidence-interval
// degeneration study.
func BenchmarkCIDegeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CIDegeneration([]int{50, 400, 3200})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("n=%d: band %.4f µs, in-band %.1f%%, detect iters %.1f",
					r.N, r.BandUs, 100*r.InBandShare, r.MeanDetectIters)
			}
		}
	}
}

// BenchmarkAblations regenerates the design-choice ablations
// (transition shape, detection band, sync asymmetry) and the core-count
// study of the CI band at the ablations artefact's widths.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ramp, err := experiments.RampAblation([]int{0, 8}, 8)
		if err != nil {
			b.Fatal(err)
		}
		det, err := experiments.DetectionAblation(8)
		if err != nil {
			b.Fatal(err)
		}
		syn, err := experiments.SyncAblation([]float64{0, 800}, 8)
		if err != nil {
			b.Fatal(err)
		}
		cores, err := experiments.CoreCountStudy([]int{1, 4, 16, 64}, 10)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("ramp: step err %.3f ms vs 8-step err %.3f ms (discards %.2f)",
				ramp[0].MeanErrMs, ramp[1].MeanErrMs, ramp[1].FailShare)
			b.Logf("detection: 2σ accepts %.2f vs CI accepts %.2f",
				det[0].AcceptedShare, det[1].AcceptedShare)
			b.Logf("sync: 800 µs asymmetry shifts bias by %.3f ms",
				syn[0].MeanBiasMs-syn[1].MeanBiasMs)
			for _, r := range cores {
				b.Logf("cores %d: CI accepts %.2f vs 2σ accepts %.2f (phase-1 n %d)",
					r.Cores, r.CIAcceptedShare, r.SigmaAcceptedShare, r.Phase1N)
			}
		}
	}
}

// BenchmarkCPUvsGPU regenerates the headline CPU-vs-GPU scale comparison.
func BenchmarkCPUvsGPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := benchSuite.CPUvsGPU()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("%s: median %.3f ms, max %.3f ms", r.Platform, r.MedianMs, r.MaxMs)
			}
		}
	}
}
