package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"golatest/internal/core"
)

// suite is shared across tests in this package: campaigns are cached, so
// the expensive quick-scale sweeps run once per test binary.
var suite = NewSuite(Options{Scale: ScaleQuick, Seed: 2025})

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byModel := map[string]Table1Row{}
	for _, r := range rows {
		byModel[r.Model] = r
	}
	a100 := byModel["A100-SXM4[0]"]
	if a100.SMCount != 108 || a100.FreqSteps != 81 || a100.MemFreqMHz != 1215 {
		t.Fatalf("A100 row: %+v", a100)
	}
	gh := byModel["GH200"]
	if gh.SMCount != 132 || gh.MaxSMFreqMHz != 1980 || gh.MinSMFreqMHz != 345 {
		t.Fatalf("GH200 row: %+v", gh)
	}
	rtx := byModel["RTX Quadro 6000"]
	if rtx.FreqSteps != 120 || rtx.NomSMFreqMHz != 1440 {
		t.Fatalf("RTX row: %+v", rtx)
	}
	var buf bytes.Buffer
	if err := RenderTable1(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "| GH200 |") {
		t.Fatalf("render:\n%s", buf.String())
	}
}

func TestTable2Shape(t *testing.T) {
	rows, err := suite.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byModel := map[string]Table2Row{}
	for _, r := range rows {
		byModel[strings.Split(r.Model, "[")[0]] = r
	}
	a100 := byModel["A100-SXM4"]
	gh := byModel["GH200"]
	rtx := byModel["RTX Quadro 6000"]

	// Paper shape: A100 has the lowest worst-case ceiling (≤ ~30 ms),
	// GH200 the highest extreme, RTX between with a high mean.
	if a100.WorstMaxMs > 40 {
		t.Errorf("A100 worst max = %v, want ≲ 25", a100.WorstMaxMs)
	}
	if gh.WorstMaxMs < 200 {
		t.Errorf("GH200 worst max = %v, want ≥ 245-ish", gh.WorstMaxMs)
	}
	if rtx.WorstMaxMs < 150 {
		t.Errorf("RTX worst max = %v, want ≥ 200-ish", rtx.WorstMaxMs)
	}
	if !(a100.WorstMaxMs < rtx.WorstMaxMs && a100.WorstMaxMs < gh.WorstMaxMs) {
		t.Errorf("A100 not the lowest ceiling: %v vs rtx %v gh %v",
			a100.WorstMaxMs, rtx.WorstMaxMs, gh.WorstMaxMs)
	}
	// Best-case floors: A100 ≈ 4.4–6 ms, GH200 ≈ 5–6.5 ms.
	if a100.BestMinMs < 3.5 || a100.BestMinMs > 7 {
		t.Errorf("A100 best min = %v", a100.BestMinMs)
	}
	if gh.BestMinMs < 4.5 || gh.BestMinMs > 8 {
		t.Errorf("GH200 best min = %v", gh.BestMinMs)
	}

	var buf bytes.Buffer
	if err := RenderTable2(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "worst") || !strings.Contains(buf.String(), "best") {
		t.Fatalf("render:\n%s", buf.String())
	}
}

func TestFig3HeatmapsShape(t *testing.T) {
	// GH200 min heatmap: floor cells ≈5–7 ms dominate.
	hMin, err := suite.Fig3Heatmap("gh200", AggMin)
	if err != nil {
		t.Fatal(err)
	}
	min, _, _, _ := hMin.MinMax()
	if min < 4.5 || min > 7.5 {
		t.Errorf("GH200 min-heatmap floor = %v", min)
	}

	// GH200 max heatmap: the pathological columns (1260, 1875) dominate.
	hMax, err := suite.Fig3Heatmap("gh200", AggMax)
	if err != nil {
		t.Fatal(err)
	}
	_, max, _, maxPair := hMax.MinMax()
	if max < 200 {
		t.Errorf("GH200 max-heatmap peak = %v", max)
	}
	if tgt := maxPair[1]; tgt != 1260 && tgt != 1875 {
		t.Errorf("GH200 peak at target %v, want a pathological target", tgt)
	}

	// A100 max heatmap: everything below ~30 ms, and the row pattern is
	// direction-dependent (down-transitions cap higher).
	hA, err := suite.Fig3Heatmap("a100", AggMax)
	if err != nil {
		t.Fatal(err)
	}
	_, amax, _, _ := hA.MinMax()
	if amax > 40 {
		t.Errorf("A100 max-heatmap peak = %v, want ≤ ~25", amax)
	}

	// RTX max heatmap: banded by target — fast targets ~20 ms, the 930
	// column ~237 ms, mid band ~135 ms.
	hR, err := suite.Fig3Heatmap("rtx6000", AggMax)
	if err != nil {
		t.Fatal(err)
	}
	fast := hR.Get(1110, 750)
	hot := hR.Get(1110, 930)
	mid := hR.Get(750, 1110)
	if math.IsNaN(fast) || math.IsNaN(hot) || math.IsNaN(mid) {
		t.Fatalf("RTX cells missing: %v %v %v", fast, hot, mid)
	}
	if !(fast < 60 && hot > 180 && mid > 100 && mid < 180) {
		t.Errorf("RTX bands: fast=%v hot=%v mid=%v", fast, hot, mid)
	}

	var buf bytes.Buffer
	if err := hR.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "RTX Quadro 6000") {
		t.Fatal("render missing title")
	}
}

func TestFig4ViolinsShape(t *testing.T) {
	panels, err := suite.Fig4Violins()
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 3 {
		t.Fatalf("panels = %d", len(panels))
	}
	for _, p := range panels {
		if p.Increasing.Summary.N == 0 || p.Decreasing.Summary.N == 0 {
			t.Fatalf("%s: empty violin halves", p.Model)
		}
	}
	// A100 asymmetry: the two directions have clearly different medians.
	for _, p := range panels {
		if !strings.HasPrefix(p.Model, "A100") {
			continue
		}
		// Quick-scale campaigns compress per-pair ceilings (few tail
		// samples survive the outlier filter), so the asymmetry is much
		// smaller than at paper depth, but the direction must hold:
		// down-transitions cap higher (Fig. 3c's row pattern). The
		// full-scale regeneration in EXPERIMENTS.md shows the paper-sized
		// gap; the model-level gap is asserted in internal/hwprofile.
		up := p.Increasing.Summary.Median
		down := p.Decreasing.Summary.Median
		if down-up < 0.2 {
			t.Errorf("A100 direction asymmetry missing: up %v vs down %v", up, down)
		}
	}
}

func TestFigScatterMultiCluster(t *testing.T) {
	// Fig. 5: the GH200 1770→1260 pair forms multiple separated clusters.
	sc, err := suite.FigScatter("gh200", core.Pair{InitMHz: 1770, TargetMHz: 1260}, 120)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.SamplesMs) < 100 {
		t.Fatalf("samples = %d", len(sc.SamplesMs))
	}
	if sc.NumClusters < 2 {
		t.Errorf("NumClusters = %d, want ≥ 2 (Fig. 5 structure)", sc.NumClusters)
	}
	if !math.IsNaN(sc.Silhouette) && sc.Silhouette < 0.4 {
		t.Errorf("silhouette = %v, want ≥ 0.4 (§VII-B)", sc.Silhouette)
	}
}

func TestFigScatterSingleCluster(t *testing.T) {
	// Fig. 6-style pair: a non-pathological GH200 pair is one cluster
	// plus scattered outliers.
	sc, err := suite.FigScatter("gh200", core.Pair{InitMHz: 705, TargetMHz: 1095}, 120)
	if err != nil {
		t.Fatal(err)
	}
	if sc.NumClusters < 1 || sc.NumClusters > 2 {
		t.Errorf("NumClusters = %d, want 1 (occasionally 2)", sc.NumClusters)
	}
	outliers := 0
	for _, f := range sc.OutlierFlag {
		if f {
			outliers++
		}
	}
	if frac := float64(outliers) / float64(len(sc.SamplesMs)); frac > 0.10 {
		t.Errorf("outlier share = %v, want ≤ 0.10 (Algorithm 3 halt rule)", frac)
	}
}

func TestRangeHeatmapsAndFig9(t *testing.T) {
	h7, err := suite.RangeHeatmap(AggMin)
	if err != nil {
		t.Fatal(err)
	}
	h8, err := suite.RangeHeatmap(AggMax)
	if err != nil {
		t.Fatal(err)
	}
	minMean := h7.Mean()
	maxMean := h8.Mean()
	if math.IsNaN(minMean) || math.IsNaN(maxMean) {
		t.Fatal("range heatmaps empty")
	}
	// Fig. 7 vs Fig. 8: unit spread on minima is much smaller than on
	// maxima.
	if minMean >= maxMean {
		t.Errorf("min-range mean %v not below max-range mean %v", minMean, maxMean)
	}
	if minMean > 1.5 {
		t.Errorf("min-range mean = %v ms, paper shows ≈0.1–0.3", minMean)
	}

	boxes, err := suite.Fig9Boxes(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 12 { // 3 pairs × 4 units
		t.Fatalf("boxes = %d, want 12", len(boxes))
	}
}

// TestClusterCensusShape checks the census at §VII-B's depth (a full
// suite's 250 samples per pair): the quick census's 120 are too sparse
// for the cluster structure, so its single-cluster shares scatter like
// a reseed around the bounds below.
func TestClusterCensusShape(t *testing.T) {
	rows, err := NewSuite(Options{Scale: ScaleFull, Seed: 2025}).ClusterCensus()
	if err != nil {
		t.Fatal(err)
	}
	byModel := map[string]ClusterCensusRow{}
	for _, r := range rows {
		byModel[strings.Split(r.Model, "[")[0]] = r
	}
	// Paper: A100 96 % single cluster, GH200 85 %, RTX 70 %; GH200 is the
	// only one exceeding two clusters.
	if a := byModel["A100-SXM4"]; a.SingleClusterShare < 0.75 {
		t.Errorf("A100 single-cluster share = %v, want high (paper 0.96)", a.SingleClusterShare)
	}
	if g := byModel["GH200"]; g.MaxClusters < 2 {
		t.Errorf("GH200 max clusters = %d, want ≥ 2", g.MaxClusters)
	}
	if r := byModel["RTX Quadro 6000"]; r.SingleClusterShare > 0.95 {
		t.Errorf("RTX single-cluster share = %v, want the lowest of the three", r.SingleClusterShare)
	}
}

func TestTraces(t *testing.T) {
	cpuTrace, err := Fig1CPUTrace()
	if err != nil {
		t.Fatal(err)
	}
	gpuTrace, err := Fig2GPUTrace()
	if err != nil {
		t.Fatal(err)
	}
	if len(cpuTrace) < 3 || len(gpuTrace) < 3 {
		t.Fatal("traces too short")
	}
	if cpuTrace[0].FreqMHz != 3600 || cpuTrace[len(cpuTrace)-1].FreqMHz != 1200 {
		t.Fatalf("CPU trace endpoints: %v → %v", cpuTrace[0].FreqMHz, cpuTrace[len(cpuTrace)-1].FreqMHz)
	}
	// The GPU trace must contain the ACC-receipt event between request
	// and completion — the Fig. 2 distinction.
	var sawReceipt bool
	for _, tp := range gpuTrace {
		if strings.Contains(tp.Event, "received by ACC") {
			sawReceipt = true
			if tp.FreqMHz != 1500 {
				t.Errorf("clock already changed at receipt: %v", tp.FreqMHz)
			}
		}
	}
	if !sawReceipt {
		t.Fatal("GPU trace missing receipt event")
	}
	if out := RenderTrace(gpuTrace); !strings.Contains(out, "received by ACC") {
		t.Fatalf("RenderTrace:\n%s", out)
	}
}

func TestCIDegeneration(t *testing.T) {
	rows, err := CIDegeneration([]int{50, 400, 3200})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The detection band and in-band share must shrink monotonically
	// with n — §V-A's degeneration.
	for i := 1; i < len(rows); i++ {
		if rows[i].BandUs >= rows[i-1].BandUs {
			t.Errorf("band not shrinking: %+v", rows)
		}
		if rows[i].InBandShare >= rows[i-1].InBandShare {
			t.Errorf("in-band share not shrinking: %+v", rows)
		}
	}
	if rows[0].InBandShare < 0.1 {
		t.Errorf("n=50 in-band share = %v, unexpectedly tiny", rows[0].InBandShare)
	}
	if rows[2].InBandShare > 0.2 {
		t.Errorf("n=3200 in-band share = %v, degeneration not visible", rows[2].InBandShare)
	}
}

func TestCPUvsGPUScaleGap(t *testing.T) {
	rows, err := suite.CPUvsGPU()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	cpuRow := rows[0]
	if cpuRow.MedianMs > 1 {
		t.Errorf("CPU median = %v ms, want sub-millisecond", cpuRow.MedianMs)
	}
	for _, r := range rows[1:] {
		if r.MedianMs < 4 {
			t.Errorf("%s median = %v ms, want ≥ 4 (GPU scale)", r.Platform, r.MedianMs)
		}
		if r.MedianMs < 20*cpuRow.MedianMs {
			t.Errorf("%s/%s gap = %vx, want ≫ 20x", r.Platform, cpuRow.Platform,
				r.MedianMs/cpuRow.MedianMs)
		}
	}
}

func TestCampaignCaching(t *testing.T) {
	a, err := suite.CampaignByKey("a100")
	if err != nil {
		t.Fatal(err)
	}
	b, err := suite.CampaignByKey("a100")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("campaign not cached")
	}
}

func TestUnknownProfileKey(t *testing.T) {
	if _, err := suite.CampaignByKey("h100"); err == nil {
		t.Fatal("unknown key accepted")
	}
	if _, err := suite.Fig3Heatmap("h100", AggMax); err == nil {
		t.Fatal("unknown key accepted by Fig3Heatmap")
	}
}
