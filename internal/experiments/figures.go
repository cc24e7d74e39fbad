package experiments

import (
	"fmt"
	"math"
	"sort"

	"golatest/internal/cluster"
	"golatest/internal/core"
	"golatest/internal/hwprofile"
	"golatest/internal/report"
	"golatest/internal/sim/clock"
)

// Agg selects the per-pair aggregate plotted in a heatmap.
type Agg int

const (
	// AggMin plots each pair's best case (Fig. 3a).
	AggMin Agg = iota
	// AggMax plots each pair's worst case (Fig. 3b–d).
	AggMax
)

func (a Agg) String() string {
	if a == AggMax {
		return "max"
	}
	return "min"
}

// Fig3Heatmap builds the Fig. 3 heatmap of a profile: per-pair minimum or
// maximum switching latency (outliers removed), initial frequencies in
// rows and target frequencies in columns.
func (s *Suite) Fig3Heatmap(profileKey string, agg Agg) (*report.Heatmap, error) {
	p, err := hwprofile.ByKey(profileKey)
	if err != nil {
		return nil, err
	}
	res, err := s.Campaign(p)
	if err != nil {
		return nil, err
	}
	freqs := s.freqsFor(p)
	title := fmt.Sprintf("%s %s switching latencies [ms]", p.Config.Name, agg)
	h := report.NewHeatmap(title, freqs, freqs)
	for _, pr := range res.Pairs {
		if pr.Skipped || pr.Summary.N == 0 {
			continue
		}
		v := pr.Summary.Min
		if agg == AggMax {
			v = pr.Summary.Max
		}
		if err := h.Set(pr.Pair.InitMHz, pr.Pair.TargetMHz, v); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// ViolinPanel is one GPU's Fig. 4 panel: worst-case latency distributions
// split by transition direction.
type ViolinPanel struct {
	Model      string
	Increasing report.Violin
	Decreasing report.Violin
}

// Fig4Violins derives the direction-split worst-case distributions of all
// three GPUs.
func (s *Suite) Fig4Violins() ([]ViolinPanel, error) {
	const bins = 24
	var panels []ViolinPanel
	for _, p := range hwprofile.All() {
		res, err := s.Campaign(p)
		if err != nil {
			return nil, err
		}
		var up, down []float64
		for _, pr := range res.Pairs {
			if pr.Skipped || pr.Summary.N == 0 {
				continue
			}
			if pr.Pair.Increasing() {
				up = append(up, pr.Summary.Max)
			} else {
				down = append(down, pr.Summary.Max)
			}
		}
		panels = append(panels, ViolinPanel{
			Model:      p.Config.Name,
			Increasing: report.NewViolin("increasing (init < target)", up, bins),
			Decreasing: report.NewViolin("decreasing (init > target)", down, bins),
		})
	}
	return panels, nil
}

// ScatterData is the Fig. 5/6 artefact: a dedicated long campaign of one
// pair with its cluster structure.
type ScatterData struct {
	Model       string
	Pair        core.Pair
	SamplesMs   []float64
	OutlierFlag []bool
	NumClusters int
	Silhouette  float64
}

// FigScatter runs a dedicated campaign of one pair with n measurements
// (several hundred, per §VII-B) and clusters it.
func (s *Suite) FigScatter(profileKey string, pair core.Pair, n int) (*ScatterData, error) {
	p, err := hwprofile.ByKey(profileKey)
	if err != nil {
		return nil, err
	}
	h, err := deviceHandle(p.NewDevice(clock.New()))
	if err != nil {
		return nil, err
	}
	cfg := s.campaignConfig(p)
	cfg.Frequencies = []float64{pair.InitMHz, pair.TargetMHz}
	cfg.MinMeasurements = n
	cfg.MaxMeasurements = n
	_, pr, err := measurePair(h, cfg, pair)
	if err != nil {
		return nil, err
	}
	if pr.Clusters == nil {
		return nil, fmt.Errorf("experiments: scatter campaign too small for clustering (%d samples)", len(pr.Samples))
	}
	flags := make([]bool, len(pr.Samples))
	for i, l := range pr.Clusters.Labels {
		flags[i] = l == cluster.Noise
	}
	return &ScatterData{
		Model:       p.Config.Name,
		Pair:        pair,
		SamplesMs:   pr.Samples,
		OutlierFlag: flags,
		NumClusters: pr.Clusters.NumClusters,
		Silhouette:  cluster.Silhouette(pr.Samples, pr.Clusters.Labels),
	}, nil
}

// RangeHeatmap builds the Fig. 7 (AggMin) / Fig. 8 (AggMax) artefact: the
// spread (max − min across the four A100 units) of each pair's aggregate.
func (s *Suite) RangeHeatmap(agg Agg) (*report.Heatmap, error) {
	results, err := s.A100Instances()
	if err != nil {
		return nil, err
	}
	freqs := s.freqsFor(hwprofile.A100())
	title := fmt.Sprintf("A100 ranges of %s switching latencies across 4 units [ms]", agg)
	h := report.NewHeatmap(title, freqs, freqs)
	for _, init := range freqs {
		for _, target := range freqs {
			if init == target {
				continue
			}
			lo, hi := math.Inf(1), math.Inf(-1)
			seen := 0
			for _, res := range results {
				pr, ok := res.PairByFreqs(init, target)
				if !ok || pr.Skipped || pr.Summary.N == 0 {
					continue
				}
				v := pr.Summary.Min
				if agg == AggMax {
					v = pr.Summary.Max
				}
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
				seen++
			}
			if seen == len(results) {
				if err := h.Set(init, target, hi-lo); err != nil {
					return nil, err
				}
			}
		}
	}
	return h, nil
}

// Fig9Boxes picks the pairs with the largest cross-unit spread of maxima
// and returns one box plot per (pair, unit) — the Fig. 9 artefact. The
// paper's finding to reproduce: no unit is consistently the worst.
func (s *Suite) Fig9Boxes(topPairs int) ([]report.BoxPlot, error) {
	results, err := s.A100Instances()
	if err != nil {
		return nil, err
	}
	ranges, err := s.RangeHeatmap(AggMax)
	if err != nil {
		return nil, err
	}
	type spread struct {
		pair core.Pair
		rng  float64
	}
	var spreads []spread
	for _, init := range ranges.RowLabels {
		for _, target := range ranges.ColLabels {
			v := ranges.Get(init, target)
			if !math.IsNaN(v) {
				spreads = append(spreads, spread{core.Pair{InitMHz: init, TargetMHz: target}, v})
			}
		}
	}
	sort.Slice(spreads, func(a, b int) bool { return spreads[a].rng > spreads[b].rng })
	if topPairs > len(spreads) {
		topPairs = len(spreads)
	}
	var boxes []report.BoxPlot
	for _, sp := range spreads[:topPairs] {
		for unit, res := range results {
			pr, ok := res.PairByFreqs(sp.pair.InitMHz, sp.pair.TargetMHz)
			if !ok {
				continue
			}
			label := fmt.Sprintf("%s gpu%d", sp.pair, unit)
			boxes = append(boxes, report.NewBoxPlot(label, pr.Kept))
		}
	}
	return boxes, nil
}

// ClusterCensusRow is the §VII-B census of one GPU: how many pairs formed
// a single latency cluster, the largest cluster count observed, and the
// mean silhouette over multi-cluster pairs.
type ClusterCensusRow struct {
	Model              string
	Pairs              int
	SingleClusterShare float64
	MaxClusters        int
	MeanSilhouette     float64
	MultiClusterPairs  int
}

// censusN is the per-pair sample count of the census campaigns: §VII-B
// analyses pairs of "several hundreds of switching latency measurements",
// and the cluster structure only emerges at that density.
func (s *Suite) censusN() int {
	if s.opts.Scale == ScaleFull {
		return 250
	}
	return 120
}

// censusPairs picks a deterministic spread of valid pairs (at most limit).
func censusPairs(valid []core.Pair, limit int) []core.Pair {
	if len(valid) <= limit {
		return valid
	}
	stride := len(valid) / limit
	out := make([]core.Pair, 0, limit)
	for i := 0; i < len(valid) && len(out) < limit; i += stride {
		out = append(out, valid[i])
	}
	return out
}

// censusConfig is the campaign config of a profile's census.
func (s *Suite) censusConfig(p hwprofile.Profile) core.Config {
	cfg := s.campaignConfig(p)
	// The census always draws its pair sample from the full evaluated
	// frequency set: the reduced quick subsets deliberately over-sample
	// pathological targets (for the heatmap tests), which would bias the
	// single-cluster share far below §VII-B's population-wide figures.
	cfg.Frequencies = p.EvalFreqsMHz
	cfg.MinMeasurements = s.censusN()
	cfg.MaxMeasurements = s.censusN()
	return cfg
}

// censusCampaign measures a sampled subset of a profile's pairs at census
// depth and returns their PairResults: phase 1 on a fresh device, then
// every selected pair as its own step on its own replica.
func (s *Suite) censusCampaign(p hwprofile.Profile) ([]*core.PairResult, error) {
	handle, err := deviceHandle(p.NewDevice(clock.New()))
	if err != nil {
		return nil, err
	}
	_, prs, err := measurePairs(handle, s.censusConfig(p), func(valid []core.Pair) []core.Pair { return censusPairs(valid, 12) })
	return prs, err
}

// censusRow summarises one profile's census campaign.
func censusRow(p hwprofile.Profile, campaign []*core.PairResult) ClusterCensusRow {
	row := ClusterCensusRow{Model: p.Config.Name}
	single := 0
	var silSum float64
	var silN int
	for _, pr := range campaign {
		if pr.Clusters == nil || pr.Skipped {
			continue
		}
		row.Pairs++
		if pr.Clusters.NumClusters <= 1 {
			single++
		} else {
			row.MultiClusterPairs++
			if sil := cluster.Silhouette(pr.Samples, pr.Clusters.Labels); !math.IsNaN(sil) {
				silSum += sil
				silN++
			}
		}
		if pr.Clusters.NumClusters > row.MaxClusters {
			row.MaxClusters = pr.Clusters.NumClusters
		}
	}
	if row.Pairs > 0 {
		row.SingleClusterShare = float64(single) / float64(row.Pairs)
	}
	if silN > 0 {
		row.MeanSilhouette = silSum / float64(silN)
	} else {
		row.MeanSilhouette = math.NaN()
	}
	return row
}

// ClusterCensus computes the §VII-B census from dedicated census-depth
// campaigns over a sampled subset of each GPU's pairs. The profiles'
// campaigns, and every pair within one, run concurrently.
func (s *Suite) ClusterCensus() ([]ClusterCensusRow, error) {
	profiles := hwprofile.All()
	campaigns, err := forEach(profiles, s.censusCampaign)
	if err != nil {
		return nil, err
	}
	rows := make([]ClusterCensusRow, len(profiles))
	for i, p := range profiles {
		rows[i] = censusRow(p, campaigns[i])
	}
	return rows, nil
}
