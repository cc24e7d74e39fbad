package experiments

import (
	"math"

	"golatest/internal/core"
	"golatest/internal/nvml"
	"golatest/internal/ptp"
	"golatest/internal/sim/clock"
	"golatest/internal/sim/gpu"
	"golatest/internal/stats"
)

// The ablation studies quantify the method's design choices (the
// "ablations" artefact of the generators table in cmd/experiments):
// the transition-shape sensitivity of the detector, the §V-A choice of a
// 2σ population band over FTaLaT's confidence interval, and the effect
// of timer-synchronisation error on the measured latencies.

// constModel injects a fixed switching latency for ablation devices.
type constModel struct{ busNs, durNs int64 }

func (m constModel) Sample(init, target float64, r *clock.Rand) gpu.Transition {
	return gpu.Transition{BusDelayNs: m.busNs, DurationNs: m.durNs}
}

// ablationDevice builds a plain two-clock device with a known constant
// latency; mutate tweaks the config before construction.
func ablationDevice(injectNs int64, seed uint64, mutate func(*gpu.Config)) (*nvml.Device, error) {
	cfg := gpu.Config{
		Name:     "ablation-gpu",
		SMCount:  6,
		FreqsMHz: []float64{600, 900, 1200},
		Latency:  constModel{busNs: 50_000, durNs: injectNs - 50_000},
		Seed:     seed,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return deviceHandle(gpu.New(cfg, clock.New()))
}

// ablationConfig is the shared campaign shape of the ablations.
func ablationConfig(n int) core.Config {
	return core.Config{
		Frequencies:      []float64{600, 1200},
		Blocks:           3,
		MinMeasurements:  n,
		MaxMeasurements:  n,
		MaxLatencyHintNs: 40_000_000,
	}
}

// measureAblation runs one ablation campaign: phase 1 on a fresh
// ablation device, then the 1200→600 MHz pair on its replica. Every row
// or cell of an ablation owns its device and seed, so the rows run
// concurrently.
func measureAblation(injectNs int64, seed uint64, mutate func(*gpu.Config), cfg core.Config) (*core.Phase1Result, *core.PairResult, error) {
	dev, err := ablationDevice(injectNs, seed, mutate)
	if err != nil {
		return nil, nil, err
	}
	return measurePair(dev, cfg, core.Pair{InitMHz: 1200, TargetMHz: 600})
}

// RampAblationRow quantifies the detector against one transition shape.
type RampAblationRow struct {
	// RampSteps is the number of intermediate clock plateaus during the
	// transition (0 = hold-then-step, the paper's implicit model).
	RampSteps int
	// MeanErrMs and MaxErrMs are measured − injected over accepted runs.
	MeanErrMs float64
	MaxErrMs  float64
	// FailShare is the share of phase-2 runs discarded (no detection or
	// failed confirmation — §IV's "adapting" case).
	FailShare float64
}

// RampAblation measures a fixed 20 ms transition under increasingly
// gradual ramp shapes. Gradual ramps create iterations at intermediate
// clocks; those can enter the target band early (small negative error) or
// fail confirmation (discards), which is exactly why the methodology
// keeps the workload iteration tiny and confirms with a tail population.
func RampAblation(rampSteps []int, n int) ([]RampAblationRow, error) {
	return forEach(rampSteps, func(steps int) (RampAblationRow, error) { return rampRow(steps, n) })
}

// rampRow measures one ramp shape.
func rampRow(steps, n int) (RampAblationRow, error) {
	const injectNs = 20_000_000
	_, pr, err := measureAblation(injectNs, 17, func(c *gpu.Config) {
		c.RampSteps = steps
	}, ablationConfig(n))
	if err != nil {
		return RampAblationRow{}, err
	}
	row := RampAblationRow{RampSteps: steps, MaxErrMs: math.Inf(-1)}
	var sum float64
	for j, lat := range pr.Samples {
		e := lat - pr.Injected[j]
		sum += e
		if e > row.MaxErrMs {
			row.MaxErrMs = e
		}
	}
	if len(pr.Samples) > 0 {
		row.MeanErrMs = sum / float64(len(pr.Samples))
	}
	if pr.Attempts > 0 {
		row.FailShare = float64(pr.Failures) / float64(pr.Attempts)
	}
	return row, nil
}

// DetectionAblationRow compares the 2σ population band with FTaLaT's
// confidence-interval band on the same accelerator campaign.
type DetectionAblationRow struct {
	Mode string // "2-sigma" or "ci"
	// AcceptedShare is the fraction of phase-2 runs that produced a
	// latency.
	AcceptedShare float64
	// MeanErrMs is measured − injected over accepted runs (NaN if none).
	MeanErrMs float64
}

// DetectionAblation runs the same constant-latency campaign under both
// detection bands, demonstrating §V-A: with thousands of phase-1
// iterations the CI band collapses below the iteration noise and
// detection starves.
func DetectionAblation(n int) ([]DetectionAblationRow, error) {
	return forEach([]bool{false, true}, func(ci bool) (DetectionAblationRow, error) { return detectionRow(ci, n) })
}

// detectionRow measures one detection band: the CI band if ci, else 2σ.
func detectionRow(ci bool, n int) (DetectionAblationRow, error) {
	const injectNs = 15_000_000
	cfg := ablationConfig(n)
	cfg.CIDetection = ci
	_, pr, err := measureAblation(injectNs, 23, nil, cfg)
	if err != nil {
		return DetectionAblationRow{}, err
	}
	row := DetectionAblationRow{Mode: "2-sigma", MeanErrMs: math.NaN()}
	if ci {
		row.Mode = "ci"
	}
	if pr.Attempts > 0 {
		row.AcceptedShare = float64(len(pr.Samples)) / float64(pr.Attempts)
	}
	if len(pr.Samples) > 0 {
		var sum float64
		for j, lat := range pr.Samples {
			sum += lat - pr.Injected[j]
		}
		row.MeanErrMs = sum / float64(len(pr.Samples))
	}
	return row, nil
}

// CoreCountRow is one row of the §V-A small-accelerator study: how the
// CI detection band fares as the number of concurrently measured cores
// grows (the phase-1 population scales with cores × iterations).
type CoreCountRow struct {
	Cores int
	// Phase1N is the phase-1 population size feeding the band.
	Phase1N int
	// CIAcceptedShare is the fraction of runs the CI band accepted.
	CIAcceptedShare float64
	// SigmaAcceptedShare is the 2σ band's share on the same device.
	SigmaAcceptedShare float64
}

// CoreCountStudy measures the CI band's viability across accelerator
// widths. The outcome is the strong form of the paper's footnote 1: on a
// device timer with ~1 µs refresh, the CI band (2·σ/√n) is already below
// the timer quantum at phase-1 populations of a few hundred iterations —
// a single core is enough to starve it — while the 2σ population band is
// width-independent. The gentler, width-driven degeneration §V-A
// describes (and the "TPU with a few tensor cores" exception) is visible
// only on fine-grained timers; CIDegeneration demonstrates it on the
// simulated CPU's nanosecond clock.
func CoreCountStudy(coreCounts []int, n int) ([]CoreCountRow, error) {
	cells, err := forEach(coreCountCells(coreCounts), func(c coreCountCell) (coreCountOutcome, error) {
		return c.measure(n)
	})
	if err != nil {
		return nil, err
	}
	return coreCountRows(coreCounts, cells), nil
}

// coreCountCell is one campaign of the core-count study: a device width
// under one detection band.
type coreCountCell struct {
	cores int
	ci    bool
}

// coreCountOutcome is what a cell measured: the phase-1 population
// feeding the band and the share of runs the band accepted.
type coreCountOutcome struct {
	phase1N int
	share   float64
}

// coreCountCells lists the study's campaigns: cell 2i is the CI band and
// 2i+1 the 2σ band of coreCounts[i].
func coreCountCells(coreCounts []int) []coreCountCell {
	cells := make([]coreCountCell, 0, 2*len(coreCounts))
	for _, cores := range coreCounts {
		cells = append(cells, coreCountCell{cores, true}, coreCountCell{cores, false})
	}
	return cells
}

// measure runs the cell's campaign.
func (c coreCountCell) measure(n int) (coreCountOutcome, error) {
	const injectNs = 15_000_000
	cfg := ablationConfig(n)
	cfg.Blocks = c.cores
	cfg.CIDetection = c.ci
	// Keep the per-block iteration count fixed so the phase-1 population
	// scales with the core count, as §V-A describes.
	cfg.ItersPerKernel = 300
	p1, pr, err := measureAblation(injectNs, 31, func(g *gpu.Config) {
		g.SMCount = c.cores
	}, cfg)
	if err != nil {
		return coreCountOutcome{}, err
	}
	out := coreCountOutcome{phase1N: p1.Stats[600].Iter.N}
	if pr.Attempts > 0 {
		out.share = float64(len(pr.Samples)) / float64(pr.Attempts)
	}
	return out, nil
}

// coreCountRows pairs the cells of coreCountCells back into rows.
func coreCountRows(coreCounts []int, cells []coreCountOutcome) []CoreCountRow {
	rows := make([]CoreCountRow, len(coreCounts))
	for i, cores := range coreCounts {
		ciCell, sigmaCell := cells[2*i], cells[2*i+1]
		rows[i] = CoreCountRow{
			Cores:              cores,
			Phase1N:            sigmaCell.phase1N,
			CIAcceptedShare:    ciCell.share,
			SigmaAcceptedShare: sigmaCell.share,
		}
	}
	return rows
}

// SyncAblationRow quantifies the timer-sync contribution to measurement
// error under an asymmetric link.
type SyncAblationRow struct {
	AsymmetryUs float64
	// MeanBiasMs is the mean of measured − injected; the classic PTP
	// estimator under one-sided extra delay biases offsets by half the
	// asymmetry, which surfaces here beyond the detection granularity.
	MeanBiasMs float64
}

// SyncAblation sweeps the host→device link asymmetry and reports the
// induced measurement bias.
func SyncAblation(asymUs []float64, n int) ([]SyncAblationRow, error) {
	return forEach(asymUs, func(us float64) (SyncAblationRow, error) { return syncRow(us, n) })
}

// syncRow measures one link asymmetry.
func syncRow(asymUs float64, n int) (SyncAblationRow, error) {
	const injectNs = 15_000_000
	cfg := ablationConfig(n)
	cfg.PTP = ptp.Config{AsymmetryNs: asymUs * 1000}
	_, pr, err := measureAblation(injectNs, 29, nil, cfg)
	if err != nil {
		return SyncAblationRow{}, err
	}
	var diffs []float64
	for j, lat := range pr.Samples {
		diffs = append(diffs, lat-pr.Injected[j])
	}
	return SyncAblationRow{AsymmetryUs: asymUs, MeanBiasMs: stats.Mean(diffs)}, nil
}
