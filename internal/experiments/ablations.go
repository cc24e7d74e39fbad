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

// measureAblation runs phase 1 once on a fresh ablation device, then
// measures the 1200→600 MHz pair under each of cfgs on a runner of its
// own over that device, on the pair's replica and concurrently. The
// configurations differ only in what phase 1 does not read (the
// detection band, the timer-sync link), so each row sees the phase 1 it
// would have run alone, at the cost of one. Every ablation device has
// its own seed, so the ablations run concurrently too.
func measureAblation(injectNs int64, seed uint64, mutate func(*gpu.Config), cfgs ...core.Config) (*core.Phase1Result, []*core.PairResult, error) {
	if len(cfgs) == 0 {
		return nil, nil, nil
	}
	dev, err := ablationDevice(injectNs, seed, mutate)
	if err != nil {
		return nil, nil, err
	}
	runners := make([]*core.Runner, len(cfgs))
	for i, cfg := range cfgs {
		if runners[i], err = core.NewRunner(dev, cfg); err != nil {
			return nil, nil, err
		}
	}
	p1, err := runners[0].Phase1()
	if err != nil {
		return nil, nil, err
	}
	prs, err := forEach(runners, func(r *core.Runner) (*core.PairResult, error) {
		return r.MeasurePair(core.Pair{InitMHz: 1200, TargetMHz: 600}, p1)
	})
	return p1, prs, err
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
	_, prs, err := measureAblation(injectNs, 17, func(c *gpu.Config) {
		c.RampSteps = steps
	}, ablationConfig(n))
	if err != nil {
		return RampAblationRow{}, err
	}
	pr := prs[0]
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
	return detectionRows([]bool{false, true}, n)
}

// detectionRows measures each detection band of modes (the CI band if
// true, else 2σ) on one device.
func detectionRows(modes []bool, n int) ([]DetectionAblationRow, error) {
	const injectNs = 15_000_000
	cfgs := make([]core.Config, len(modes))
	for i, ci := range modes {
		cfgs[i] = ablationConfig(n)
		cfgs[i].CIDetection = ci
	}
	_, prs, err := measureAblation(injectNs, 23, nil, cfgs...)
	if err != nil {
		return nil, err
	}
	rows := make([]DetectionAblationRow, len(modes))
	for i, pr := range prs {
		row := DetectionAblationRow{Mode: "2-sigma", MeanErrMs: math.NaN()}
		if modes[i] {
			row.Mode = "ci"
		}
		row.AcceptedShare = acceptedShare(pr)
		if len(pr.Samples) > 0 {
			var sum float64
			for j, lat := range pr.Samples {
				sum += lat - pr.Injected[j]
			}
			row.MeanErrMs = sum / float64(len(pr.Samples))
		}
		rows[i] = row
	}
	return rows, nil
}

// acceptedShare is the fraction of a pair's phase-2 runs that produced
// a latency (0 if none ran).
func acceptedShare(pr *core.PairResult) float64 {
	if pr.Attempts == 0 {
		return 0
	}
	return float64(len(pr.Samples)) / float64(pr.Attempts)
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
	return forEach(coreCounts, func(cores int) (CoreCountRow, error) { return coreCountRow(cores, n) })
}

// coreCountRow measures one device width under the CI band and under
// the 2σ band, on one device and one phase 1.
func coreCountRow(cores, n int) (CoreCountRow, error) {
	const injectNs = 15_000_000
	band := func(ci bool) core.Config {
		cfg := ablationConfig(n)
		cfg.Blocks = cores
		cfg.CIDetection = ci
		// Keep the per-block iteration count fixed so the phase-1
		// population scales with the core count, as §V-A describes.
		cfg.ItersPerKernel = 300
		return cfg
	}
	p1, prs, err := measureAblation(injectNs, 31, func(g *gpu.Config) {
		g.SMCount = cores
	}, band(true), band(false))
	if err != nil {
		return CoreCountRow{}, err
	}
	return CoreCountRow{
		Cores:              cores,
		Phase1N:            p1.Stats[600].Iter.N,
		CIAcceptedShare:    acceptedShare(prs[0]),
		SigmaAcceptedShare: acceptedShare(prs[1]),
	}, nil
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
	const injectNs = 15_000_000
	cfgs := make([]core.Config, len(asymUs))
	for i, us := range asymUs {
		cfgs[i] = ablationConfig(n)
		cfgs[i].PTP = ptp.Config{AsymmetryNs: us * 1000}
	}
	_, prs, err := measureAblation(injectNs, 29, nil, cfgs...)
	if err != nil {
		return nil, err
	}
	rows := make([]SyncAblationRow, len(asymUs))
	for i, pr := range prs {
		var diffs []float64
		for j, lat := range pr.Samples {
			diffs = append(diffs, lat-pr.Injected[j])
		}
		rows[i] = SyncAblationRow{AsymmetryUs: asymUs[i], MeanBiasMs: stats.Mean(diffs)}
	}
	return rows, nil
}
