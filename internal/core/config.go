// Package core implements the paper's accelerator switching-latency
// methodology (§V) end to end:
//
//   - Phase 1 — warm-up and frequency characterisation: the iterative
//     microbenchmark runs under every candidate clock; per-clock iteration
//     statistics feed pairwise null-hypothesis tests that exclude pairs
//     whose execution times are statistically indistinguishable
//     (Algorithm 1).
//   - Phase 2 — the switching benchmark: host and device timers are
//     synchronised (IEEE 1588), the benchmark kernel launches under the
//     initial clock, the host sleeps through the delay region, issues the
//     clock change, and records its timestamp (Algorithm 2, lines 1–8).
//   - Phase 3 — evaluation: each SM's iteration trace is scanned after the
//     change timestamp for the first iteration inside the two-standard-
//     deviation band of the target clock (§V-A), confirmed by a
//     mean-difference test over the remaining iterations; the pair's
//     switching latency is the maximum t_e − t_s over SMs (Algorithm 2,
//     lines 9–24).
//
// A pair's campaign repeats phases 2–3 under the relative-standard-error
// stopping rule with throttle backoff (§VI), and the analysis phase
// removes outliers with adaptive DBSCAN (Algorithm 3) via
// internal/cluster.
package core

import (
	"encoding/json"
	"fmt"
	"time"

	"golatest/internal/cluster"
	"golatest/internal/nvml"
	"golatest/internal/ptp"
	"golatest/internal/stats"
)

// Pair is an ordered frequency pair: the switching latency of init→target
// is generally different from target→init (§III).
type Pair struct {
	InitMHz   float64
	TargetMHz float64
}

// String renders the pair the way the paper writes transitions.
func (p Pair) String() string { return fmt.Sprintf("%.0f→%.0f MHz", p.InitMHz, p.TargetMHz) }

// Increasing reports whether the pair raises the clock.
func (p Pair) Increasing() bool { return p.TargetMHz > p.InitMHz }

// Config tunes a measurement campaign. The zero value is not valid;
// Frequencies is required and everything else has paper-faithful defaults
// filled by withDefaults. How many pairs compute at once is no part of
// the method, so it is not configured here: the process-wide step pool
// of GOMAXPROCS slots sets it (see Runner.Run), and results do not
// depend on it.
type Config struct {
	// Frequencies are the SM clocks under test (the tool's mandatory
	// comma-separated list). At least two distinct supported clocks.
	Frequencies []float64

	// Blocks bounds how many SM-resident blocks are simulated and
	// analysed per kernel. Zero means all SMs, the methodology's full
	// shape, and so does any count above the device's SM count;
	// campaigns use a subset for tractability. Per-SM iteration
	// populations are statistically identical, but the latency verdict
	// is a maximum over SMs, and more SMs give more stragglers whose
	// first in-band iteration jitter delays by whole periods. So a
	// subset understates the up-switch latency the paper's method would
	// report at full width; ROADMAP.md's open item "The paper's
	// estimator drifts with SM count" gives the measured drift.
	Blocks int

	// IterTargetNs is the nominal iteration duration at the slower clock
	// of each measured pair; it bounds the latency resolution (§V:
	// "as tiny as possible"). Default 150 µs.
	IterTargetNs float64

	// WarmKernels and ItersPerKernel shape phase 1: several kernels per
	// clock, statistics from the last one. Defaults 3 and 300.
	WarmKernels    int
	ItersPerKernel int

	// RSETarget is the stopping threshold on the relative standard error
	// of a pair's switching latencies (default 0.05, the tool's default).
	RSETarget float64
	// MinMeasurements skips RSE checks until this many samples exist;
	// MaxMeasurements hard-stops the pair. Defaults 25 and 100.
	MinMeasurements int
	MaxMeasurements int
	// RSECheckEvery is the §VI RSE cadence: every 25 passes by default.
	RSECheckEvery int
	// Cooldown is the backoff after a thermal throttle event (§VI: ten
	// seconds). Default 10 s of virtual time.
	Cooldown time.Duration

	// DelayIters run under the initial clock before the change request
	// (§V delay period, default 200); ConfirmIters is the
	// target-identification tail (default 400).
	DelayIters   int
	ConfirmIters int

	// MaxLatencyHintNs bounds the capture region. Zero means the runner
	// probes a few pairs first (§V switching-latency estimation) and uses
	// ten times the longest observed latency.
	MaxLatencyHintNs int64
	// CaptureSafety multiplies the hint when sizing the capture region
	// (default 1.5 for explicit hints; probing already includes the 10×).
	CaptureSafety float64

	// SigmaK is the acceptance band half-width in target-population
	// standard deviations (§V-A uses 2).
	SigmaK float64
	// CIDetection switches phase 3 to FTaLaT's confidence-interval band
	// (SigmaK standard *errors* instead of standard deviations). The
	// paper's §V-A argues this degenerates on accelerators; the option
	// exists for the ablation that demonstrates it. On a 1 µs device
	// timer the band is narrower than one timer step and usually holds
	// no measurable duration; phase 3 then skips the benchmark kernel's
	// iterations, and every attempt fails with no detection, as a full
	// scan would.
	CIDetection bool

	// Outlier configures the adaptive DBSCAN filter (Algorithm 3).
	Outlier cluster.AdaptiveConfig
	// PTP configures the timer synchronisation.
	PTP ptp.Config

	// Seed drives host-side randomness (PTP link sampling).
	Seed uint64
}

// The method's fixed statistical parameters (§V-A, §VI). No campaign
// tunes them, so they are constants rather than Config fields.
const (
	// confidence drives every interval and test.
	confidence = 0.95
	// throttleCheckEvery is the §VI throttle-reason cadence: every 5
	// accepted measurements.
	throttleCheckEvery = 5
	// relTolerance accepts the confirmation population when its mean
	// differs from the phase-1 target mean by less than this fraction
	// (Algorithm 2's "meanDiff < tol").
	relTolerance = 0.02
)

// tcrit is the Student-t critical value at confidence, built once.
var tcrit = stats.NewCriticalT(confidence)

// withDefaults validates cfg against the device and fills defaults.
func (c Config) withDefaults(dev *nvml.Device) (Config, error) {
	if dev == nil {
		return c, fmt.Errorf("core: nil device")
	}
	if len(c.Frequencies) < 2 {
		return c, fmt.Errorf("core: need at least two frequencies, got %d", len(c.Frequencies))
	}
	seen := map[float64]bool{}
	simCfg := dev.Sim().Config()
	for _, f := range c.Frequencies {
		if !simCfg.SupportsFreq(f) {
			return c, fmt.Errorf("core: clock %v MHz not supported by %s", f, dev.Name())
		}
		if seen[f] {
			return c, fmt.Errorf("core: duplicate clock %v MHz", f)
		}
		seen[f] = true
	}
	if c.Blocks < 0 {
		return c, fmt.Errorf("core: negative block count %d", c.Blocks)
	}
	if c.Blocks == 0 || c.Blocks > simCfg.SMCount {
		c.Blocks = simCfg.SMCount
	}
	if c.IterTargetNs == 0 {
		c.IterTargetNs = 150_000
	}
	if c.IterTargetNs < 10*float64(simCfg.TimerQuantumNs) {
		return c, fmt.Errorf("core: iteration target %v ns too close to timer quantum %d ns",
			c.IterTargetNs, simCfg.TimerQuantumNs)
	}
	if c.WarmKernels == 0 {
		c.WarmKernels = 3
	}
	if c.ItersPerKernel == 0 {
		c.ItersPerKernel = 300
	}
	if c.RSETarget == 0 {
		c.RSETarget = 0.05
	}
	if c.MinMeasurements == 0 {
		c.MinMeasurements = 25
	}
	if c.MaxMeasurements == 0 {
		c.MaxMeasurements = 100
	}
	if c.MinMeasurements < 0 || c.MaxMeasurements < 0 {
		return c, fmt.Errorf("core: negative measurement count (min %d, max %d)",
			c.MinMeasurements, c.MaxMeasurements)
	}
	if c.MaxMeasurements < c.MinMeasurements {
		return c, fmt.Errorf("core: MaxMeasurements %d < MinMeasurements %d",
			c.MaxMeasurements, c.MinMeasurements)
	}
	if c.RSECheckEvery == 0 {
		c.RSECheckEvery = 25
	}
	if c.Cooldown == 0 {
		c.Cooldown = 10 * time.Second
	}
	if c.DelayIters == 0 {
		c.DelayIters = 200
	}
	if c.ConfirmIters == 0 {
		c.ConfirmIters = 400
	}
	if c.CaptureSafety == 0 {
		c.CaptureSafety = 1.5
	}
	if c.SigmaK == 0 {
		c.SigmaK = 2
	}
	if c.Outlier == (cluster.AdaptiveConfig{}) {
		c.Outlier = cluster.DefaultAdaptiveConfig()
	}
	if c.Seed == 0 {
		c.Seed = 0xbe9c481
	}
	return c, nil
}

// CacheFingerprint returns the canonical encoding of the configuration
// used to content-address campaign results (see internal/store). Two
// configurations with the same fingerprint produce bit-for-bit identical
// campaigns on the same device.
//
// Every field participates, including fields that still carry their
// zero value — the fingerprint encodes the configuration as
// written, not the default-filled effective configuration, so a caller
// that spells a default out explicitly addresses a different (but
// identically-valued) cache entry. That is deliberately conservative:
// a spurious recompute is always correct, a spurious hit never is.
func (c Config) CacheFingerprint() ([]byte, error) {
	return json.Marshal(c)
}

// AllPairs returns every ordered pair of distinct configured clocks, in
// deterministic (init-major) order.
func (c Config) AllPairs() []Pair {
	var out []Pair
	for _, init := range c.Frequencies {
		for _, target := range c.Frequencies {
			if init != target {
				out = append(out, Pair{InitMHz: init, TargetMHz: target})
			}
		}
	}
	return out
}
