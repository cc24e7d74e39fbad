// Package gpu models a CUDA-class accelerator in virtual time.
//
// The model reproduces exactly the observables the LATEST methodology
// depends on and nothing more:
//
//   - a grid of streaming multiprocessors (SMs) executing an iterative
//     arithmetic microbenchmark, each iteration bracketed by device-clock
//     timestamp reads quantised to the ~1 µs refresh rate of the CUDA
//     global timer;
//   - an SM frequency that follows a timeline of set-clocks requests, each
//     request incurring a CPU→device bus delay followed by a transition
//     period sampled from an architecture-specific latency model;
//   - wake-up behaviour (idle clocks until a sustained load arrives),
//     thermal inertia with thermal throttling, and a power cap;
//   - a device clock offset/drift against the host, so the IEEE 1588
//     synchronisation step of the methodology has real work to do.
//
// All activity is materialised lazily against a shared virtual clock,
// making campaigns deterministic for a given seed, and — crucially for
// validation — every frequency transition records its ground-truth
// completion time, which real hardware never reveals.
package gpu

import (
	"fmt"

	"golatest/internal/sim/clock"
)

// Transition describes one sampled frequency-change event: the command's
// travel time from host to device, and the on-device transition duration.
// The paper's "switching latency" corresponds to BusDelayNs + DurationNs
// (plus detection granularity); its "transition latency" to DurationNs.
type Transition struct {
	BusDelayNs int64
	DurationNs int64
}

// LatencyModel samples the DVFS behaviour of an architecture for a
// frequency change from initMHz to targetMHz. Implementations live in
// internal/hwprofile; the gpu package only requires determinism with
// respect to the supplied random stream.
type LatencyModel interface {
	Sample(initMHz, targetMHz float64, r *clock.Rand) Transition
}

// The device's fixed host-side and environmental constants.
const (
	// launchOverheadNs models the host-side kernel launch cost.
	launchOverheadNs = 8000
	// ambientC is the temperature an idle device relaxes toward.
	ambientC = 30
)

// Config fully describes a simulated device. The zero value is not
// usable; construct configs via internal/hwprofile or fill the required
// fields (Name, SMCount, FreqsMHz, DefaultFreqMHz, Latency) manually and
// let Normalize supply defaults for the rest.
type Config struct {
	// Identity (Table I columns).
	Name         string  // e.g. "A100-SXM4"
	Architecture string  // e.g. "Ampere"
	Driver       string  // driver version string, reporting only
	SMCount      int     // number of streaming multiprocessors
	MemFreqMHz   float64 // memory clock at the default memory P-state

	// FreqsMHz lists the supported SM clock steps in ascending order.
	FreqsMHz []float64
	// DefaultFreqMHz is the clock applied at reset. The device falls back
	// to its lowest step after IdleTimeoutNs without load.
	DefaultFreqMHz float64
	IdleTimeoutNs  int64
	// WakeDelayNs is how long a kernel arriving on an idle device runs at
	// idle clocks before the programmed frequency is reached (§V wake-up
	// latency).
	WakeDelayNs int64

	// TimerQuantumNs is the device global-timer refresh period (the paper
	// footnote reports ≈1 µs for CUDA).
	TimerQuantumNs int64
	// ClockOffsetNs and ClockDriftPPM displace the device clock from the
	// host clock; the PTP phase must estimate and remove them.
	ClockOffsetNs int64
	ClockDriftPPM float64

	// SMSpeedSigma is the relative stddev of static per-SM speed
	// variation; IterJitterSigma the relative stddev of per-iteration
	// execution noise.
	SMSpeedSigma    float64
	IterJitterSigma float64

	// Latency is the architecture DVFS model (required).
	Latency LatencyModel
	// RampSteps selects the transition shape: 0 means the clock holds the
	// initial frequency for the whole transition and steps to the target
	// at completion; k > 0 inserts k intermediate linear ramp segments
	// (the "adapting" behaviour §IV warns about).
	RampSteps int

	// Thermal model: temperature relaxes toward ambientC when idle and
	// toward SteadyTempAtMaxC·(f/fmax)² + ambientC·(1−(f/fmax)²)… see
	// thermal.go. Throttling engages above ThermalLimitC and clamps the
	// clock to ThrottleClampMHz until the temperature falls below
	// ThermalLimitC − ThermalHysteresisC.
	SteadyTempAtMaxC   float64
	ThermalTauS        float64
	ThermalLimitC      float64
	ThermalHysteresisC float64
	ThrottleClampMHz   float64

	// IdlePowerW and MaxBusyPowerW parameterise the cube-law energy
	// meter (defaults 60 W and 400 W, an A100-class envelope).
	IdlePowerW    float64
	MaxBusyPowerW float64

	// PowerCapMHz, when positive, marks clocks above it as unsustainable:
	// after PowerCapDelayNs of cumulative load the device clamps to the
	// cap and raises the power-throttle reason. Zero disables the cap.
	PowerCapMHz     float64
	PowerCapDelayNs int64

	// Seed drives every stochastic element of this device.
	Seed uint64
}

// Normalize fills unset optional fields with defaults and validates the
// required ones. It returns the normalised copy.
func (c Config) Normalize() (Config, error) {
	if c.Name == "" {
		return c, fmt.Errorf("gpu: config missing Name")
	}
	if c.SMCount <= 0 {
		return c, fmt.Errorf("gpu: %s: SMCount must be positive, got %d", c.Name, c.SMCount)
	}
	if len(c.FreqsMHz) == 0 {
		return c, fmt.Errorf("gpu: %s: no frequency steps", c.Name)
	}
	for i := 1; i < len(c.FreqsMHz); i++ {
		if c.FreqsMHz[i] <= c.FreqsMHz[i-1] {
			return c, fmt.Errorf("gpu: %s: FreqsMHz not strictly ascending at index %d", c.Name, i)
		}
	}
	if c.FreqsMHz[0] <= 0 {
		return c, fmt.Errorf("gpu: %s: non-positive frequency step", c.Name)
	}
	if c.Latency == nil {
		return c, fmt.Errorf("gpu: %s: nil LatencyModel", c.Name)
	}
	if c.DefaultFreqMHz == 0 {
		c.DefaultFreqMHz = c.FreqsMHz[len(c.FreqsMHz)-1]
	}
	if !c.SupportsFreq(c.DefaultFreqMHz) {
		return c, fmt.Errorf("gpu: %s: default frequency %v not in step table", c.Name, c.DefaultFreqMHz)
	}
	if c.IdleTimeoutNs == 0 {
		c.IdleTimeoutNs = 50e6 // 50 ms
	}
	if c.WakeDelayNs == 0 {
		c.WakeDelayNs = 30e6 // 30 ms to reach programmed clocks from idle
	}
	if c.TimerQuantumNs == 0 {
		c.TimerQuantumNs = 1000
	}
	if c.SMSpeedSigma == 0 {
		c.SMSpeedSigma = 0.0015
	}
	if c.IterJitterSigma == 0 {
		// Arithmetic-only kernels on real SMs are extremely stable; a
		// quarter percent keeps neighbouring 15 MHz clock steps (≈1 %
		// apart at the top of the range) statistically separable, as the
		// paper's heatmaps show they were.
		c.IterJitterSigma = 0.0025
	}
	if c.IterJitterSigma < 0 {
		// chunkIters sizes its trusted margin from sigma; a negative one
		// would let runSM chunk past a segment's end.
		return c, fmt.Errorf("gpu: %s: negative IterJitterSigma %v", c.Name, c.IterJitterSigma)
	}
	if c.SteadyTempAtMaxC == 0 {
		c.SteadyTempAtMaxC = 68
	}
	if c.ThermalTauS == 0 {
		c.ThermalTauS = 25
	}
	if c.ThermalLimitC == 0 {
		c.ThermalLimitC = 90
	}
	if c.ThermalHysteresisC == 0 {
		c.ThermalHysteresisC = 5
	}
	if c.ThrottleClampMHz == 0 {
		c.ThrottleClampMHz = c.FreqsMHz[0]
	}
	if c.PowerCapDelayNs == 0 {
		c.PowerCapDelayNs = 100e6 // 100 ms sustained load
	}
	if c.IdlePowerW == 0 {
		c.IdlePowerW = 60
	}
	if c.MaxBusyPowerW == 0 {
		c.MaxBusyPowerW = 400
	}
	if c.MaxBusyPowerW < c.IdlePowerW {
		return c, fmt.Errorf("gpu: %s: MaxBusyPowerW %v below IdlePowerW %v",
			c.Name, c.MaxBusyPowerW, c.IdlePowerW)
	}
	return c, nil
}

// SupportsFreq reports whether f is one of the configured clock steps.
func (c *Config) SupportsFreq(f float64) bool {
	for _, step := range c.FreqsMHz {
		if step == f {
			return true
		}
	}
	return false
}

// MaxFreqMHz returns the highest supported clock step.
func (c *Config) MaxFreqMHz() float64 { return c.FreqsMHz[len(c.FreqsMHz)-1] }

// MinFreqMHz returns the lowest supported clock step.
func (c *Config) MinFreqMHz() float64 { return c.FreqsMHz[0] }
