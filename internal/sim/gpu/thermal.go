package gpu

import "math"

// ThrottleReason bits mirror the NVML clocks-throttle-reasons bitmask the
// benchmark polls every five passes (§VI).
type ThrottleReason uint64

const (
	// ThrottleNone means the device runs at the programmed clocks.
	ThrottleNone ThrottleReason = 0
	// ThrottleThermal indicates the thermal limit engaged; the benchmark
	// discards recent measurements and backs off to let the GPU cool.
	ThrottleThermal ThrottleReason = 1 << iota
	// ThrottlePower indicates the power cap engaged; the requested clocks
	// cannot be sustained and the frequency pair must be skipped.
	ThrottlePower
)

// Has reports whether all bits of q are set in r.
func (r ThrottleReason) Has(q ThrottleReason) bool { return r&q == q }

// String renders the reason set for logs.
func (r ThrottleReason) String() string {
	switch {
	case r == ThrottleNone:
		return "none"
	case r.Has(ThrottleThermal) && r.Has(ThrottlePower):
		return "thermal|power"
	case r.Has(ThrottleThermal):
		return "thermal"
	case r.Has(ThrottlePower):
		return "power"
	default:
		return "unknown"
	}
}

// thermalState integrates a first-order thermal model: the die relaxes
// exponentially toward a load-dependent steady-state temperature with
// time constant ThermalTauS.
type thermalState struct {
	tempC        float64
	lastUpdateNs int64
	// busyPowerAccumNs counts cumulative load time above the power cap,
	// driving the power-throttle latch.
	busyAboveCapNs int64
}

// steadyTemp returns the equilibrium temperature when the device runs
// continuously at freqMHz (busy) or sits idle.
func (c *Config) steadyTemp(freqMHz float64, busy bool) float64 {
	if !busy {
		return ambientC
	}
	ratio := freqMHz / c.MaxFreqMHz()
	return ambientC + (c.SteadyTempAtMaxC-ambientC)*ratio*ratio
}

// evolve advances the thermal state from its last update to nowNs,
// assuming the device was busy at freqMHz (or idle) throughout.
func (ts *thermalState) evolve(c *Config, nowNs int64, freqMHz float64, busy bool) {
	dt := nowNs - ts.lastUpdateNs
	if dt <= 0 {
		return
	}
	steady := c.steadyTemp(freqMHz, busy)
	alpha := math.Exp(-float64(dt) / (c.ThermalTauS * 1e9))
	ts.tempC = steady + (ts.tempC-steady)*alpha
	ts.lastUpdateNs = nowNs
	if busy && c.PowerCapMHz > 0 && freqMHz > c.PowerCapMHz {
		ts.busyAboveCapNs += dt
	}
	if !busy {
		// Idle periods bleed off the power-cap accumulator at the same
		// rate it charges, modelling capacitor-like power averaging.
		ts.busyAboveCapNs -= dt
		if ts.busyAboveCapNs < 0 {
			ts.busyAboveCapNs = 0
		}
	}
}
