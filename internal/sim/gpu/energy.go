package gpu

// Energy accounting. The paper's motivation (§I, §VIII) is energy-aware
// runtime systems: switching latency matters because it bounds how often
// DVFS retuning can pay off. The simulator therefore meters energy so
// downstream examples can close the loop from "measured latency matrix"
// to "realised savings".
//
// The model is the standard cube law: busy power at clock f is
//
//	P(f) = IdleW + (MaxBusyW − IdleW) · (f/fmax)³
//
// and idle power is IdleW. Energy integrates lazily: idle draw up to
// each read and each kernel start, busy draw in materialize's one walk
// of the kernel's busy window, which also heats the die.

// EnergyMeter accumulates joules over the device's lifetime.
type energyMeter struct {
	joules       float64
	lastUpdateNs int64
}

// busyPowerW returns the power draw when all SMs run at clock f.
func (c *Config) busyPowerW(freqMHz float64) float64 {
	ratio := freqMHz / c.MaxFreqMHz()
	return c.IdlePowerW + (c.MaxBusyPowerW-c.IdlePowerW)*ratio*ratio*ratio
}

// accumulate adds the energy of [e.lastUpdateNs, nowNs] at power p.
func (e *energyMeter) accumulate(nowNs int64, powerW float64) {
	dt := nowNs - e.lastUpdateNs
	if dt <= 0 {
		return
	}
	e.joules += powerW * float64(dt) / 1e9
	e.lastUpdateNs = nowNs
}

// EnergyJ reports the cumulative energy consumed up to the current host
// time, counting idle draw for the gap since the last activity.
func (d *Device) EnergyJ() float64 {
	now := d.clk.Now()
	if now > d.energy.lastUpdateNs {
		d.energy.accumulate(now, d.cfg.IdlePowerW)
	}
	return d.energy.joules
}
