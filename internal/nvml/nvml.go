// Package nvml is the management-library shim over simulated devices: the
// subset of the NVIDIA Management Library surface the LATEST tool uses —
// device enumeration, application clock control, throttle-reason and
// temperature queries — with realistic driver-call costs on the host
// clock.
//
// The frequency change request travels to the device with a bus delay and
// completes after a transition period (both inside the device model);
// this layer only accounts for the host-side blocking time of the ioctl,
// reproducing the switching-vs-transition split of the paper's Fig. 2.
package nvml

import (
	"fmt"
	"time"

	"golatest/internal/sim/gpu"
)

// callCost is the host-side blocking time of one NVML driver call.
const callCost = 15 * time.Microsecond

// Library is an initialised NVML session over a fixed set of devices.
type Library struct {
	devices []*Device
}

// New creates a library over the given simulated devices (index order is
// preserved, mirroring nvmlDeviceGetHandleByIndex).
func New(devs ...*gpu.Device) (*Library, error) {
	if len(devs) == 0 {
		return nil, fmt.Errorf("nvml: no devices")
	}
	lib := &Library{}
	for i, d := range devs {
		if d == nil {
			return nil, fmt.Errorf("nvml: nil device at index %d", i)
		}
		lib.devices = append(lib.devices, &Device{sim: d})
	}
	return lib, nil
}

// DeviceHandleByIndex returns the handle of device i.
func (l *Library) DeviceHandleByIndex(i int) (*Device, error) {
	if i < 0 || i >= len(l.devices) {
		return nil, fmt.Errorf("nvml: device index %d out of range [0, %d)", i, len(l.devices))
	}
	return l.devices[i], nil
}

// Device is one managed GPU handle.
type Device struct {
	sim *gpu.Device
}

// Sim exposes the underlying simulated device. Production code must not
// use it; it exists so validation tests and experiment harnesses can read
// the injected ground truth that real hardware cannot provide.
func (d *Device) Sim() *gpu.Device { return d.sim }

// Name returns the device model name.
func (d *Device) Name() string { return d.sim.Config().Name }

// Architecture returns the device architecture name.
func (d *Device) Architecture() string { return d.sim.Config().Architecture }

// bill advances the host clock by one driver-call cost.
func (d *Device) bill() { d.sim.Clock().Sleep(callCost) }

// SetApplicationsClocks programs the memory and SM application clocks.
// Only the SM clock is modelled; the memory clock must match the default
// memory P-state. The call blocks the host for the driver-call cost; the
// device applies the change asynchronously after the bus delay and
// transition sampled by its latency model.
func (d *Device) SetApplicationsClocks(memMHz, smMHz float64) error {
	d.bill()
	cfg := d.sim.Config()
	if memMHz != 0 && memMHz != cfg.MemFreqMHz {
		return fmt.Errorf("nvml: %s: unsupported memory clock %v (fixed at %v)",
			cfg.Name, memMHz, cfg.MemFreqMHz)
	}
	_, err := d.sim.SetFrequency(smMHz)
	return err
}

// ClocksThrottleReasons returns the active throttle-reason bitmask.
func (d *Device) ClocksThrottleReasons() gpu.ThrottleReason {
	d.bill()
	return d.sim.ThrottleReasons()
}

// Temperature returns the die temperature in °C.
func (d *Device) Temperature() float64 {
	d.bill()
	return d.sim.Temperature()
}

// ClockInfoSM returns the currently effective SM clock in MHz.
func (d *Device) ClockInfoSM() float64 {
	d.bill()
	return d.sim.CurrentFreqMHz()
}

// ApplicationsClockSM returns the programmed (requested) SM clock in MHz.
func (d *Device) ApplicationsClockSM() float64 {
	d.bill()
	return d.sim.SetFreqMHz()
}
