// Package cuda is the host-side runtime shim over the simulated device:
// the same handful of calls the real LATEST tool makes against the CUDA
// runtime — kernel launch, device synchronise, host sleep, and host
// timestamps — expressed against internal/sim/gpu.
//
// Keeping this layer separate from the device model means the methodology
// code in internal/core reads like the paper's Algorithm 2: launch,
// usleep, set frequency (via nvml), synchronise, analyse.
package cuda

import (
	"fmt"
	"time"

	"golatest/internal/sim/clock"
	"golatest/internal/sim/gpu"
)

// Context binds a host thread to one device, like a CUDA context.
type Context struct {
	clk *clock.Clock
	dev *gpu.Device
}

// NewContext creates a context on the given device.
func NewContext(dev *gpu.Device) (*Context, error) {
	if dev == nil {
		return nil, fmt.Errorf("cuda: nil device")
	}
	return &Context{clk: dev.Clock(), dev: dev}, nil
}

// Clock returns the host clock driving this context.
func (c *Context) Clock() *clock.Clock { return c.clk }

// LaunchKernel enqueues the microbenchmark kernel asynchronously and
// returns its handle. The host clock pays the launch overhead.
func (c *Context) LaunchKernel(spec gpu.KernelSpec) (*gpu.Kernel, error) {
	return c.dev.Launch(spec)
}

// LaunchKernelWithSink enqueues the kernel with a streaming sample sink:
// iteration timings flow into sink at Synchronize instead of
// materialising, sparing the kernel handle and the per-block trace
// allocations. Callers that only need summary statistics (warm-up loops,
// phase-1 characterisation, phase-3 detection) use this path.
func (c *Context) LaunchKernelWithSink(spec gpu.KernelSpec, sink gpu.SampleSink) error {
	return c.dev.LaunchWithSink(spec, sink)
}

// DeviceSynchronize blocks (in virtual time) until all launched kernels
// complete.
func (c *Context) DeviceSynchronize() {
	c.dev.Synchronize()
}

// Usleep suspends the host thread for the given number of microseconds,
// mirroring the usleep(delay) between benchmark launch and the frequency
// change call in Algorithm 2.
func (c *Context) Usleep(us int64) {
	if us < 0 {
		return
	}
	c.clk.Sleep(time.Duration(us) * time.Microsecond)
}

// Sleep suspends the host thread for d.
func (c *Context) Sleep(d time.Duration) {
	if d > 0 {
		c.clk.Sleep(d)
	}
}

// HostTimestamp reads the host clock (clock_gettime in Algorithm 2).
func (c *Context) HostTimestamp() int64 { return c.clk.Now() }
