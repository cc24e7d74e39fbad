// Package golatest is a Go reproduction of "Methodology for GPU Frequency
// Switching Latency Measurement" (Velička, Vysocky, Riha; IPPS 2025,
// arXiv:2502.20075): the LATEST methodology for measuring how long an
// accelerator takes to complete an SM frequency change, together with a
// deterministic virtual-time GPU substrate standing in for CUDA hardware.
//
// The package is a thin facade over the implementation packages:
//
//   - internal/sim/gpu — the simulated accelerator (frequency timeline,
//     wake-up, thermal/power throttling, quantised device timer);
//   - internal/hwprofile — GH200, A100-SXM4 and RTX Quadro 6000 models
//     calibrated against the paper's published distributions;
//   - internal/core — the three-phase methodology (characterise, switch,
//     detect + confirm) with RSE-driven repetition and DBSCAN outlier
//     filtering;
//   - internal/ftalat — the FTaLaT CPU baseline the methodology descends
//     from.
//
// # Quickstart
//
//	p, _ := golatest.ProfileByKey("a100")
//	res, err := golatest.Run(p, golatest.Config{
//		Frequencies: []float64{705, 1065, 1410},
//	})
//	if err != nil { ... }
//	for _, pr := range res.Pairs {
//		fmt.Println(pr.Pair, pr.Summary)
//	}
//
// Everything runs in virtual time: campaigns that span hours of simulated
// benchmarking finish in milliseconds of wall clock and are bit-for-bit
// reproducible for a given configuration.
//
// # Fixed parameters
//
// Config holds only what a campaign may tune. The method's statistical
// parameters are constants, as the paper fixes them: 95 % confidence
// for every interval and test, a 2 % confirmation tolerance on the
// target mean (§V-A), a throttle-reason poll every 5 accepted
// measurements (§VI), and Algorithm 3's eps = 0.15 × the 0.05–0.95
// quantile range, with minPts swept from 4 % down to 2 % of the samples
// in steps of 2 until at most 10 % are noise. The simulated host link
// (1.5 µs mean one-way delay, 200 ns device turnaround) and kernel
// launch cost (8 µs) are fixed as well.
//
// # Concurrency model
//
// A process computes on one pool of GOMAXPROCS measurement-step slots.
// Phase 1, the capture-bound probe, and each pair's phase-2/3 campaign
// each hold one slot while they run, so concurrent campaigns share the
// cores instead of each fanning out on its own. Run holds no slot: it
// runs phase 1 and the probe on the primary device, then fans the valid
// pairs out, one goroutine each. Each pair executes on an independent
// device replica — a fresh copy of the chip phase 1 characterised (same
// configuration and per-SM speeds) on its own virtual clock, with its
// noise seed derived deterministically from the device seed and the
// (init, target) pair. Runner.MeasurePair measures a single pair the
// same way. Replicas share no
// mutable state, so the sweep scales with cores, and because each pair's
// entire random future is a function of (seed, pair) alone, campaign
// results are bit-for-bit identical at any GOMAXPROCS — including
// GOMAXPROCS=1 — and independent of scheduling. Within one device,
// kernels and the virtual clock remain single-threaded, mirroring the
// one host thread that drives the real benchmark.
//
// Warm-up and phase-1 kernels stream their iteration timings into
// reusable sinks rather than materialising per-iteration traces:
// phase 1 into a moment accumulator (gpu.MomentSink), the warm-up check
// into per-block window sums that the simulator folds in one draw per
// clock segment (gpu.TailSink). The phase-3 benchmark kernel streams
// too, into a sink that detects and confirms each SM online: it does
// not hear the clock segments whose iterations cannot reach its
// detection band, which elapse undelivered, folds each block's
// confirmation tail, and skips a kernel outright when its band holds no
// value of the device timer.
package golatest

import (
	"golatest/internal/core"
	"golatest/internal/hwprofile"
	"golatest/internal/nvml"
	"golatest/internal/sim/clock"
	"golatest/internal/sim/gpu"
)

// Re-exported types: the public API vocabulary. See the internal package
// documentation for full details on each.
type (
	// Profile describes one of the paper's GPUs (configuration plus the
	// evaluated frequency subset).
	Profile = hwprofile.Profile
	// Config tunes a measurement campaign.
	Config = core.Config
	// Pair is an ordered (init → target) frequency pair.
	Pair = core.Pair
	// Result is a completed campaign.
	Result = core.Result
	// PairResult is one pair's measurements, statistics, and clustering.
	PairResult = core.PairResult
	// Measurement is a single accepted switching-latency observation.
	Measurement = core.Measurement
	// Runner drives campaigns phase by phase for callers that need more
	// control than Run offers.
	Runner = core.Runner
	// Phase1Result carries the frequency characterisation and the valid
	// pair set.
	Phase1Result = core.Phase1Result
	// KernelSpec describes a microbenchmark kernel for callers driving
	// the simulated device directly (see Device.Sim).
	KernelSpec = gpu.KernelSpec
)

// Profiles returns the three paper GPUs (RTX Quadro 6000, A100-SXM4,
// GH200) in Table I order.
func Profiles() []Profile { return hwprofile.All() }

// ProfileByKey resolves "gh200", "a100", or "rtx6000".
func ProfileByKey(key string) (Profile, error) { return hwprofile.ByKey(key) }

// A100Unit returns one of the four A100 units of the manufacturing-
// variability study (§VII-C).
func A100Unit(idx int) Profile { return hwprofile.A100Instance(idx) }

// Device is an open simulated GPU with its management handle.
type Device struct {
	handle *nvml.Device
	clk    *clock.Clock
}

// Open instantiates a profile as a fresh simulated device on its own
// virtual clock.
func Open(p Profile) (*Device, error) {
	clk := clock.New()
	sim, err := p.NewDevice(clk)
	if err != nil {
		return nil, err
	}
	lib, err := nvml.New(sim)
	if err != nil {
		return nil, err
	}
	h, err := lib.DeviceHandleByIndex(0)
	if err != nil {
		return nil, err
	}
	return &Device{handle: h, clk: clk}, nil
}

// NVML returns the device's management handle (the API surface the
// methodology drives).
func (d *Device) NVML() *nvml.Device { return d.handle }

// Sim returns the underlying simulator, exposing ground-truth injections
// for validation work.
func (d *Device) Sim() *gpu.Device { return d.handle.Sim() }

// NewRunner builds a campaign runner on the device.
func (d *Device) NewRunner(cfg Config) (*Runner, error) {
	return core.NewRunner(d.handle, cfg)
}

// Run executes a complete campaign on a fresh instance of the profile:
// phase 1 characterisation, capture-bound probing when cfg leaves
// MaxLatencyHintNs zero, and the full pair sweep.
func Run(p Profile, cfg Config) (*Result, error) {
	dev, err := Open(p)
	if err != nil {
		return nil, err
	}
	r, err := dev.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	return r.Run()
}
