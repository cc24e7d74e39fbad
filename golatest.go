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
// # Concurrency model
//
// A campaign's pair sweep is parallel: Run fans the valid pairs out over
// Config.Parallelism workers (default: one per CPU). Each pair's
// phase-2/3 campaign executes on an independent device replica — a fresh
// instance of the same hardware profile on its own virtual clock, with
// its simulator seed derived deterministically from the device seed and
// the (init, target) pair. Replicas share no mutable state, so the sweep
// scales with cores, and because each pair's entire random future is a
// function of (seed, pair) alone, campaign results are bit-for-bit
// identical at every parallelism level — including Parallelism=1 — and
// independent of worker scheduling. Phase 1 and the capture-bound probe
// run on the primary device before the sweep; within one device, kernels
// and the virtual clock remain single-threaded, mirroring the one host
// thread that drives the real benchmark.
//
// Warm-up and phase-1 kernels stream their iteration timings into
// reusable Welford accumulators (see gpu.MomentSink and gpu.TailSink)
// rather than materialising per-iteration traces; only the phase-3
// benchmark kernel keeps its full trace for evaluation.
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
