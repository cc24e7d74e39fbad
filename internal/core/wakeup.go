package core

import (
	"fmt"
	"time"

	"golatest/internal/sim/gpu"
	"golatest/internal/stats"
	"golatest/internal/workload"
)

// WakeupEstimate is the outcome of the §V wake-up measurement: how long a
// device coming from idle needs before a freshly launched workload runs
// at the programmed clock.
type WakeupEstimate struct {
	FreqMHz float64
	// WakeupNs is the device time from the first kernel's start until the
	// first iteration statistically consistent with the programmed clock.
	WakeupNs int64
	// Stabilized reports whether the programmed clock was reached within
	// the observation budget at all.
	Stabilized bool
	// FirstIterMs and SettledIterMs document the contrast the estimate is
	// built on: the first kernel's opening iteration versus the settled
	// iteration duration.
	FirstIterMs   float64
	SettledIterMs float64
}

// EstimateWakeup measures the wake-up latency at the given clock (§V):
// the device first sits idle long enough to drop to idle clocks, then a
// split workload launches and the per-iteration trace reveals when the
// imposed clock took hold. The workload is split into several kernels so
// the comparison "first kernel's iterations vs last kernel's average"
// from the paper is directly available.
func (r *Runner) EstimateWakeup(freqMHz float64, idle time.Duration) (WakeupEstimate, error) {
	simCfg := r.dev.Sim().Config()
	if !simCfg.SupportsFreq(freqMHz) {
		return WakeupEstimate{}, fmt.Errorf("core: clock %v MHz not supported by %s", freqMHz, r.dev.Name())
	}
	cycles := workload.CyclesForIterDuration(r.cfg.IterTargetNs, freqMHz)

	// Program the clock and let it settle under load first, so the idle
	// period starts from a known state.
	if err := r.dev.SetApplicationsClocks(0, freqMHz); err != nil {
		return WakeupEstimate{}, err
	}
	nominal := stats.MeanStd{N: r.cfg.ItersPerKernel, Mean: cycles / freqMHz / 1000,
		Std: 0.01 * cycles / freqMHz / 1000}
	if err := r.ensureInitialClock(nominal, cycles, r.cfg.IterTargetNs); err != nil {
		return WakeupEstimate{}, err
	}

	// Idle long enough for the driver to drop the clocks.
	if idle <= 0 {
		idle = 2 * time.Duration(simCfg.IdleTimeoutNs)
	}
	r.ctx.Sleep(idle)

	// Split workload: enough total iterations to cover several times the
	// platform's plausible wake delay.
	total := int(4*float64(simCfg.WakeDelayNs)/r.cfg.IterTargetNs) + 4*r.cfg.ConfirmIters
	parts, err := workload.SplitKernels(total, 4)
	if err != nil {
		return WakeupEstimate{}, err
	}
	kernels := make([]*gpu.Kernel, 0, len(parts))
	for _, n := range parts {
		k, err := r.ctx.LaunchKernel(gpu.KernelSpec{
			Iters: n, CyclesPerIter: cycles, Blocks: r.cfg.Blocks,
		})
		if err != nil {
			return WakeupEstimate{}, err
		}
		kernels = append(kernels, k)
	}
	r.ctx.DeviceSynchronize()

	// Settled reference: the last kernel's population.
	settled := stats.Describe(kernels[len(kernels)-1].DurationsMs())

	est := WakeupEstimate{
		FreqMHz:       freqMHz,
		SettledIterMs: settled.Mean,
	}
	first := kernels[0].Samples()
	if len(first) > 0 && len(first[0]) > 0 {
		est.FirstIterMs = float64(first[0][0].DurNs()) / 1e6
	}

	// Scan all kernels' block-0 traces in launch order for the first
	// iteration inside the settled band; its end marks stabilisation.
	startNs := int64(-1)
	for _, k := range kernels {
		block := k.Samples()[0]
		if len(block) == 0 {
			continue
		}
		if startNs < 0 {
			startNs = block[0].StartNs
		}
		for _, it := range block {
			durMs := float64(it.DurNs()) / 1e6
			if settled.Contains(durMs, r.cfg.SigmaK) {
				est.WakeupNs = it.EndNs - startNs
				est.Stabilized = true
				return est, nil
			}
		}
	}
	return est, nil
}
