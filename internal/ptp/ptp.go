// Package ptp implements the IEEE 1588-style two-way time transfer the
// methodology uses to relate host timestamps (the moment the frequency
// change call is issued) to the accelerator's global timer (§V-B phase 2).
//
// The exchange is the classic delay-request/response:
//
//	t1  host sends request
//	t2  device timestamps receipt
//	t3  device timestamps response departure
//	t4  host timestamps response arrival
//
// offset = ((t2 − t1) + (t3 − t4)) / 2, exact when the link is symmetric.
// Each round samples fresh link delays; the estimator takes the median of
// the per-round offsets, making it robust to the occasional delayed
// exchange (the same driver-noise mechanism that causes measurement
// outliers).
package ptp

import (
	"fmt"

	"golatest/internal/sim/clock"
)

// DeviceClock is the device-side timer the host synchronises against.
// *gpu.Device implements it.
type DeviceClock interface {
	// DeviceTimeAt returns the device global-timer reading at the given
	// host instant (quantised to the timer refresh period).
	DeviceTimeAt(hostNs int64) int64
}

// Config tunes the synchronisation exchange.
type Config struct {
	// Rounds is the number of delay-request exchanges (default 16).
	Rounds int
	// MeanLinkDelayNs is the mean one-way PCIe/NVLink message delay
	// (default 1.5 µs).
	MeanLinkDelayNs float64
	// LinkJitterNs is the per-message delay stddev (default 300 ns).
	LinkJitterNs float64
	// AsymmetryNs is added to host→device messages only; asymmetric links
	// bias the classic estimator by AsymmetryNs/2 and the methodology
	// treats that bias as part of its error budget (default 0).
	AsymmetryNs float64
	// DeviceTurnaroundNs separates t2 from t3 on the device (default 200).
	DeviceTurnaroundNs int64
}

func (c Config) withDefaults() Config {
	if c.Rounds <= 0 {
		c.Rounds = 16
	}
	if c.MeanLinkDelayNs == 0 {
		c.MeanLinkDelayNs = 1500
	}
	if c.LinkJitterNs == 0 {
		c.LinkJitterNs = 300
	}
	if c.DeviceTurnaroundNs == 0 {
		c.DeviceTurnaroundNs = 200
	}
	return c
}

// Result is a completed synchronisation: the offset estimate and its
// dispersion diagnostics.
type Result struct {
	// OffsetNs estimates device_time − host_time at the sync instant.
	OffsetNs int64
	// DelayNs estimates the one-way link delay.
	DelayNs int64
	// Rounds is the number of exchanges performed.
	Rounds int
	// SpreadNs is the max−min of per-round offset estimates, an upper
	// bound on the sync error contribution to measured latencies.
	SpreadNs int64
}

// HostToDevice converts a host timestamp to the device timebase.
func (r Result) HostToDevice(hostNs int64) int64 { return hostNs + r.OffsetNs }

// Sync performs the two-way exchange between the host clock and the
// device timer, advancing the host clock by the virtual time the
// exchanges consume.
func Sync(clk *clock.Clock, dev DeviceClock, cfg Config, r *clock.Rand) (Result, error) {
	cfg = cfg.withDefaults()
	if dev == nil {
		return Result{}, fmt.Errorf("ptp: nil device clock")
	}

	// The default round count fits the stack buffers, so a sync
	// allocates nothing; more rounds grow onto the heap.
	var offsetBuf, delayBuf [16]float64
	offsets, delays := offsetBuf[:0], delayBuf[:0]
	for i := 0; i < cfg.Rounds; i++ {
		d1 := sampleDelay(r, cfg.MeanLinkDelayNs+cfg.AsymmetryNs, cfg.LinkJitterNs)
		d2 := sampleDelay(r, cfg.MeanLinkDelayNs, cfg.LinkJitterNs)

		t1 := clk.Now()
		clk.Advance(d1)
		t2 := dev.DeviceTimeAt(clk.Now())
		clk.Advance(cfg.DeviceTurnaroundNs)
		t3 := dev.DeviceTimeAt(clk.Now())
		clk.Advance(d2)
		t4 := clk.Now()

		offsets = append(offsets, (float64(t2-t1)+float64(t3-t4))/2)
		delays = append(delays, (float64(t4-t1)-float64(t3-t2))/2)
	}

	insertionSort(offsets)
	insertionSort(delays)
	return Result{
		OffsetNs: int64(median(offsets)),
		DelayNs:  int64(median(delays)),
		Rounds:   cfg.Rounds,
		SpreadNs: int64(offsets[len(offsets)-1] - offsets[0]),
	}, nil
}

func sampleDelay(r *clock.Rand, mean, jitter float64) int64 {
	d := mean
	if r != nil {
		d = r.Normal(mean, jitter)
	}
	if d < 1 {
		d = 1
	}
	return int64(d)
}

// insertionSort sorts a few NaN-free rounds in place, faster than
// sort.Float64s at the default 16.
func insertionSort(x []float64) {
	for i := 1; i < len(x); i++ {
		v := x[i]
		j := i
		for ; j > 0 && x[j-1] > v; j-- {
			x[j] = x[j-1]
		}
		x[j] = v
	}
}

// median of a sorted slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
