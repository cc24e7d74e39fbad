package core

import (
	"runtime"
	"testing"

	"golatest/internal/sim/gpu"
)

// TestMeasureOnceAllocationBound bounds the heap bytes one MeasureOnce
// allocates on a wide (64-SM) ablation-style device. Every kernel of an
// attempt — warm-up and benchmark — streams into a reusable runner sink;
// a materialised benchmark trace (64 blocks × ~1k iterations × 16 B,
// about 1 MB) would blow the bound. In steady state an attempt
// allocates nothing at all: streamed kernels have no handle, the timer
// sync keeps its rounds on the stack, and the device's timeline drops
// the segments no later read reaches instead of growing.
func TestMeasureOnceAllocationBound(t *testing.T) {
	const maxBytes = 64 << 10
	dev := testDevice(t, fixedModel{bus: 50_000, dur: 15_000_000 - 50_000}, func(c *gpu.Config) {
		c.SMCount = 64
		c.FreqsMHz = []float64{600, 900, 1200}
	})
	cfg := Config{
		Frequencies:      []float64{600, 1200},
		Blocks:           64,
		ItersPerKernel:   300,
		MinMeasurements:  4,
		MaxMeasurements:  4,
		MaxLatencyHintNs: 40_000_000,
	}
	r, err := NewRunner(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := r.Phase1()
	if err != nil {
		t.Fatal(err)
	}
	pair := Pair{InitMHz: 1200, TargetMHz: 600}
	is, ts, err := r.pairStats(pair, p1)
	if err != nil {
		t.Fatal(err)
	}
	// The first attempt sizes the reusable sinks.
	if _, err := r.MeasureOnce(pair, is, ts); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = r.MeasureOnce(pair, is, ts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > maxBytes {
		t.Fatalf("MeasureOnce allocated %d bytes, want at most %d", got, maxBytes)
	}
	if n := testing.AllocsPerRun(5, func() {
		if _, err := r.MeasureOnce(pair, is, ts); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("MeasureOnce allocates %v times in steady state, want none", n)
	}
}
