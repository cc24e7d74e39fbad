package gpu

import (
	"testing"

	"golatest/internal/sim/clock"
)

// BenchmarkKernelMaterialization measures the simulator's hot path: the
// per-iteration timeline integration across a mid-kernel clock change.
func BenchmarkKernelMaterialization(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clk := clock.New()
		d, err := New(Config{
			Name:     "bench-gpu",
			SMCount:  4,
			FreqsMHz: []float64{600, 1200},
			Latency:  fixedModel{bus: 50_000, dur: 10_000_000},
			Seed:     uint64(i),
		}, clk)
		if err != nil {
			b.Fatal(err)
		}
		k, err := d.Launch(KernelSpec{Iters: 2000, CyclesPerIter: 150_000})
		if err != nil {
			b.Fatal(err)
		}
		clk.Advance(5_000_000)
		if _, err := d.SetFrequency(600); err != nil {
			b.Fatal(err)
		}
		d.Synchronize()
		if !k.Done() {
			b.Fatal("kernel not materialised")
		}
	}
}

// BenchmarkTimelineLookups measures randomish-access frequency queries
// against a long timeline.
func BenchmarkTimelineLookups(b *testing.B) {
	tl := newTimeline(0, 1000)
	for t := int64(1); t <= 1000; t++ {
		tl.add(t*1_000_000, 500+float64(t%100)*10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.freqAt(int64(i%1000) * 997_000)
	}
}

// deviceTimeSink keeps BenchmarkDeviceTimeAt's result live, so the
// compiler cannot remove the call it measures.
var deviceTimeSink int64

// BenchmarkDeviceTimeAt measures the timestamp conversion used for every
// recorded iteration boundary.
func BenchmarkDeviceTimeAt(b *testing.B) {
	d, err := New(Config{
		Name:          "bench-gpu",
		SMCount:       1,
		FreqsMHz:      []float64{1000},
		ClockOffsetNs: 123_456_789,
		ClockDriftPPM: 3,
		Latency:       fixedModel{},
		Seed:          1,
	}, clock.New())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deviceTimeSink = d.DeviceTimeAt(int64(i) * 1013)
	}
}

// BenchmarkWarmKernelStreamed measures the shape that dominates a
// campaign's simulation time: back-to-back warm-up kernels streaming into
// a tail-window sink, which is delivered only each block's last 100
// iterations. It reports host nanoseconds per simulated iteration.
func BenchmarkWarmKernelStreamed(b *testing.B) {
	const iters, blocks = 2000, 4
	d, err := New(Config{
		Name:     "bench-gpu",
		SMCount:  blocks,
		FreqsMHz: []float64{600, 1200},
		Latency:  fixedModel{bus: 50_000, dur: 10_000_000},
		Seed:     1,
	}, clock.New())
	if err != nil {
		b.Fatal(err)
	}
	sink := NewTailSink(100)
	spec := KernelSpec{Iters: iters, CyclesPerIter: 150_000, Blocks: blocks}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.Reset()
		if _, err := d.LaunchWithSink(spec, sink); err != nil {
			b.Fatal(err)
		}
		d.Synchronize()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*iters*blocks), "ns/iter")
}
