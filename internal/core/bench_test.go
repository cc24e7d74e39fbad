package core

import (
	"errors"
	"testing"

	"golatest/internal/hwprofile"
	"golatest/internal/nvml"
	"golatest/internal/ptp"
	"golatest/internal/sim/clock"
)

// BenchmarkPhase3Kernel measures phase 3's hot loop: a GH200 benchmark
// kernel of the quick campaigns' shape (three blocks, a 550 ms capture
// hint, a 1500→1095 MHz switch) streamed into the detection sink, which
// detects on every block and folds each block's confirmation tail. The
// 1500 MHz iterations cannot reach the 1095 MHz band, so the sink does
// not hear them and their segment elapses in a few draws; only the
// iterations near the segment's end and the 1095 MHz ones up to
// detection are simulated one by one. The warm-up before each kernel
// runs off the timer. ns/op is per kernel and the comparable figure;
// ns/iter divides the kernels' time by the iterations simulated one by
// one (the device's count), a denominator the gate shrank to a few per
// block, so it mostly carries each kernel's fixed costs.
func BenchmarkPhase3Kernel(b *testing.B) {
	sim, err := hwprofile.GH200().NewDevice(clock.New())
	if err != nil {
		b.Fatal(err)
	}
	lib, err := nvml.New(sim)
	if err != nil {
		b.Fatal(err)
	}
	dev, err := lib.DeviceHandleByIndex(0)
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewRunner(dev, Config{
		Frequencies:      []float64{1095, 1500},
		Blocks:           3,
		MaxLatencyHintNs: 550_000_000,
	})
	if err != nil {
		b.Fatal(err)
	}
	p1, err := r.phase1()
	if err != nil {
		b.Fatal(err)
	}
	pair := Pair{InitMHz: 1500, TargetMHz: 1095}
	initStat, targetStat, err := r.pairStats(pair, p1)
	if err != nil {
		b.Fatal(err)
	}
	sync, err := ptp.Sync(r.ctx.Clock(), sim, r.cfg.PTP, r.rng)
	if err != nil {
		b.Fatal(err)
	}
	cycles := r.cyclesFor(pair)
	iterInitNs := iterNsAt(cycles, pair.InitMHz)
	var oneByOne int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := r.dev.SetApplicationsClocks(0, pair.InitMHz); err != nil {
			b.Fatal(err)
		}
		if err := r.ensureInitialClock(initStat, cycles, iterInitNs); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		before := sim.IterCounts().OneByOne
		if _, _, err := r.benchmarkKernel(pair, cycles, iterInitNs, targetStat, sync); err != nil {
			b.Fatal(err)
		}
		if _, err := r.detect.verdict(); err != nil && !errors.Is(err, errConfirmFailed) {
			b.Fatal(err)
		}
		oneByOne += sim.IterCounts().OneByOne - before
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(oneByOne), "ns/iter")
}
