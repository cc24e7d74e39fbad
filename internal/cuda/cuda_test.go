package cuda

import (
	"testing"
	"time"

	"golatest/internal/sim/clock"
	"golatest/internal/sim/gpu"
)

type fixedModel struct{ bus, dur int64 }

func (m fixedModel) Sample(init, target float64, r *clock.Rand) gpu.Transition {
	return gpu.Transition{BusDelayNs: m.bus, DurationNs: m.dur}
}

func newCtx(t *testing.T) (*Context, *clock.Clock) {
	t.Helper()
	clk := clock.New()
	dev, err := gpu.New(gpu.Config{
		Name:          "ctx-gpu",
		SMCount:       2,
		FreqsMHz:      []float64{500, 1000},
		ClockOffsetNs: 42_000_000,
		Latency:       fixedModel{bus: 1000, dur: 1_000_000},
		Seed:          3,
	}, clk)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(dev)
	if err != nil {
		t.Fatal(err)
	}
	return ctx, clk
}

func TestNewContextNil(t *testing.T) {
	if _, err := NewContext(nil); err == nil {
		t.Fatal("nil device accepted")
	}
}

func TestUsleepAdvancesClock(t *testing.T) {
	ctx, clk := newCtx(t)
	before := clk.Now()
	ctx.Usleep(250)
	if got := clk.Now() - before; got != 250_000 {
		t.Fatalf("Usleep(250) advanced %d ns, want 250000", got)
	}
	ctx.Usleep(-5) // negative must be a no-op
	if got := clk.Now() - before; got != 250_000 {
		t.Fatalf("negative Usleep advanced the clock")
	}
}

func TestSleep(t *testing.T) {
	ctx, clk := newCtx(t)
	before := clk.Now()
	ctx.Sleep(3 * time.Millisecond)
	if got := clk.Now() - before; got != 3_000_000 {
		t.Fatalf("Sleep advanced %d ns", got)
	}
}

func TestLaunchAndSynchronize(t *testing.T) {
	ctx, clk := newCtx(t)
	k, err := ctx.LaunchKernel(gpu.KernelSpec{Iters: 10, CyclesPerIter: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if k.Done() {
		t.Fatal("kernel done before synchronize")
	}
	before := clk.Now()
	ctx.DeviceSynchronize()
	if !k.Done() {
		t.Fatal("kernel not done after synchronize")
	}
	if clk.Now() <= before {
		t.Fatal("synchronize consumed no virtual time")
	}
}

func TestHostTimestamp(t *testing.T) {
	ctx, clk := newCtx(t)
	clk.Advance(123)
	if got := ctx.HostTimestamp(); got != clk.Now() {
		t.Fatalf("HostTimestamp = %d, want %d", got, clk.Now())
	}
}
