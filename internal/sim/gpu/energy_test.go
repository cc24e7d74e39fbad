package gpu

import (
	"math"
	"testing"
	"time"

	"golatest/internal/sim/clock"
)

func energyDevice(t *testing.T, mutate func(*Config)) (*Device, *clock.Clock) {
	t.Helper()
	cfg := testConfig()
	cfg.IterJitterSigma = 1e-9
	cfg.SMSpeedSigma = 1e-9
	cfg.IdleTimeoutNs = int64(time.Hour) // keep wake effects out
	if mutate != nil {
		mutate(&cfg)
	}
	return newTestDevice(t, cfg)
}

func TestEnergyIdleDraw(t *testing.T) {
	d, _ := energyDevice(t, nil)
	clk := d.Clock()
	clk.Sleep(10 * time.Second)
	got := d.EnergyJ()
	want := 60.0 * 10 // IdlePowerW × 10 s
	if math.Abs(got-want) > 1 {
		t.Fatalf("idle energy = %v J, want %v", got, want)
	}
}

func TestEnergyBusyAboveIdle(t *testing.T) {
	d, _ := energyDevice(t, nil)
	// ~1 s of load at the default 1200 MHz clock.
	if _, err := d.Launch(KernelSpec{Iters: 100, CyclesPerIter: 12_000_000, Blocks: 1}); err != nil {
		t.Fatal(err)
	}
	d.Synchronize()
	got := d.EnergyJ()
	// busyPower(1200 of 1500 max) = 60 + 340·0.8³ ≈ 234 W for ~1 s.
	if got < 180 || got > 280 {
		t.Fatalf("busy energy = %v J, want ≈234", got)
	}
}

func TestEnergyRaceToIdleTradeoff(t *testing.T) {
	// Same total work at 600 vs 1200 MHz. Cube-law busy power means the
	// slower clock wins on busy energy (E ∝ f² for fixed work) as long
	// as idle draw over the freed time is not charged to the job — the
	// classic DVFS trade-off the paper's motivation leans on.
	run := func(freq float64) float64 {
		d, _ := energyDevice(t, nil)
		clk := d.Clock()
		inj, err := d.SetFrequency(freq)
		if err != nil {
			t.Fatal(err)
		}
		clk.AdvanceTo(inj.CompleteNs)
		before := d.EnergyJ()
		if _, err := d.Launch(KernelSpec{Iters: 100, CyclesPerIter: 6_000_000, Blocks: 1}); err != nil {
			t.Fatal(err)
		}
		d.Synchronize()
		return d.EnergyJ() - before
	}
	slow := run(600)
	fast := run(1200)
	if slow >= fast {
		t.Fatalf("cube law violated: E(600)=%v J ≥ E(1200)=%v J", slow, fast)
	}
	// Expected ratio ≈ (60+340·0.4³)/(60+340·0.8³) × 2 (longer runtime):
	// ≈ (81.8/234)·2 ≈ 0.70.
	ratio := slow / fast
	if ratio < 0.5 || ratio > 0.9 {
		t.Fatalf("energy ratio = %v, want ≈0.7", ratio)
	}
}

func TestEnergyMonotoneNonDecreasing(t *testing.T) {
	d, _ := energyDevice(t, nil)
	clk := d.Clock()
	prev := d.EnergyJ()
	for i := 0; i < 5; i++ {
		if _, err := d.Launch(KernelSpec{Iters: 10, CyclesPerIter: 500_000, Blocks: 1}); err != nil {
			t.Fatal(err)
		}
		d.Synchronize()
		clk.Sleep(50 * time.Millisecond)
		got := d.EnergyJ()
		if got < prev {
			t.Fatalf("energy decreased: %v → %v", prev, got)
		}
		prev = got
	}
}

func TestEnergyConfigValidation(t *testing.T) {
	cfg := testConfig()
	cfg.IdlePowerW = 300
	cfg.MaxBusyPowerW = 100
	if _, err := New(cfg, clock.New()); err == nil {
		t.Fatal("MaxBusyPowerW below IdlePowerW accepted")
	}
}

// TestEnergyMeteredAtTheClockTheKernelRan checks that a throttle a kernel
// latches applies only from the next kernel on, for energy as for time:
// a 1 s kernel at 1200 MHz that latches the 600 MHz power cap runs, and
// is metered, exactly like the same kernel on a device with no cap
// (≈234 J, not the ≈83 J of the clamp it never ran at).
func TestEnergyMeteredAtTheClockTheKernelRan(t *testing.T) {
	run := func(capMHz float64) (endNs int64, joules float64, reasons ThrottleReason) {
		d, _ := energyDevice(t, func(c *Config) {
			c.PowerCapMHz = capMHz
			c.PowerCapDelayNs = int64(10 * time.Millisecond)
		})
		k, err := d.Launch(KernelSpec{Iters: 100, CyclesPerIter: 12_000_000, Blocks: 1})
		if err != nil {
			t.Fatal(err)
		}
		d.Synchronize()
		return k.EndNs(), d.EnergyJ(), d.ThrottleReasons()
	}
	freeEnd, freeJ, _ := run(0)
	capEnd, capJ, reasons := run(600)
	if !reasons.Has(ThrottlePower) {
		t.Fatalf("capped kernel latched %v, want the power cap", reasons)
	}
	if capEnd != freeEnd {
		t.Fatalf("capped kernel ended at %d ns, unclamped at %d ns", capEnd, freeEnd)
	}
	if capJ != freeJ {
		t.Fatalf("capped kernel metered %v J, unclamped %v J", capJ, freeJ)
	}
}
