package nvml

import (
	"testing"

	"golatest/internal/sim/clock"
	"golatest/internal/sim/gpu"
)

type fixedModel struct{ bus, dur int64 }

func (m fixedModel) Sample(init, target float64, r *clock.Rand) gpu.Transition {
	return gpu.Transition{BusDelayNs: m.bus, DurationNs: m.dur}
}

func newLib(t *testing.T, n int) (*Library, *clock.Clock) {
	t.Helper()
	clk := clock.New()
	devs := make([]*gpu.Device, n)
	for i := range devs {
		d, err := gpu.New(gpu.Config{
			Name:         "nvml-gpu",
			Architecture: "Test",
			Driver:       "123.45",
			SMCount:      3,
			MemFreqMHz:   1215,
			FreqsMHz:     []float64{400, 800, 1200},
			Latency:      fixedModel{bus: 2000, dur: 5_000_000},
			Seed:         uint64(i + 1),
		}, clk)
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = d
	}
	lib, err := New(devs...)
	if err != nil {
		t.Fatal(err)
	}
	return lib, clk
}

func TestNewValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Fatal("empty device list accepted")
	}
	if _, err := New(nil); err == nil {
		t.Fatal("nil device accepted")
	}
}

func TestEnumeration(t *testing.T) {
	lib, _ := newLib(t, 3)
	for i := 0; i < 3; i++ {
		d, err := lib.DeviceHandleByIndex(i)
		if err != nil {
			t.Fatal(err)
		}
		// newLib seeds device i with i+1: the handle keeps index order.
		if got := d.Sim().Config().Seed; got != uint64(i+1) {
			t.Fatalf("handle %d wraps the device seeded %d, want %d", i, got, i+1)
		}
	}
	if _, err := lib.DeviceHandleByIndex(3); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if _, err := lib.DeviceHandleByIndex(-1); err == nil {
		t.Fatal("negative index accepted")
	}
}

func TestDeviceMetadata(t *testing.T) {
	lib, _ := newLib(t, 1)
	d, _ := lib.DeviceHandleByIndex(0)
	if d.Name() != "nvml-gpu" || d.Architecture() != "Test" {
		t.Fatalf("metadata: %s %s", d.Name(), d.Architecture())
	}
}

func TestSetApplicationsClocks(t *testing.T) {
	lib, clk := newLib(t, 1)
	d, _ := lib.DeviceHandleByIndex(0)

	before := clk.Now()
	if err := d.SetApplicationsClocks(1215, 800); err != nil {
		t.Fatal(err)
	}
	if clk.Now() <= before {
		t.Fatal("driver call consumed no host time")
	}
	if got := d.ApplicationsClockSM(); got != 800 {
		t.Fatalf("ApplicationsClockSM = %v", got)
	}
	// Wrong memory clock and unsupported SM clock are rejected.
	if err := d.SetApplicationsClocks(9999, 800); err == nil {
		t.Fatal("wrong memory clock accepted")
	}
	if err := d.SetApplicationsClocks(0, 777); err == nil {
		t.Fatal("unsupported SM clock accepted")
	}
}

func TestClockInfoTracksTransition(t *testing.T) {
	lib, clk := newLib(t, 1)
	d, _ := lib.DeviceHandleByIndex(0)
	if err := d.SetApplicationsClocks(0, 400); err != nil {
		t.Fatal(err)
	}
	// Immediately after the call the transition (5 ms) is in flight.
	if got := d.ClockInfoSM(); got != 1200 {
		t.Fatalf("mid-transition ClockInfoSM = %v, want 1200", got)
	}
	clk.Advance(10_000_000)
	if got := d.ClockInfoSM(); got != 400 {
		t.Fatalf("post-transition ClockInfoSM = %v, want 400", got)
	}
}

func TestThrottleAndTemperatureQueries(t *testing.T) {
	lib, _ := newLib(t, 1)
	d, _ := lib.DeviceHandleByIndex(0)
	if r := d.ClocksThrottleReasons(); r != gpu.ThrottleNone {
		t.Fatalf("throttle reasons at rest = %v", r)
	}
	if temp := d.Temperature(); temp != 30 {
		t.Fatalf("temperature at rest = %v, want ambient 30", temp)
	}
}

func TestSimAccessorExposesGroundTruth(t *testing.T) {
	lib, _ := newLib(t, 1)
	d, _ := lib.DeviceHandleByIndex(0)
	if err := d.SetApplicationsClocks(0, 800); err != nil {
		t.Fatal(err)
	}
	inj, ok := d.Sim().LastInjection()
	if !ok || inj.TargetMHz != 800 {
		t.Fatalf("ground truth injection = %+v, %v", inj, ok)
	}
	if inj.SwitchingLatencyNs() != 2000+5_000_000 {
		t.Fatalf("injected latency = %d", inj.SwitchingLatencyNs())
	}
}
