package ptp

import (
	"math"
	"slices"
	"sort"
	"testing"

	"golatest/internal/sim/clock"
	"golatest/internal/sim/gpu"
)

// shiftClock is a minimal DeviceClock with a constant offset.
type shiftClock struct{ offset int64 }

func (s shiftClock) DeviceTimeAt(hostNs int64) int64 { return hostNs + s.offset }

func TestSyncRecoversConstantOffset(t *testing.T) {
	clk := clock.NewAt(1_000_000)
	r := clock.NewRand(1, 2)
	res, err := Sync(clk, shiftClock{offset: 123_456_789}, Config{}, r)
	if err != nil {
		t.Fatal(err)
	}
	if diff := res.OffsetNs - 123_456_789; diff < -2000 || diff > 2000 {
		t.Fatalf("offset error %d ns (got %d)", diff, res.OffsetNs)
	}
	if res.DelayNs < 500 || res.DelayNs > 5000 {
		t.Fatalf("delay estimate %d ns implausible", res.DelayNs)
	}
	if res.Rounds != 16 {
		t.Fatalf("Rounds = %d, want default 16", res.Rounds)
	}
}

func TestSyncAdvancesHostClock(t *testing.T) {
	clk := clock.New()
	r := clock.NewRand(3, 4)
	before := clk.Now()
	if _, err := Sync(clk, shiftClock{}, Config{Rounds: 8}, r); err != nil {
		t.Fatal(err)
	}
	if clk.Now() <= before {
		t.Fatal("Sync did not consume virtual time")
	}
}

func TestSyncNilDevice(t *testing.T) {
	if _, err := Sync(clock.New(), nil, Config{}, clock.NewRand(1, 1)); err == nil {
		t.Fatal("nil device accepted")
	}
}

func TestSyncAsymmetryBias(t *testing.T) {
	// A one-sided extra delay of 2A biases the estimate by about +A
	// toward the device.
	clk := clock.New()
	r := clock.NewRand(5, 6)
	const asym = 10_000
	res, err := Sync(clk, shiftClock{offset: 0}, Config{AsymmetryNs: asym, LinkJitterNs: 1}, r)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(asym / 2)
	if diff := res.OffsetNs - want; diff < -1500 || diff > 1500 {
		t.Fatalf("asymmetry bias = %d, want ≈%d", res.OffsetNs, want)
	}
}

func TestSyncAgainstSimulatedGPU(t *testing.T) {
	clk := clock.NewAt(5_000_000)
	cfg := gpu.Config{
		Name:          "sync-target",
		SMCount:       2,
		FreqsMHz:      []float64{500, 1000},
		ClockOffsetNs: 987_654_321,
		ClockDriftPPM: 5,
		Latency:       fixedModel{},
		Seed:          7,
	}
	dev, err := gpu.New(cfg, clk)
	if err != nil {
		t.Fatal(err)
	}
	r := clock.NewRand(9, 9)
	res, err := Sync(clk, dev, Config{Rounds: 32}, r)
	if err != nil {
		t.Fatal(err)
	}
	// The recovered offset must map host times onto the device timeline
	// within quantisation + jitter (a few µs).
	host := clk.Now()
	wantDev := dev.DeviceTimeAt(host)
	gotDev := res.HostToDevice(host)
	if diff := gotDev - wantDev; diff < -5000 || diff > 5000 {
		t.Fatalf("HostToDevice error %d ns", diff)
	}
}

func TestSyncSpreadReflectsJitter(t *testing.T) {
	clk := clock.New()
	quiet, _ := Sync(clk, shiftClock{}, Config{LinkJitterNs: 1}, clock.NewRand(1, 1))
	noisy, _ := Sync(clk, shiftClock{}, Config{LinkJitterNs: 5000}, clock.NewRand(1, 1))
	if quiet.SpreadNs >= noisy.SpreadNs {
		t.Fatalf("spread: quiet %d >= noisy %d", quiet.SpreadNs, noisy.SpreadNs)
	}
}

// fixedModel satisfies gpu.LatencyModel for device construction.
type fixedModel struct{}

func (fixedModel) Sample(init, target float64, r *clock.Rand) gpu.Transition {
	return gpu.Transition{}
}

// TestInsertionSortMatchesSort checks Sync's sort of its rounds against
// sort.Float64s, on the default 16 rounds and on other lengths.
func TestInsertionSortMatchesSort(t *testing.T) {
	r := clock.NewRand(9, 0)
	for _, n := range []int{0, 1, 2, 15, 16, 17, 64} {
		for trial := 0; trial < 50; trial++ {
			x := make([]float64, n)
			for i := range x {
				x[i] = math.Round(r.Normal(0, 300)) / 2 // ties happen
			}
			want := slices.Clone(x)
			sort.Float64s(want)
			insertionSort(x)
			if !slices.Equal(x, want) {
				t.Fatalf("n=%d: %v, want %v", n, x, want)
			}
		}
	}
}
