package gpu

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"
	"time"
)

// goldenTraceSHA256 pins the exact iteration traces of the scenario in
// TestGoldenTraces. Performance work on the materialisation loop must keep
// it: every timestamp, and therefore every RNG draw and float operation
// behind it, is part of the simulator's determinism contract.
const goldenTraceSHA256 = "261c6efcb4deb2756f2227a27834c7d92cd1014d22da8516ddc90e5e3622bb12"

// hashKernel folds a materialised kernel's timing and full trace into h.
func hashKernel(h hash.Hash, k *Kernel) {
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(k.StartNs())
	put(k.EndNs())
	for _, block := range k.Samples() {
		put(int64(len(block)))
		for _, s := range block {
			put(s.StartNs)
			put(s.EndNs)
		}
	}
}

// TestGoldenTraces runs kernels that cover every branch of the iteration
// loop — the wake window after idle, a mid-kernel ramped transition, a
// power-cap throttle clamp, and a device clock with a negative offset and
// nonzero drift (so quantisation sees negative and positive readings) —
// and compares a digest of their traces against the pinned constant.
func TestGoldenTraces(t *testing.T) {
	cfg := testConfig()
	cfg.WakeDelayNs = 2_000_000
	cfg.RampSteps = 3
	cfg.ClockOffsetNs = -987_654_321
	cfg.ClockDriftPPM = 7.5
	cfg.PowerCapMHz = 900
	cfg.PowerCapDelayNs = 20_000_000
	d, clk := newTestDevice(t, cfg)
	spec := KernelSpec{Iters: 400, CyclesPerIter: 120_000, Blocks: 3}

	h := sha256.New()
	launch := func(change func()) {
		t.Helper()
		k, err := d.Launch(spec)
		if err != nil {
			t.Fatal(err)
		}
		if change != nil {
			change()
		}
		d.Synchronize()
		hashKernel(h, k)
	}
	setFreq := func(mhz float64) func() {
		return func() {
			clk.Advance(4_000_000)
			if _, err := d.SetFrequency(mhz); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Cold device: wake window, then a ramp up to 1500 MHz mid-kernel.
	launch(setFreq(1500))
	if !d.ThrottleReasons().Has(ThrottlePower) {
		t.Fatal("scenario did not latch the power cap")
	}
	// Back to back: no wake window, clamped to the 900 MHz cap.
	launch(nil)
	// Dropping to 600 MHz releases the cap; after an idle gap long enough
	// to cross into positive device time, the next kernel wakes again and
	// ramps down to 300 MHz mid-kernel.
	if _, err := d.SetFrequency(600); err != nil {
		t.Fatal(err)
	}
	clk.Sleep(time.Second)
	if d.DeviceTimeAt(clk.Now()) <= 0 {
		t.Fatal("scenario never reached positive device time")
	}
	launch(setFreq(300))

	if got := hex.EncodeToString(h.Sum(nil)); got != goldenTraceSHA256 {
		t.Fatalf("trace digest = %s, want %s", got, goldenTraceSHA256)
	}
}
