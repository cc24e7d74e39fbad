package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"golatest/internal/sim/gpu"
)

// goldenRunSHA256 pins the exact outcome of the campaign in
// TestGoldenRun. Performance work on the simulator or on the warm-up and
// phase-1 paths must keep it: phase-1 moments, warm-up verdicts, every
// accepted latency and its ground truth are part of the determinism
// contract.
const goldenRunSHA256 = "62aadfc23627e3f403ba18877f9d6b9b32f21e897536a500c303e652515d03b9"

// TestGoldenRun runs a small campaign — ramped transitions, a device
// clock with a negative offset and drift — and compares a digest of its
// phase-1 characterisation, samples and injected latencies against the
// pinned constant.
func TestGoldenRun(t *testing.T) {
	dev := testDevice(t, pairModel{upNs: 10_000_000, downNs: 5_000_000}, func(c *gpu.Config) {
		c.RampSteps = 2
		c.ClockOffsetNs = -2_500_000_000
		c.ClockDriftPPM = -4
	})
	r, err := NewRunner(dev, quickConfig(600, 900, 1200))
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}

	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putF := func(f float64) { put(math.Float64bits(f)) }
	for _, f := range r.Config().Frequencies {
		st := res.Phase1.Stats[f]
		put(uint64(st.Iter.N))
		putF(st.Iter.Mean)
		putF(st.Iter.Std)
		if st.Normalish {
			put(1)
		} else {
			put(0)
		}
	}
	put(uint64(res.CaptureHintNs))
	var samples int
	for _, pr := range res.Pairs {
		putF(pr.Pair.InitMHz)
		putF(pr.Pair.TargetMHz)
		put(uint64(pr.Attempts))
		put(uint64(pr.Failures))
		put(uint64(len(pr.Samples)))
		for i, s := range pr.Samples {
			putF(s)
			putF(pr.Injected[i])
		}
		samples += len(pr.Samples)
	}
	if samples == 0 {
		t.Fatal("campaign accepted no samples")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenRunSHA256 {
		t.Fatalf("run digest = %s, want %s", got, goldenRunSHA256)
	}
}
