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
// contract. It was re-pinned with store.SchemaVersion 2, when the
// warm-up iterations no sink reads began to elapse in one draw per clock
// segment, with SchemaVersion 4, when phase 3 began to fold each
// block's confirmation tail into one draw per clock segment, and with
// SchemaVersion 5, when phase 3 began to elapse the clock segments
// whose iterations cannot reach the detection band undelivered and the
// warm-up check began to fold its tail window, and with SchemaVersion 6,
// when a pair's replica began to keep the per-SM speeds of the chip
// phase 1 characterised instead of drawing its own, and with
// SchemaVersion 7, when phase 1's unread warm kernels began to only
// elapse and the wake window's undelivered iterations to elapse in
// chunks. With SchemaVersion 10 the digest dropped the phase-1
// normality flag, which is gone; the run itself did not change (the
// schema-9 code yields this digest once its flag term is dropped).
const goldenRunSHA256 = "95c39e93c07da7d3ca9acd59010ce4141c4a7b2e71380ccfbe31067e8cb42e09"

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
