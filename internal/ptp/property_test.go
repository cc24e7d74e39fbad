package ptp

import (
	"testing"
	"testing/quick"

	"golatest/internal/sim/clock"
)

// TestOffsetRecoveryProperty: for arbitrary constant device offsets and
// symmetric link jitter, the estimator recovers the offset within a few
// jitter standard deviations.
func TestOffsetRecoveryProperty(t *testing.T) {
	f := func(rawOffset int32, jitterSeed uint8, seed uint16) bool {
		offset := int64(rawOffset) // up to ±2.1 s
		if offset < 0 {
			offset = -offset
		}
		jitter := float64(jitterSeed%50+1) * 20 // 20 ns – 1 µs
		clk := clock.NewAt(1_000_000)
		r := clock.NewRand(uint64(seed)+1, 99)
		res, err := Sync(clk, shiftClock{offset: offset}, Config{
			Rounds:       24,
			LinkJitterNs: jitter,
		}, r)
		if err != nil {
			return false
		}
		errNs := res.OffsetNs - offset
		if errNs < 0 {
			errNs = -errNs
		}
		// Median-of-24 symmetric-jitter estimate: well within 3 jitter
		// sigmas plus the device turnaround rounding.
		return float64(errNs) <= 3*jitter+500
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
