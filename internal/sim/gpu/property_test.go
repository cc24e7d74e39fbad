package gpu

import (
	"testing"
	"testing/quick"

	"golatest/internal/sim/clock"
)

// TestIntegrationConservationProperty: for any schedule of clock changes,
// a block's iterations tile its execution span exactly — no gaps, no
// overlaps, no lost cycles (in host time, before timestamp quantisation
// hides sub-quantum structure). We verify via device timestamps with a
// 1 ns quantum so quantisation is exact.
func TestIntegrationConservationProperty(t *testing.T) {
	f := func(changes []uint8, seed uint16) bool {
		clk := clock.New()
		d, err := New(Config{
			Name:           "prop-gpu",
			SMCount:        2,
			FreqsMHz:       []float64{500, 750, 1000, 1250},
			TimerQuantumNs: 1,
			WakeDelayNs:    1,
			Latency:        fixedModel{bus: 1000, dur: 100_000},
			Seed:           uint64(seed) + 1,
		}, clk)
		if err != nil {
			return false
		}
		k, err := d.Launch(KernelSpec{Iters: 200, CyclesPerIter: 50_000, Blocks: 1})
		if err != nil {
			return false
		}
		freqs := d.Config().FreqsMHz
		for i, c := range changes {
			if i >= 6 {
				break
			}
			clk.Advance(int64(c)*100_000 + 50_000)
			if _, err := d.SetFrequency(freqs[int(c)%len(freqs)]); err != nil {
				return false
			}
		}
		d.Synchronize()
		block := k.Samples()[0]
		for i := 1; i < len(block); i++ {
			if block[i].StartNs != block[i-1].EndNs {
				return false // gap or overlap between iterations
			}
		}
		for _, it := range block {
			if it.DurNs() <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestInjectionOrderingProperty: injections come in request order with
// apply ≥ request and complete ≥ apply, whatever the call pattern, and
// LastInjection reports each as it is issued.
func TestInjectionOrderingProperty(t *testing.T) {
	f := func(steps []uint8) bool {
		clk := clock.New()
		d, err := New(Config{
			Name:     "prop-gpu",
			SMCount:  1,
			FreqsMHz: []float64{500, 750, 1000},
			Latency:  fixedModel{bus: 5_000, dur: 2_000_000},
			Seed:     7,
		}, clk)
		if err != nil {
			return false
		}
		freqs := d.Config().FreqsMHz
		var prevReq int64 = -1
		for i, s := range steps {
			if i >= 12 {
				break
			}
			clk.Advance(int64(s) * 300_000)
			in, err := d.SetFrequency(freqs[int(s)%len(freqs)])
			if err != nil {
				return false
			}
			if last, ok := d.LastInjection(); !ok || last != in {
				return false
			}
			if in.RequestNs < prevReq {
				return false
			}
			if in.ApplyNs < in.RequestNs || in.CompleteNs < in.ApplyNs {
				return false
			}
			prevReq = in.RequestNs
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestFreqAlwaysInTableProperty: whatever the request sequence, the
// effective clock at any instant is either a table clock or (under a
// ramp) between the two endpoints of an in-flight transition.
func TestFreqAlwaysInTableProperty(t *testing.T) {
	f := func(steps []uint8, probe []uint16) bool {
		clk := clock.New()
		d, err := New(Config{
			Name:     "prop-gpu",
			SMCount:  1,
			FreqsMHz: []float64{400, 800, 1200},
			Latency:  fixedModel{bus: 10_000, dur: 700_000},
			Seed:     3,
		}, clk)
		if err != nil {
			return false
		}
		freqs := d.Config().FreqsMHz
		for i, s := range steps {
			if i >= 8 {
				break
			}
			clk.Advance(int64(s)*100_000 + 1)
			if _, err := d.SetFrequency(freqs[int(s)%len(freqs)]); err != nil {
				return false
			}
		}
		min, max := freqs[0], freqs[len(freqs)-1]
		for i, p := range probe {
			if i >= 8 {
				break
			}
			clk.Advance(int64(p))
			got := d.CurrentFreqMHz()
			if got < min || got > max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
