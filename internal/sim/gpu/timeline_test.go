package gpu

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimelineFreqAt(t *testing.T) {
	tl := newTimeline(0, 1000)
	tl.add(100, 1200)
	tl.add(200, 800)

	cases := []struct {
		t    int64
		want float64
	}{
		{-5, 1000}, // before first segment: first segment's clock
		{0, 1000},
		{99, 1000},
		{100, 1200},
		{150, 1200},
		{200, 800},
		{1 << 40, 800},
	}
	for _, c := range cases {
		if got := tl.freqAt(c.t); got != c.want {
			t.Errorf("freqAt(%d) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestTimelineAddSupersedes(t *testing.T) {
	tl := newTimeline(0, 1000)
	tl.add(100, 1200)
	tl.add(200, 1400)
	// A request landing at t=150 must drop the scheduled change at 200.
	tl.add(150, 900)
	if got := tl.freqAt(250); got != 900 {
		t.Fatalf("freqAt(250) = %v, want 900 (superseded)", got)
	}
	if got := tl.freqAt(120); got != 1200 {
		t.Fatalf("freqAt(120) = %v, want 1200", got)
	}
}

func TestTimelineAddNoopChange(t *testing.T) {
	tl := newTimeline(0, 1000)
	tl.add(100, 1000) // same clock: must not create a segment
	if len(tl.segs) != 1 {
		t.Fatalf("no-op add created segment: %v", tl.segs)
	}
}

func TestTimelineAddSameInstantReplaces(t *testing.T) {
	tl := newTimeline(0, 1000)
	tl.add(100, 1200)
	tl.add(100, 1300)
	if got := tl.freqAt(100); got != 1300 {
		t.Fatalf("freqAt(100) = %v, want 1300", got)
	}
	if len(tl.segs) != 2 {
		t.Fatalf("same-instant add duplicated segments: %v", tl.segs)
	}
}

func TestTimelineTruncateKeepsFirst(t *testing.T) {
	tl := newTimeline(0, 1000)
	tl.add(100, 1200)
	tl.truncateFrom(0)
	if len(tl.segs) != 1 || tl.segs[0].FreqMHz != 1000 {
		t.Fatalf("truncateFrom(0) = %v", tl.segs)
	}
}

func TestTimelineAddRampStepMode(t *testing.T) {
	tl := newTimeline(0, 1000)
	tl.addRamp(100, 500, 2000, 0)
	if got := tl.freqAt(499); got != 1000 {
		t.Fatalf("step mode: freqAt(499) = %v, want 1000 (hold init)", got)
	}
	if got := tl.freqAt(500); got != 2000 {
		t.Fatalf("step mode: freqAt(500) = %v, want 2000", got)
	}
}

func TestTimelineAddRampIntermediate(t *testing.T) {
	tl := newTimeline(0, 1000)
	tl.addRamp(0, 400, 2000, 3)
	// Steps at fracs 1/4, 2/4, 3/4: clocks 1250, 1500, 1750, then 2000.
	if got := tl.freqAt(150); got != 1250 {
		t.Fatalf("ramp: freqAt(150) = %v, want 1250", got)
	}
	if got := tl.freqAt(350); got != 1750 {
		t.Fatalf("ramp: freqAt(350) = %v, want 1750", got)
	}
	if got := tl.freqAt(400); got != 2000 {
		t.Fatalf("ramp: freqAt(400) = %v, want 2000", got)
	}
	// The clock must be monotone across the ramp for an upward change.
	prev := tl.freqAt(0)
	for ts := int64(0); ts <= 450; ts += 10 {
		f := tl.freqAt(ts)
		if f < prev {
			t.Fatalf("ramp not monotone at t=%d: %v < %v", ts, f, prev)
		}
		prev = f
	}
}

func TestTimelineAddRampDegenerate(t *testing.T) {
	tl := newTimeline(0, 1000)
	tl.addRamp(200, 200, 1500, 4) // zero-duration transition
	if got := tl.freqAt(200); got != 1500 {
		t.Fatalf("degenerate ramp: freqAt(200) = %v, want 1500", got)
	}
}

func TestCursorMatchesFreqAt(t *testing.T) {
	tl := newTimeline(0, 1000)
	tl.add(100, 1100)
	tl.add(250, 900)
	tl.add(600, 1500)
	cur := tl.cursor(0)
	for ts := int64(0); ts < 700; ts += 7 {
		f, end := cur.freqAt(ts)
		if want := tl.freqAt(ts); f != want {
			t.Fatalf("cursor freq at %d = %v, want %v", ts, f, want)
		}
		if end <= ts {
			t.Fatalf("cursor end %d not after t %d", end, ts)
		}
	}
}

func TestCursorSurvivesTimelineGrowth(t *testing.T) {
	tl := newTimeline(0, 1000)
	cur := tl.cursor(0)
	if f, _ := cur.freqAt(50); f != 1000 {
		t.Fatalf("initial freq = %v", f)
	}
	tl.add(100, 1200)
	if f, _ := cur.freqAt(150); f != 1200 {
		t.Fatalf("freq after growth = %v, want 1200", f)
	}
}

// Property: for any sequence of add calls with increasing times, freqAt
// always reports the frequency of the latest segment at or before t, and
// segment starts stay strictly increasing.
func TestTimelineOrderInvariantProperty(t *testing.T) {
	f := func(deltas []uint16, freqs []uint16) bool {
		tl := newTimeline(0, 500)
		tm := int64(0)
		n := len(deltas)
		if len(freqs) < n {
			n = len(freqs)
		}
		for i := 0; i < n; i++ {
			tm += int64(deltas[i]) + 1
			tl.add(tm, 100+float64(freqs[i]%2000))
		}
		for i := 1; i < len(tl.segs); i++ {
			if tl.segs[i].StartNs <= tl.segs[i-1].StartNs {
				return false
			}
			if tl.segs[i].FreqMHz == tl.segs[i-1].FreqMHz {
				return false // adjacent duplicates must be merged
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCursorFinalSegmentEnd(t *testing.T) {
	tl := newTimeline(0, 1000)
	cur := tl.cursor(0)
	_, end := cur.freqAt(10)
	if end != math.MaxInt64 {
		t.Fatalf("final segment end = %d, want MaxInt64", end)
	}
}

// TestTimelineDropBefore checks that dropping the segments that ended
// before t leaves every read at t or later unchanged, including at
// segment boundaries and at t itself.
func TestTimelineDropBefore(t *testing.T) {
	build := func() *timeline {
		tl := newTimeline(0, 1000)
		tl.add(100, 1200)
		tl.add(200, 800)
		tl.add(300, 1400)
		return tl
	}
	for _, cut := range []int64{-5, 0, 99, 100, 150, 200, 300, 1 << 40} {
		ref, tl := build(), build()
		tl.dropBefore(cut)
		for _, at := range []int64{cut, cut + 1, 100, 150, 199, 200, 250, 300, 1 << 41} {
			if at < cut {
				continue
			}
			if got, want := tl.freqAt(at), ref.freqAt(at); got != want {
				t.Fatalf("dropBefore(%d): freqAt(%d) = %v, want %v", cut, at, got, want)
			}
		}
		if want := len(ref.segs) - ref.indexAt(cut); len(tl.segs) != want {
			t.Fatalf("dropBefore(%d) kept %d segments, want %d", cut, len(tl.segs), want)
		}
	}
}

// TestTimelineStaysBounded drives a device through a long campaign-like
// loop — a kernel launched, a clock request while it is queued, then a
// synchronise — and checks that the timeline keeps only the segments a
// later read can reach, instead of growing with every request.
func TestTimelineStaysBounded(t *testing.T) {
	cfg := testConfig()
	cfg.RampSteps = 4
	dev, clk := newTestDevice(t, cfg)
	spec := KernelSpec{Iters: 20, CyclesPerIter: 120_000, Blocks: 1}
	freqs := []float64{600, 900, 1200, 1500}
	for i := 0; i < 500; i++ {
		if err := dev.LaunchWithSink(spec, new(MomentSink)); err != nil {
			t.Fatal(err)
		}
		if _, err := dev.SetFrequency(freqs[i%len(freqs)]); err != nil {
			t.Fatal(err)
		}
		dev.Synchronize()
		clk.Advance(20_000_000)
	}
	if n := len(dev.tl.segs); n > 2*(cfg.RampSteps+2) {
		t.Fatalf("timeline holds %d segments after 500 requests", n)
	}
}
