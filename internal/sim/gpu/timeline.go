package gpu

import "sort"

// segment is one piece of the device frequency timeline: from StartNs
// (host timebase) until the next segment's start, the SM clock is FreqMHz.
type segment struct {
	StartNs int64
	FreqMHz float64
}

// timeline is the append-mostly list of frequency segments. It always
// contains at least one segment (the reset clock at time zero) and is
// strictly ordered by StartNs.
type timeline struct {
	segs []segment
}

func newTimeline(startNs int64, freqMHz float64) *timeline {
	return &timeline{segs: []segment{{StartNs: startNs, FreqMHz: freqMHz}}}
}

// freqAt returns the frequency in effect at host time t. Times before the
// first segment report the first segment's frequency.
func (tl *timeline) freqAt(t int64) float64 {
	i := tl.indexAt(t)
	return tl.segs[i].FreqMHz
}

// indexAt returns the index of the segment covering host time t.
func (tl *timeline) indexAt(t int64) int {
	// Binary search for the first segment starting after t, then step back.
	i := sort.Search(len(tl.segs), func(i int) bool { return tl.segs[i].StartNs > t })
	if i == 0 {
		return 0
	}
	return i - 1
}

// dropBefore removes the segments that end at or before t, keeping the
// one in effect at t first, so every read at t or later is unchanged.
func (tl *timeline) dropBefore(t int64) {
	if i := tl.indexAt(t); i > 0 {
		tl.segs = tl.segs[:copy(tl.segs, tl.segs[i:])]
	}
}

// truncateFrom removes every segment starting at or after t. The first
// segment is never removed, keeping the timeline non-empty.
func (tl *timeline) truncateFrom(t int64) {
	keep := len(tl.segs)
	for keep > 1 && tl.segs[keep-1].StartNs >= t {
		keep--
	}
	tl.segs = tl.segs[:keep]
}

// add inserts a segment at time t with the given frequency, replacing any
// scheduled segments at or after t (a new clocks request supersedes an
// in-flight one — real hardware leaves this case undefined; the simulator
// chooses last-writer-wins, the only behaviour a runtime can plan around).
func (tl *timeline) add(t int64, freqMHz float64) {
	tl.truncateFrom(t)
	last := tl.segs[len(tl.segs)-1]
	if last.FreqMHz == freqMHz {
		return // no-op change; avoid zero-width duplicate segments
	}
	if last.StartNs == t {
		tl.segs[len(tl.segs)-1].FreqMHz = freqMHz
		return
	}
	tl.segs = append(tl.segs, segment{StartNs: t, FreqMHz: freqMHz})
}

// addRamp schedules a transition from the frequency in effect at
// applyNs toward targetMHz completing at completeNs. With steps == 0 the
// clock holds until completeNs and then jumps; with k > 0 it passes
// through k intermediate evenly spaced frequencies, emulating hardware
// that "adapts" through the transition (§IV).
func (tl *timeline) addRamp(applyNs, completeNs int64, targetMHz float64, steps int) {
	if completeNs <= applyNs {
		tl.add(applyNs, targetMHz)
		return
	}
	initMHz := tl.freqAt(applyNs)
	tl.truncateFrom(applyNs)
	if steps > 0 && initMHz != targetMHz {
		span := completeNs - applyNs
		for s := 1; s <= steps; s++ {
			frac := float64(s) / float64(steps+1)
			t := applyNs + int64(frac*float64(span))
			f := initMHz + frac*(targetMHz-initMHz)
			tl.add(t, f)
		}
	}
	tl.add(completeNs, targetMHz)
}

// cursor supports amortised-O(1) sequential frequency lookups for the
// kernel materialisation loop, which walks time monotonically.
type cursor struct {
	tl  *timeline
	idx int
}

// cursor returns a cursor positioned at host time t, found by binary
// search: a device's timeline gains segments with every clock request,
// so a walk from its first segment would cost each kernel time linear
// in the device's history.
func (tl *timeline) cursor(t int64) cursor { return cursor{tl: tl, idx: tl.indexAt(t)} }

// freqAt returns the frequency at t and the host time at which the
// current segment ends (the next change boundary), with endNs = maxInt64
// for the final segment. t must be non-decreasing across calls.
func (c *cursor) freqAt(t int64) (freqMHz float64, endNs int64) {
	segs := c.tl.segs
	// The timeline may have grown since the last call; advancing from the
	// remembered index keeps the scan amortised constant-time.
	for c.idx+1 < len(segs) && segs[c.idx+1].StartNs <= t {
		c.idx++
	}
	// A truncation may have invalidated the index; clamp and re-seek.
	if c.idx >= len(segs) {
		c.idx = len(segs) - 1
	}
	if segs[c.idx].StartNs > t {
		c.idx = c.tl.indexAt(t)
	}
	end := int64(1<<63 - 1)
	if c.idx+1 < len(segs) {
		end = segs[c.idx+1].StartNs
	}
	return segs[c.idx].FreqMHz, end
}
