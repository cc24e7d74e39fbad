package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// swapPool replaces the measurement-step pool with one of the given
// capacity and returns a function that restores it. No step may be in
// flight across either call.
func swapPool(capacity int) (restore func()) {
	saved := pool
	pool = make(chan struct{}, capacity)
	return func() { pool = saved }
}

// runCampaignAt executes the full reference campaign with a step pool of
// the given capacity.
func runCampaignAt(t *testing.T, parallelism int) *Result {
	t.Helper()
	defer swapPool(parallelism)()
	dev := testDevice(t, pairModel{upNs: 10_000_000, downNs: 5_000_000}, nil)
	r, err := NewRunner(dev, quickConfig(600, 900, 1200))
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// samePairResult compares everything the campaign derives per pair:
// identical samples in identical order, the same measurement metadata,
// and the same downstream statistics.
func samePairResult(t *testing.T, parallelism int, a, b *PairResult) {
	t.Helper()
	if a.Pair != b.Pair {
		t.Fatalf("parallelism %d: pair order diverged: %v vs %v", parallelism, a.Pair, b.Pair)
	}
	if len(a.Samples) != len(b.Samples) {
		t.Fatalf("parallelism %d: %v: %d vs %d samples", parallelism, a.Pair, len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("parallelism %d: %v sample %d: %v vs %v",
				parallelism, a.Pair, i, a.Samples[i], b.Samples[i])
		}
		ia, ib := a.Injected[i], b.Injected[i]
		if ia != ib && !(math.IsNaN(ia) && math.IsNaN(ib)) {
			t.Fatalf("parallelism %d: %v injected %d: %v vs %v", parallelism, a.Pair, i, ia, ib)
		}
	}
	for i := range a.Measurements {
		ma, mb := a.Measurements[i], b.Measurements[i]
		if ma.TsDevNs != mb.TsDevNs || ma.TeDevNs != mb.TeDevNs || ma.SM != mb.SM ||
			ma.TransitionIndex != mb.TransitionIndex {
			t.Fatalf("parallelism %d: %v measurement %d diverged: %+v vs %+v",
				parallelism, a.Pair, i, ma, mb)
		}
	}
	if a.Attempts != b.Attempts || a.Failures != b.Failures ||
		a.DiscardedByThrottle != b.DiscardedByThrottle || a.Skipped != b.Skipped {
		t.Fatalf("parallelism %d: %v bookkeeping diverged", parallelism, a.Pair)
	}
	if a.Summary != b.Summary {
		t.Fatalf("parallelism %d: %v summary diverged: %+v vs %+v",
			parallelism, a.Pair, a.Summary, b.Summary)
	}
}

// TestRunIdenticalAcrossParallelism is the determinism contract of the
// parallel campaign engine: because every pair runs on its own
// deterministically seeded device replica, the sweep's results are
// bit-for-bit identical at every capacity of the step pool (1, 4 and
// NumCPU). Running at NumCPU also exercises the pool under the race
// detector when the suite runs with -race.
func TestRunIdenticalAcrossParallelism(t *testing.T) {
	serial := runCampaignAt(t, 1)
	if len(serial.Pairs) != 6 {
		t.Fatalf("serial pairs = %d, want 6", len(serial.Pairs))
	}
	levels := []int{4, runtime.NumCPU()}
	for _, par := range levels {
		got := runCampaignAt(t, par)
		if len(got.Pairs) != len(serial.Pairs) {
			t.Fatalf("parallelism %d: %d pairs vs %d", par, len(got.Pairs), len(serial.Pairs))
		}
		if got.CaptureHintNs != serial.CaptureHintNs {
			t.Fatalf("parallelism %d: capture hint %d vs %d", par, got.CaptureHintNs, serial.CaptureHintNs)
		}
		for i := range got.Pairs {
			samePairResult(t, par, serial.Pairs[i], got.Pairs[i])
		}
	}
}

// TestStepPool runs 50 tasks through steps: every task runs, at most
// the pool's capacity are in flight at once, results land by index, and
// the lowest-indexed error is returned. With one slot the tasks run in
// index order, so a failure stops every task after it.
func TestStepPool(t *testing.T) {
	tasks := make([]int, 50)
	for i := range tasks {
		tasks[i] = i
	}
	var inFlight, peak, ran atomic.Int64
	task := func(fail ...int) func(int) (int, error) {
		return func(i int) (int, error) {
			n := inFlight.Add(1)
			defer inFlight.Add(-1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			ran.Add(1)
			if slices.Contains(fail, i) {
				return 0, fmt.Errorf("task %d failed", i)
			}
			time.Sleep(time.Millisecond) // hold the slot so the tasks overlap
			return 10 * i, nil
		}
	}

	out, err := steps(tasks, task())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != 10*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, 10*i)
		}
	}
	if ran.Load() != int64(len(tasks)) {
		t.Errorf("%d of %d tasks ran", ran.Load(), len(tasks))
	}
	if got, want := peak.Load(), int64(min(cap(pool), len(tasks))); got != want {
		t.Errorf("peak in-flight steps = %d, want the pool's capacity %d", got, want)
	}

	out, err = steps(tasks, task(41, 7, 23))
	if err == nil || err.Error() != "task 7 failed" || out != nil {
		t.Fatalf("steps = %v, %v; want nil, the lowest-indexed error (task 7)", out, err)
	}
	if got := peak.Load(); got > int64(cap(pool)) {
		t.Errorf("peak in-flight steps = %d, over the pool's capacity %d", got, cap(pool))
	}

	defer swapPool(1)()
	ran.Store(0)
	if _, err := steps(tasks, task(41, 7, 23)); err == nil || err.Error() != "task 7 failed" {
		t.Fatalf("one slot: err = %v, want task 7's", err)
	}
	if ran.Load() != 8 {
		t.Errorf("one slot: %d tasks ran, want tasks 0–7 only", ran.Load())
	}
}

// TestReplicaSeedingIsPairLocal pins the property the sweep's determinism
// rests on: a pair's replica seed depends only on the device seed and the
// pair itself, not on sweep composition or worker interleaving.
func TestReplicaSeedingIsPairLocal(t *testing.T) {
	a := pairTag(77, Pair{InitMHz: 600, TargetMHz: 1200})
	b := pairTag(77, Pair{InitMHz: 600, TargetMHz: 1200})
	if a != b {
		t.Fatal("pairTag not deterministic")
	}
	if pairTag(77, Pair{InitMHz: 1200, TargetMHz: 600}) == a {
		t.Fatal("pairTag direction-blind: init→target and target→init collide")
	}
	if pairTag(78, Pair{InitMHz: 600, TargetMHz: 1200}) == a {
		t.Fatal("pairTag ignores the device seed")
	}
}
