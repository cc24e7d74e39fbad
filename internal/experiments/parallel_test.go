package experiments

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"golatest/internal/core"
	"golatest/internal/hwprofile"
	"golatest/internal/sim/clock"
)

// sameRows requires two row slices to be equal field by field, floats
// compared by their bits (MeanSilhouette and MeanErrMs can be NaN).
func sameRows(t *testing.T, name string, serial, parallel any) {
	t.Helper()
	a, b := reflect.ValueOf(serial), reflect.ValueOf(parallel)
	if a.Len() != b.Len() {
		t.Fatalf("%s: %d rows serially, %d in parallel", name, a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		ra, rb := a.Index(i), b.Index(i)
		for f := 0; f < ra.NumField(); f++ {
			fa, fb := ra.Field(f), rb.Field(f)
			same := fa.Interface() == fb.Interface()
			if fa.Kind() == reflect.Float64 {
				same = math.Float64bits(fa.Float()) == math.Float64bits(fb.Float())
			}
			if !same {
				t.Errorf("%s row %d: %s = %v serially, %v in parallel",
					name, i, ra.Type().Field(f).Name, fa.Interface(), fb.Interface())
			}
		}
	}
}

// TestForEach: every element runs, even after another failed, results
// land by index, and the lowest-indexed error is returned.
func TestForEach(t *testing.T) {
	xs := make([]int, 50)
	for i := range xs {
		xs[i] = i
	}
	var ran atomic.Int64
	fn := func(fail ...int) func(int) (int, error) {
		return func(i int) (int, error) {
			ran.Add(1)
			if slices.Contains(fail, i) {
				return 0, fmt.Errorf("element %d failed", i)
			}
			return 10 * i, nil
		}
	}
	out, err := forEach(xs, fn())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != 10*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, 10*i)
		}
	}
	ran.Store(0)
	out, err = forEach(xs, fn(41, 7, 23))
	if err == nil || err.Error() != "element 7 failed" || out != nil {
		t.Fatalf("forEach = %v, %v; want nil, the lowest-indexed error (element 7)", out, err)
	}
	if ran.Load() != int64(len(xs)) {
		t.Errorf("%d of %d elements ran after a failure", ran.Load(), len(xs))
	}
}

// TestParallelDeterminism runs the cluster census and the four ablations
// concurrently, as the CLI does, with every unit's steps contending for
// the pool, and requires rows bit-identical to a serial reference that
// measures the same units one after another in a plain loop.
func TestParallelDeterminism(t *testing.T) {
	type results struct {
		census []ClusterCensusRow
		ramp   []RampAblationRow
		det    []DetectionAblationRow
		sync   []SyncAblationRow
		cores  []CoreCountRow
	}
	ramps, syncs, coreCounts := []int{0, 2, 8}, []float64{0, 100, 400}, []int{1, 4, 16}
	const n = 6
	suite := func() *Suite { return NewSuite(Options{Scale: ScaleQuick, Seed: 2025}) }

	var serial results
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	s := suite()
	for _, p := range hwprofile.All() {
		campaign, err := s.censusCampaign(p)
		must(err)
		serial.census = append(serial.census, censusRow(p, campaign))
	}
	for _, steps := range ramps {
		row, err := rampRow(steps, n)
		must(err)
		serial.ramp = append(serial.ramp, row)
	}
	for _, ci := range []bool{false, true} {
		row, err := detectionRow(ci, n)
		must(err)
		serial.det = append(serial.det, row)
	}
	for _, us := range syncs {
		row, err := syncRow(us, n)
		must(err)
		serial.sync = append(serial.sync, row)
	}
	var cells []coreCountOutcome
	for _, c := range coreCountCells(coreCounts) {
		cell, err := c.measure(n)
		must(err)
		cells = append(cells, cell)
	}
	serial.cores = coreCountRows(coreCounts, cells)

	var parallel results
	errs := make([]error, 5)
	var wg sync.WaitGroup
	wg.Add(len(errs))
	for i, fn := range []func() error{
		func() (err error) { parallel.census, err = suite().ClusterCensus(); return err },
		func() (err error) { parallel.ramp, err = RampAblation(ramps, n); return err },
		func() (err error) { parallel.det, err = DetectionAblation(n); return err },
		func() (err error) { parallel.sync, err = SyncAblation(syncs, n); return err },
		func() (err error) { parallel.cores, err = CoreCountStudy(coreCounts, n); return err },
	} {
		go func() {
			defer wg.Done()
			errs[i] = fn()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		must(err)
	}

	sameRows(t, "ClusterCensus", serial.census, parallel.census)
	sameRows(t, "RampAblation", serial.ramp, parallel.ramp)
	sameRows(t, "DetectionAblation", serial.det, parallel.det)
	sameRows(t, "SyncAblation", serial.sync, parallel.sync)
	sameRows(t, "CoreCountStudy", serial.cores, parallel.cores)
}

// TestCensusPairIndependentOfOthers measures the A100 census pairs three
// ways: as the census does, serially in shuffled order on one runner,
// and one pair alone after a phase 1 of its own. Every pair's samples
// must be bit-identical across the three, because a pair is measured on
// its own replica of the chip and so depends only on (device, config,
// pair).
func TestCensusPairIndependentOfOthers(t *testing.T) {
	p := hwprofile.A100()
	census, err := suite.censusCampaign(p)
	if err != nil {
		t.Fatal(err)
	}
	phase1 := func() (*core.Runner, *core.Phase1Result) {
		t.Helper()
		h, err := deviceHandle(p.NewDevice(clock.New()))
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.NewRunner(h, suite.censusConfig(p))
		if err != nil {
			t.Fatal(err)
		}
		p1, err := r.Phase1()
		if err != nil {
			t.Fatal(err)
		}
		return r, p1
	}
	same := func(how string, want *core.PairResult, r *core.Runner, p1 *core.Phase1Result) {
		t.Helper()
		got, err := r.MeasurePair(want.Pair, p1)
		if err != nil {
			t.Fatal(err)
		}
		if got.Attempts != want.Attempts || len(got.Samples) != len(want.Samples) {
			t.Fatalf("%v measured %s: %d attempts, %d samples; in the census %d, %d",
				want.Pair, how, got.Attempts, len(got.Samples), want.Attempts, len(want.Samples))
		}
		for i, v := range got.Samples {
			if math.Float64bits(v) != math.Float64bits(want.Samples[i]) {
				t.Errorf("%v measured %s: sample %d is %v ms, %v ms in the census", want.Pair, how, i, v, want.Samples[i])
				return
			}
		}
	}
	if len(census) != 12 {
		t.Fatalf("census measured %d pairs, want 12", len(census))
	}
	r, p1 := phase1()
	for _, i := range rand.New(rand.NewPCG(1, 2)).Perm(len(census)) {
		same("in shuffled order", census[i], r, p1)
	}
	r, p1 = phase1()
	same("alone", census[len(census)/2], r, p1)
}
