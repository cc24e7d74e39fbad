package experiments

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"golatest/internal/hwprofile"
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
