package experiments

import (
	"math"
	"reflect"
	"runtime"
	"testing"
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

// TestParallelDeterminism runs the cluster census and the four ablations
// under GOMAXPROCS(1) — every fan-out serial — and at the default, and
// requires bit-identical rows.
func TestParallelDeterminism(t *testing.T) {
	type results struct {
		census []ClusterCensusRow
		ramp   []RampAblationRow
		det    []DetectionAblationRow
		sync   []SyncAblationRow
		cores  []CoreCountRow
	}
	run := func() results {
		var r results
		var err error
		if r.census, err = NewSuite(Options{Scale: ScaleQuick, Seed: 2025}).ClusterCensus(); err != nil {
			t.Fatal(err)
		}
		if r.ramp, err = RampAblation([]int{0, 2, 8}, 6); err != nil {
			t.Fatal(err)
		}
		if r.det, err = DetectionAblation(6); err != nil {
			t.Fatal(err)
		}
		if r.sync, err = SyncAblation([]float64{0, 100, 400}, 6); err != nil {
			t.Fatal(err)
		}
		if r.cores, err = CoreCountStudy([]int{1, 4, 16}, 6); err != nil {
			t.Fatal(err)
		}
		return r
	}
	prev := runtime.GOMAXPROCS(1)
	serial := run()
	runtime.GOMAXPROCS(prev)
	parallel := run()

	sameRows(t, "ClusterCensus", serial.census, parallel.census)
	sameRows(t, "RampAblation", serial.ramp, parallel.ramp)
	sameRows(t, "DetectionAblation", serial.det, parallel.det)
	sameRows(t, "SyncAblation", serial.sync, parallel.sync)
	sameRows(t, "CoreCountStudy", serial.cores, parallel.cores)
}
