package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIntervalContains(t *testing.T) {
	iv := Interval{-1, 2}
	if !iv.Contains(0) || !iv.Contains(-1) || !iv.Contains(2) {
		t.Fatal("endpoints/interior not contained")
	}
	if iv.Contains(2.001) || iv.Contains(-1.001) {
		t.Fatal("points outside reported as contained")
	}
	if !iv.ContainsZero() {
		t.Fatal("ContainsZero false for [-1,2]")
	}
	if (Interval{1, 2}).ContainsZero() {
		t.Fatal("ContainsZero true for [1,2]")
	}
}

func TestMeanDiffCISeparatesDistinctMeans(t *testing.T) {
	a := MeanStd{N: 500, Mean: 100, Std: 3}
	b := MeanStd{N: 500, Mean: 90, Std: 3}
	iv := MeanDiffCI(a, b, 0.95)
	if iv.ContainsZero() {
		t.Fatalf("clearly distinct means produced CI containing zero: %+v", iv)
	}
	if iv.Lo > 10 || iv.Hi < 10 {
		t.Fatalf("CI %+v does not cover the true difference 10", iv)
	}
}

func TestMeanDiffCIOverlappingMeans(t *testing.T) {
	a := MeanStd{N: 30, Mean: 100.01, Std: 5}
	b := MeanStd{N: 30, Mean: 100.00, Std: 5}
	if iv := MeanDiffCI(a, b, 0.95); !iv.ContainsZero() {
		t.Fatalf("indistinguishable means produced CI excluding zero: %+v", iv)
	}
}

// Property: swapping the operands mirrors the difference interval.
func TestMeanDiffCIAntisymmetryProperty(t *testing.T) {
	f := func(m1, m2, s1, s2 float64) bool {
		a := MeanStd{N: 50, Mean: math.Mod(m1, 100), Std: 0.1 + math.Abs(math.Mod(s1, 10))}
		b := MeanStd{N: 60, Mean: math.Mod(m2, 100), Std: 0.1 + math.Abs(math.Mod(s2, 10))}
		if math.IsNaN(a.Mean) || math.IsNaN(b.Mean) || math.IsNaN(a.Std) || math.IsNaN(b.Std) {
			return true
		}
		ab := MeanDiffCI(a, b, 0.95)
		ba := MeanDiffCI(b, a, 0.95)
		return almostEqual(ab.Lo, -ba.Hi, 1e-9) && almostEqual(ab.Hi, -ba.Lo, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
