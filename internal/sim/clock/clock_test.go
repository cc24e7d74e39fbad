package clock

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestNewStartsAtZero(t *testing.T) {
	c := New()
	if got := c.Now(); got != 0 {
		t.Fatalf("New clock Now() = %d, want 0", got)
	}
}

func TestNewAt(t *testing.T) {
	c := NewAt(42)
	if got := c.Now(); got != 42 {
		t.Fatalf("NewAt(42).Now() = %d, want 42", got)
	}
}

func TestNewAtNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewAt(-1) did not panic")
		}
	}()
	NewAt(-1)
}

func TestAdvanceAccumulates(t *testing.T) {
	c := New()
	c.Advance(10)
	c.Advance(5)
	if got := c.Now(); got != 15 {
		t.Fatalf("Now() after Advance(10)+Advance(5) = %d, want 15", got)
	}
}

func TestAdvanceZeroIsNoop(t *testing.T) {
	c := NewAt(7)
	c.Advance(0)
	if got := c.Now(); got != 7 {
		t.Fatalf("Now() after Advance(0) = %d, want 7", got)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	New().Advance(-1)
}

func TestAdvanceTo(t *testing.T) {
	c := New()
	c.AdvanceTo(100)
	if got := c.Now(); got != 100 {
		t.Fatalf("Now() = %d, want 100", got)
	}
	c.AdvanceTo(100) // same time: no-op
	if got := c.Now(); got != 100 {
		t.Fatalf("Now() after no-op AdvanceTo = %d, want 100", got)
	}
}

func TestAdvanceToPastPanics(t *testing.T) {
	c := NewAt(50)
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo into the past did not panic")
		}
	}()
	c.AdvanceTo(49)
}

func TestSleep(t *testing.T) {
	c := New()
	c.Sleep(3 * time.Microsecond)
	if got := c.Now(); got != 3000 {
		t.Fatalf("Now() after Sleep(3us) = %d, want 3000", got)
	}
}

func TestClockMonotonicProperty(t *testing.T) {
	// Any sequence of non-negative advances keeps the clock monotonically
	// non-decreasing and equal to the running sum.
	f := func(steps []uint16) bool {
		c := New()
		var sum int64
		prev := c.Now()
		for _, s := range steps {
			c.Advance(int64(s))
			sum += int64(s)
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return c.Now() == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a := NewRand(1, 2)
	b := NewRand(1, 2)
	for i := 0; i < 100; i++ {
		if x, y := a.Float64(), b.Float64(); x != y {
			t.Fatalf("draw %d differs: %v vs %v", i, x, y)
		}
	}
}

func TestRandChildIndependence(t *testing.T) {
	// Children with distinct tags must differ from each other, and drawing
	// from one child must not perturb its sibling.
	parent := NewRand(3, 4)
	c1 := parent.Child(1)
	c2 := parent.Child(2)

	parent2 := NewRand(3, 4)
	d1 := parent2.Child(1)
	d2 := parent2.Child(2)
	// Draw heavily from d1 before touching d2.
	for i := 0; i < 1000; i++ {
		d1.Float64()
	}
	got := d2.Float64()
	want := c2.Float64()
	if got != want {
		t.Fatalf("sibling stream perturbed: got %v want %v", got, want)
	}
	if c1.Float64() == c2.Float64() {
		t.Fatal("distinct child tags produced identical draws (suspicious)")
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRand(5, 6)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(2, 3)
		if v < 2 || v >= 3 {
			t.Fatalf("Uniform(2,3) = %v out of range", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRand(7, 8)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("Normal mean = %v, want ~10", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Fatalf("Normal variance = %v, want ~4", variance)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := NewRand(9, 10)
	for i := 0; i < 1000; i++ {
		if v := r.LogNormal(0, 1.5); v <= 0 {
			t.Fatalf("LogNormal produced non-positive %v", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRand(13, 14)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) hit rate = %v", frac)
	}
}

func TestPickWeighted(t *testing.T) {
	r := NewRand(15, 16)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.PickWeighted(weights)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index chosen %d times", counts[1])
	}
	frac0 := float64(counts[0]) / n
	if math.Abs(frac0-0.25) > 0.01 {
		t.Fatalf("index 0 frequency = %v, want ~0.25", frac0)
	}
}

func TestPickWeightedDegenerate(t *testing.T) {
	r := NewRand(17, 18)
	if got := r.PickWeighted([]float64{0, 0}); got != 0 {
		t.Fatalf("all-zero weights: got %d, want 0", got)
	}
	if got := r.PickWeighted([]float64{-1, 2}); got != 1 {
		t.Fatalf("negative weight skipped: got %d, want 1", got)
	}
}
