package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.959963985, 0.975},
		{-1.959963985, 0.025},
		{1, 0.8413447461},
		{-2.5, 0.0062096653},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x); !almostEqual(got, c.want, 1e-8) {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959963985},
		{0.025, -1.959963985},
		{0.995, 2.575829304},
		{0.8413447461, 1},
	}
	for _, c := range cases {
		if got := NormalQuantile(c.p); !almostEqual(got, c.want, 1e-7) {
			t.Errorf("NormalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestNormalQuantileBoundaries(t *testing.T) {
	if got := NormalQuantile(0); !math.IsInf(got, -1) {
		t.Fatalf("NormalQuantile(0) = %v, want -Inf", got)
	}
	if got := NormalQuantile(1); !math.IsInf(got, 1) {
		t.Fatalf("NormalQuantile(1) = %v, want +Inf", got)
	}
	if got := NormalQuantile(-0.1); !math.IsNaN(got) {
		t.Fatalf("NormalQuantile(-0.1) = %v, want NaN", got)
	}
}

// Property: NormalQuantile inverts NormalCDF across the usable range.
func TestNormalQuantileRoundTripProperty(t *testing.T) {
	f := func(seed float64) bool {
		p := clamp01(seed)
		if p < 1e-6 || p > 1-1e-6 {
			return true
		}
		x := NormalQuantile(p)
		return almostEqual(NormalCDF(x), p, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestZCritical95(t *testing.T) {
	if got := ZCritical(0.95); !almostEqual(got, 1.959963985, 1e-7) {
		t.Fatalf("ZCritical(0.95) = %v", got)
	}
}

func TestTCriticalAgainstTables(t *testing.T) {
	// Reference values from standard t tables (two-sided, 95 %).
	cases := []struct {
		df   float64
		want float64
		tol  float64
	}{
		{5, 2.571, 0.03},
		{10, 2.228, 0.01},
		{30, 2.042, 0.005},
		{100, 1.984, 0.002},
		{1000, 1.962, 0.001},
	}
	for _, c := range cases {
		if got := NewCriticalT(0.95).At(c.df); !almostEqual(got, c.want, c.tol) {
			t.Errorf("NewCriticalT(0.95).At(%v) = %v, want %v±%v", c.df, got, c.want, c.tol)
		}
	}
}

func TestTCriticalConvergesToZ(t *testing.T) {
	z := ZCritical(0.99)
	tc := NewCriticalT(0.99).At(1e6)
	if !almostEqual(z, tc, 1e-4) {
		t.Fatalf("NewCriticalT(0.99).At(1e6) = %v, ZCritical = %v", tc, z)
	}
}

func TestCriticalTInvalid(t *testing.T) {
	for _, c := range []struct{ df, conf float64 }{{10, 0}, {10, 1}, {10, 1.5}, {0, 0.95}, {-1, 0.95}} {
		if got := NewCriticalT(c.conf).At(c.df); !math.IsNaN(got) {
			t.Errorf("df %v, confidence %v: %v, want NaN", c.df, c.conf, got)
		}
	}
}
