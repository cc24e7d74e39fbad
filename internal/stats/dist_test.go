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
		if got := TCritical(c.df, 0.95); !almostEqual(got, c.want, c.tol) {
			t.Errorf("TCritical(%v, 0.95) = %v, want %v±%v", c.df, got, c.want, c.tol)
		}
	}
}

func TestTCriticalConvergesToZ(t *testing.T) {
	z := ZCritical(0.99)
	tc := TCritical(1e6, 0.99)
	if !almostEqual(z, tc, 1e-4) {
		t.Fatalf("TCritical(1e6) = %v, ZCritical = %v", tc, z)
	}
}

func TestStudentTCDFSymmetry(t *testing.T) {
	for _, df := range []float64{3, 10, 50} {
		for _, x := range []float64{0.3, 1.1, 2.7} {
			a := StudentTCDF(x, df)
			b := StudentTCDF(-x, df)
			if !almostEqual(a+b, 1, 1e-10) {
				t.Errorf("CDF(%v)+CDF(-%v) = %v for df=%v", x, x, a+b, df)
			}
		}
	}
}

func TestStudentTCDFKnownValues(t *testing.T) {
	// t=2.228, df=10 is the two-sided 95 % critical point:
	// CDF must be 0.975.
	if got := StudentTCDF(2.228, 10); !almostEqual(got, 0.975, 5e-4) {
		t.Fatalf("StudentTCDF(2.228, 10) = %v, want 0.975", got)
	}
	if got := StudentTCDF(0, 7); !almostEqual(got, 0.5, 1e-12) {
		t.Fatalf("StudentTCDF(0, 7) = %v, want 0.5", got)
	}
}

func TestStudentTCDFConvergesToNormal(t *testing.T) {
	for _, x := range []float64{-2, -0.5, 0.7, 1.9} {
		tv := StudentTCDF(x, 1e5)
		nv := NormalCDF(x)
		if !almostEqual(tv, nv, 1e-4) {
			t.Errorf("StudentTCDF(%v, 1e5) = %v, NormalCDF = %v", x, tv, nv)
		}
	}
}

// Property: the t CDF is monotone non-decreasing in its argument.
func TestStudentTCDFMonotoneProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		a = math.Mod(a, 50)
		b = math.Mod(b, 50)
		if a > b {
			a, b = b, a
		}
		return StudentTCDF(a, 8) <= StudentTCDF(b, 8)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStudentTCDFInfinities(t *testing.T) {
	if got := StudentTCDF(math.Inf(1), 5); got != 1 {
		t.Fatalf("CDF(+Inf) = %v", got)
	}
	if got := StudentTCDF(math.Inf(-1), 5); got != 0 {
		t.Fatalf("CDF(-Inf) = %v", got)
	}
}

func TestCriticalTInvalid(t *testing.T) {
	for _, c := range []struct{ df, conf float64 }{{10, 0}, {10, 1}, {10, 1.5}, {0, 0.95}, {-1, 0.95}} {
		if got := NewCriticalT(c.conf).At(c.df); !math.IsNaN(got) {
			t.Errorf("df %v, confidence %v: %v, want NaN", c.df, c.conf, got)
		}
	}
}
