package workload

import (
	"testing"
	"testing/quick"
)

func TestCyclesForIterDurationRoundTrip(t *testing.T) {
	cycles := CyclesForIterDuration(100_000, 1410) // 100 µs at 1410 MHz
	if got := IterDurationNs(cycles, 1410); got != 100_000 {
		t.Fatalf("round trip = %v, want 100000", got)
	}
	if cycles != 141_000 {
		t.Fatalf("cycles = %v, want 141000", cycles)
	}
}

func TestEstimateCaptureNs(t *testing.T) {
	if got := EstimateCaptureNs([]int64{5, 80, 12}); got != 800 {
		t.Fatalf("EstimateCaptureNs = %d, want 800", got)
	}
	if got := EstimateCaptureNs(nil); got != 0 {
		t.Fatalf("empty probes = %d, want 0 (caller must retry longer)", got)
	}
}

func TestSplitKernels(t *testing.T) {
	parts, err := SplitKernels(1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{250, 250, 250, 250}
	for i := range want {
		if parts[i] != want[i] {
			t.Fatalf("parts = %v", parts)
		}
	}
	parts, _ = SplitKernels(10, 3)
	if parts[0] != 3 || parts[1] != 3 || parts[2] != 4 {
		t.Fatalf("remainder handling: %v", parts)
	}
}

func TestSplitKernelsMoreKernelsThanIters(t *testing.T) {
	parts, err := SplitKernels(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range parts {
		if p <= 0 {
			t.Fatalf("empty kernel in %v", parts)
		}
		total += p
	}
	if total != 2 {
		t.Fatalf("split loses iterations: %v", parts)
	}
}

func TestSplitKernelsValidation(t *testing.T) {
	if _, err := SplitKernels(0, 3); err == nil {
		t.Error("total=0 accepted")
	}
	if _, err := SplitKernels(10, 0); err == nil {
		t.Error("n=0 accepted")
	}
}

// Property: SplitKernels conserves the total.
func TestSplitConservationProperty(t *testing.T) {
	f := func(total uint16, n uint8) bool {
		tt := int(total%5000) + 1
		nn := int(n%20) + 1
		parts, err := SplitKernels(tt, nn)
		if err != nil {
			return false
		}
		sum := 0
		for _, p := range parts {
			sum += p
		}
		return sum == tt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
