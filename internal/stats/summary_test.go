package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	s := Summarize(xs)
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("Summarize = %+v", s)
	}
	if s.Q25 != 2 || s.Q75 != 4 {
		t.Fatalf("quartiles = (%v, %v), want (2, 4)", s.Q25, s.Q75)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || !math.IsNaN(s.Mean) || !math.IsNaN(s.Max) {
		t.Fatalf("Summarize(nil) = %+v", s)
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	str := s.String()
	if !strings.Contains(str, "n=3") || !strings.Contains(str, "mean=2.000") {
		t.Fatalf("String() = %q", str)
	}
}

// Property: the five-number summary is ordered
// min ≤ q05 ≤ q25 ≤ median ≤ q75 ≤ q95 ≤ max.
func TestSummaryOrderingProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := sanitize(raw)
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		vals := []float64{s.Min, s.Q05, s.Q25, s.Median, s.Q75, s.Q95, s.Max}
		for i := 1; i < len(vals); i++ {
			if vals[i] < vals[i-1]-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram([]float64{0.5, 1.5, 1.6, 2.5, -1, 10}, 0, 3, 3)
	if h.Under != 1 || h.Over != 1 {
		t.Fatalf("Under=%d Over=%d, want 1,1", h.Under, h.Over)
	}
	want := []int{1, 2, 1}
	for i, c := range h.Counts {
		if c != want[i] {
			t.Fatalf("Counts = %v, want %v", h.Counts, want)
		}
	}
	if h.Total() != 4 {
		t.Fatalf("Total = %d, want 4", h.Total())
	}
	if h.Mode() != 1 {
		t.Fatalf("Mode = %d, want 1", h.Mode())
	}
}

func TestHistogramEdgeValueGoesToOver(t *testing.T) {
	h := NewHistogram([]float64{3}, 0, 3, 3)
	if h.Over != 1 || h.Total() != 0 {
		t.Fatalf("value at hi edge: Over=%d Total=%d", h.Over, h.Total())
	}
}

func TestHistogramDegenerate(t *testing.T) {
	h := NewHistogram([]float64{1, 2}, 5, 5, 3) // hi == lo
	if len(h.Counts) != 0 {
		t.Fatalf("degenerate histogram has bins: %v", h.Counts)
	}
	if h.Mode() != -1 {
		t.Fatalf("Mode of empty histogram = %d, want -1", h.Mode())
	}
}

// Property: every in-range sample lands in exactly one bin.
func TestHistogramConservationProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := sanitize(raw)
		h := NewHistogram(xs, -1000, 1000, 16)
		return h.Total()+h.Under+h.Over == len(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
