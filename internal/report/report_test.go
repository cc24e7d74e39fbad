package report

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestCSVFileNameConvention(t *testing.T) {
	got := CSVFileName(1770, 1260, "karolina", 2)
	want := "latencies_1770_1260_karolina_gpu2.csv"
	if got != want {
		t.Fatalf("CSVFileName = %q, want %q", got, want)
	}
}

func TestLatencyCSVRoundTrip(t *testing.T) {
	in := []float64{5.123456, 22.7, 477.318}
	var buf bytes.Buffer
	if err := WriteLatencyCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadLatencyCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len = %d", len(out))
	}
	for i := range in {
		if math.Abs(out[i]-in[i]) > 1e-6 {
			t.Fatalf("row %d: %v vs %v", i, out[i], in[i])
		}
	}
}

func TestReadLatencyCSVRejectsGarbage(t *testing.T) {
	if _, err := ReadLatencyCSV(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadLatencyCSV(strings.NewReader("a,b\n1,2\n")); err == nil {
		t.Error("wrong header accepted")
	}
	if _, err := ReadLatencyCSV(strings.NewReader("measurement,switching_latency_ms\n0,notanumber\n")); err == nil {
		t.Error("non-numeric value accepted")
	}
}

func TestScatterCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteScatterCSV(&buf, []float64{1, 2, 3}, []bool{false, true, false}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasSuffix(lines[2], ",1") {
		t.Fatalf("outlier flag missing: %q", lines[2])
	}
	if err := WriteScatterCSV(&buf, []float64{1}, []bool{true, false}); err == nil {
		t.Fatal("mismatched flag length accepted")
	}
}

func TestHeatmapSetGetMinMax(t *testing.T) {
	h := NewHeatmap("test", []float64{700, 800}, []float64{700, 800, 900})
	if err := h.Set(700, 900, 5.5); err != nil {
		t.Fatal(err)
	}
	if err := h.Set(800, 700, 22.7); err != nil {
		t.Fatal(err)
	}
	if err := h.Set(999, 700, 1); err == nil {
		t.Fatal("unknown row accepted")
	}
	if got := h.Get(700, 900); got != 5.5 {
		t.Fatalf("Get = %v", got)
	}
	if got := h.Get(700, 800); !math.IsNaN(got) {
		t.Fatalf("unset cell = %v, want NaN", got)
	}
	min, max, minPair, maxPair := h.MinMax()
	if min != 5.5 || max != 22.7 {
		t.Fatalf("MinMax = %v, %v", min, max)
	}
	if minPair != [2]float64{700, 900} || maxPair != [2]float64{800, 700} {
		t.Fatalf("pairs = %v, %v", minPair, maxPair)
	}
	if mean := h.Mean(); math.Abs(mean-14.1) > 1e-9 {
		t.Fatalf("Mean = %v", mean)
	}
}

func TestHeatmapRender(t *testing.T) {
	h := NewHeatmap("latencies [ms]", []float64{700}, []float64{800, 900})
	h.Set(700, 800, 13.25)
	var buf bytes.Buffer
	if err := h.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"latencies [ms]", "800", "900", "13.25", "-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestHeatmapCSV(t *testing.T) {
	h := NewHeatmap("", []float64{700, 800}, []float64{900})
	h.Set(700, 900, 1.5)
	var buf bytes.Buffer
	if err := h.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines: %v", lines)
	}
	if lines[1] != "700,1.500" {
		t.Fatalf("row = %q", lines[1])
	}
	if lines[2] != "800," {
		t.Fatalf("NaN row = %q", lines[2])
	}
}

func TestViolin(t *testing.T) {
	xs := []float64{5, 5.1, 5.2, 5.05, 5.12, 20, 20.1, 20.2}
	v := NewViolin("increasing", xs, 8)
	if v.Summary.N != 8 {
		t.Fatalf("Summary.N = %d", v.Summary.N)
	}
	if len(v.Density) != 8 {
		t.Fatalf("density bins = %d", len(v.Density))
	}
	peak := 0.0
	for _, d := range v.Density {
		if d > peak {
			peak = d
		}
	}
	if peak != 1 {
		t.Fatalf("density peak = %v, want 1", peak)
	}
	// Bimodal data: first and last bins populated, middle sparse.
	if v.Density[0] == 0 || v.Density[len(v.Density)-1] == 0 {
		t.Fatalf("modes missing: %v", v.Density)
	}
	var buf bytes.Buffer
	if err := v.Render(&buf, 20); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "#") {
		t.Fatalf("render has no bars:\n%s", buf.String())
	}
}

func TestViolinDegenerate(t *testing.T) {
	v := NewViolin("flat", []float64{7, 7, 7}, 4)
	if len(v.Density) != 0 {
		t.Fatalf("degenerate violin has density: %v", v.Density)
	}
	var buf bytes.Buffer
	if err := v.Render(&buf, 10); err != nil {
		t.Fatal(err)
	}
}

func TestRenderBoxes(t *testing.T) {
	var buf bytes.Buffer
	boxes := []BoxPlot{NewBoxPlot("1065→840 gpu0", []float64{5, 6, 7})}
	if err := RenderBoxes(&buf, boxes); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1065→840 gpu0") {
		t.Fatalf("output:\n%s", buf.String())
	}
}

func TestMarkdownTable(t *testing.T) {
	var buf bytes.Buffer
	err := MarkdownTable(&buf, []string{"Model", "SMs"}, [][]string{{"A100", "108"}})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "| Model | SMs |") || !strings.Contains(out, "| A100 | 108 |") {
		t.Fatalf("output:\n%s", out)
	}
	if err := MarkdownTable(&buf, []string{"a"}, [][]string{{"1", "2"}}); err == nil {
		t.Fatal("ragged row accepted")
	}
}
