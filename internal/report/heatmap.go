package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Heatmap is a rectangular latency matrix: initial frequencies in rows,
// target frequencies in columns (the paper's Fig. 3 orientation). NaN
// cells mean "not measured" (diagonal, excluded, or skipped pairs).
type Heatmap struct {
	Title     string
	RowLabels []float64 // initial frequencies, MHz
	ColLabels []float64 // target frequencies, MHz
	Cells     [][]float64
}

// NewHeatmap allocates a heatmap with all cells NaN.
func NewHeatmap(title string, rows, cols []float64) *Heatmap {
	h := &Heatmap{
		Title:     title,
		RowLabels: append([]float64(nil), rows...),
		ColLabels: append([]float64(nil), cols...),
		Cells:     make([][]float64, len(rows)),
	}
	for i := range h.Cells {
		h.Cells[i] = make([]float64, len(cols))
		for j := range h.Cells[i] {
			h.Cells[i][j] = math.NaN()
		}
	}
	return h
}

// Set stores a value at (initMHz, targetMHz); unknown labels are an error.
func (h *Heatmap) Set(initMHz, targetMHz, value float64) error {
	i := indexOf(h.RowLabels, initMHz)
	j := indexOf(h.ColLabels, targetMHz)
	if i < 0 || j < 0 {
		return fmt.Errorf("report: pair %v→%v not in heatmap axes", initMHz, targetMHz)
	}
	h.Cells[i][j] = value
	return nil
}

// Get reads the value at (initMHz, targetMHz); NaN when absent.
func (h *Heatmap) Get(initMHz, targetMHz float64) float64 {
	i := indexOf(h.RowLabels, initMHz)
	j := indexOf(h.ColLabels, targetMHz)
	if i < 0 || j < 0 {
		return math.NaN()
	}
	return h.Cells[i][j]
}

func indexOf(xs []float64, v float64) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

// MinMax returns the smallest and largest finite cells and their pairs.
func (h *Heatmap) MinMax() (min, max float64, minPair, maxPair [2]float64) {
	min, max = math.Inf(1), math.Inf(-1)
	for i, row := range h.Cells {
		for j, v := range row {
			if math.IsNaN(v) {
				continue
			}
			if v < min {
				min, minPair = v, [2]float64{h.RowLabels[i], h.ColLabels[j]}
			}
			if v > max {
				max, maxPair = v, [2]float64{h.RowLabels[i], h.ColLabels[j]}
			}
		}
	}
	return min, max, minPair, maxPair
}

// Mean returns the mean of the finite cells (NaN if none).
func (h *Heatmap) Mean() float64 {
	var sum float64
	var n int
	for _, row := range h.Cells {
		for _, v := range row {
			if !math.IsNaN(v) {
				sum += v
				n++
			}
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Render writes a fixed-width text rendering: row label column, one
// column per target, values to two decimals, NaN as "-".
func (h *Heatmap) Render(w io.Writer) error {
	const cell = 9
	if h.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", h.Title); err != nil {
			return err
		}
	}
	var b strings.Builder
	b.WriteString(pad("init\\tgt", cell))
	for _, c := range h.ColLabels {
		b.WriteString(pad(strconv.FormatFloat(c, 'f', 0, 64), cell))
	}
	b.WriteByte('\n')
	for i, r := range h.RowLabels {
		b.WriteString(pad(strconv.FormatFloat(r, 'f', 0, 64), cell))
		for j := range h.ColLabels {
			v := h.Cells[i][j]
			if math.IsNaN(v) {
				b.WriteString(pad("-", cell))
			} else {
				b.WriteString(pad(strconv.FormatFloat(v, 'f', 2, 64), cell))
			}
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func pad(s string, width int) string {
	if len(s) >= width {
		return s + " "
	}
	return s + strings.Repeat(" ", width-len(s))
}

// WriteCSV exports the heatmap with labelled axes.
func (h *Heatmap) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, 0, len(h.ColLabels)+1)
	header = append(header, "init_mhz\\target_mhz")
	for _, c := range h.ColLabels {
		header = append(header, strconv.FormatFloat(c, 'f', 0, 64))
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for i, r := range h.RowLabels {
		rec := make([]string, 0, len(h.ColLabels)+1)
		rec = append(rec, strconv.FormatFloat(r, 'f', 0, 64))
		for j := range h.ColLabels {
			v := h.Cells[i][j]
			if math.IsNaN(v) {
				rec = append(rec, "")
			} else {
				rec = append(rec, strconv.FormatFloat(v, 'f', 3, 64))
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
