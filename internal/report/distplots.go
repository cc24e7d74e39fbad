package report

import (
	"fmt"
	"io"
	"strings"

	"golatest/internal/stats"
)

// Violin is the data behind one half of a Fig. 4 panel: the latency
// distribution of all increasing (or decreasing) transitions of a GPU,
// summarised by quantiles and a binned density profile.
type Violin struct {
	Label   string
	Summary stats.Summary
	// Density is the normalised histogram over [Summary.Min, Summary.Max]
	// (peak scaled to 1); empty when fewer than two distinct values.
	Density []float64
}

// NewViolin builds a violin from raw latencies with the given number of
// density bins.
func NewViolin(label string, latenciesMs []float64, bins int) Violin {
	v := Violin{Label: label, Summary: stats.Summarize(latenciesMs)}
	if len(latenciesMs) < 2 || v.Summary.Max <= v.Summary.Min || bins <= 0 {
		return v
	}
	h := stats.NewHistogram(latenciesMs, v.Summary.Min, v.Summary.Max+1e-9, bins)
	peak := 0
	for _, c := range h.Counts {
		if c > peak {
			peak = c
		}
	}
	if peak == 0 {
		return v
	}
	v.Density = make([]float64, bins)
	for i, c := range h.Counts {
		v.Density[i] = float64(c) / float64(peak)
	}
	return v
}

// Render writes a sideways ASCII violin: one line per density bin, bar
// length proportional to density, annotated with the bin's value range.
func (v Violin) Render(w io.Writer, width int) error {
	if _, err := fmt.Fprintf(w, "%s  %s\n", v.Label, v.Summary.String()); err != nil {
		return err
	}
	if len(v.Density) == 0 {
		_, err := fmt.Fprintln(w, "  (insufficient spread for a density profile)")
		return err
	}
	span := v.Summary.Max - v.Summary.Min
	for i, d := range v.Density {
		lo := v.Summary.Min + span*float64(i)/float64(len(v.Density))
		bar := strings.Repeat("#", int(d*float64(width)+0.5))
		if _, err := fmt.Fprintf(w, "  %10.2f ms |%s\n", lo, bar); err != nil {
			return err
		}
	}
	return nil
}

// BoxPlot is the data behind one Fig. 9 box: the five-number summary of
// one pair on one device instance.
type BoxPlot struct {
	Label   string
	Summary stats.Summary
}

// NewBoxPlot builds a box plot summary.
func NewBoxPlot(label string, latenciesMs []float64) BoxPlot {
	return BoxPlot{Label: label, Summary: stats.Summarize(latenciesMs)}
}

// RenderBoxes writes an aligned text table of box statistics.
func RenderBoxes(w io.Writer, boxes []BoxPlot) error {
	if _, err := fmt.Fprintf(w, "%-28s %8s %8s %8s %8s %8s\n",
		"series", "min", "q25", "median", "q75", "max"); err != nil {
		return err
	}
	for _, b := range boxes {
		s := b.Summary
		if _, err := fmt.Fprintf(w, "%-28s %8.3f %8.3f %8.3f %8.3f %8.3f\n",
			b.Label, s.Min, s.Q25, s.Median, s.Q75, s.Max); err != nil {
			return err
		}
	}
	return nil
}

// MarkdownTable writes a GitHub-style table from a header and rows.
func MarkdownTable(w io.Writer, header []string, rows [][]string) error {
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(header, " | ")); err != nil {
		return err
	}
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = "---"
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | ")); err != nil {
		return err
	}
	for _, row := range rows {
		if len(row) != len(header) {
			return fmt.Errorf("report: row width %d != header width %d", len(row), len(header))
		}
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | ")); err != nil {
			return err
		}
	}
	return nil
}
