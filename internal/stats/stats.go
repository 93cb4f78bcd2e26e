// Package stats provides the small numeric and rendering helpers the
// experiment harness uses: geometric means (the paper reports geomean
// speedups), series containers, and fixed-width ASCII tables that print
// each figure's rows the way the paper's plots read.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Geomean returns the geometric mean of xs (0 for empty input). A
// non-positive value — a degenerate configuration upstream, e.g. a zero-GC
// workload producing a zero speedup — yields an error naming the offending
// value instead of panicking, so one bad cell fails its experiment rather
// than crashing the whole harness.
func Geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, nil
	}
	var sum float64
	for i, x := range xs {
		if x <= 0 || math.IsNaN(x) {
			return 0, fmt.Errorf("stats: geomean of non-positive value %v at index %d", x, i)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// MustGeomean is Geomean for inputs the caller has already validated as
// strictly positive; it panics on a non-positive value.
func MustGeomean(xs []float64) float64 {
	g, err := Geomean(xs)
	if err != nil {
		panic(err.Error())
	}
	return g
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Max returns the maximum (0 for empty input).
func Max(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// Series is one named line/bar group in a figure.
type Series struct {
	Name   string
	Values []float64
}

// Table renders labeled rows of float columns, in the layout the paper's
// figures enumerate (one row per workload, one column per configuration).
type Table struct {
	Title   string
	Columns []string // first column is the row label
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row of pre-formatted cells.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// AddFloats appends a labeled row of numbers formatted with prec decimals.
func (t *Table) AddFloats(label string, prec int, vals ...float64) {
	cells := []string{label}
	for _, v := range vals {
		cells = append(cells, fmt.Sprintf("%.*f", prec, v))
	}
	t.AddRow(cells...)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
