package stats

import (
	"fmt"
	"math"
	"strings"
)

// Series is a named sequence of (x, y) points, used to reproduce the
// paper's figures as text (bar charts and sorted-curve plots).
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// NewSeries builds a series from ys with implicit x = 0..len-1.
func NewSeries(name string, ys []float64) Series {
	xs := make([]float64, len(ys))
	for i := range xs {
		xs[i] = float64(i)
	}
	return Series{Name: name, X: xs, Y: ys}
}

// Append adds a point to the series.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// LinePlot renders a crude scatter/line plot of one or more series on a
// rows x cols character grid, with per-series glyphs. It is meant for
// eyeballing figure shapes (e.g. the sorted mix-speedup curve of Fig. 13 or
// the exploration traces of Fig. 7) in terminal output.
func LinePlot(title string, series []Series, rows, cols int) string {
	if rows <= 0 {
		rows = 12
	}
	if cols <= 0 {
		cols = 72
	}
	glyphs := []byte{'*', 'o', '+', 'x', '@', '%', '&', '~'}

	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for i := range s.X {
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			minY = math.Min(minY, s.Y[i])
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	if math.IsInf(minX, 1) {
		return title + "\n(empty plot)\n"
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, rows)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", cols))
	}
	for si, s := range series {
		g := glyphs[si%len(glyphs)]
		for i := range s.X {
			cx := int((s.X[i] - minX) / (maxX - minX) * float64(cols-1))
			cy := int((s.Y[i] - minY) / (maxY - minY) * float64(rows-1))
			r := rows - 1 - cy
			grid[r][cx] = g
		}
	}

	var b strings.Builder
	if title != "" {
		b.WriteString(title)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "y: [%.3g, %.3g]  x: [%.3g, %.3g]\n", minY, maxY, minX, maxX)
	for _, row := range grid {
		b.WriteByte('|')
		b.Write(row)
		b.WriteByte('\n')
	}
	b.WriteByte('+')
	b.WriteString(strings.Repeat("-", cols))
	b.WriteByte('\n')
	for si, s := range series {
		fmt.Fprintf(&b, "  %c %s\n", glyphs[si%len(glyphs)], s.Name)
	}
	return b.String()
}

// SeriesCSV renders multiple series with a shared x column to CSV. Series
// must have equal lengths; shorter series are padded with empty cells.
// Rows go through the shared WriteCSVRow helper, so series names with
// commas or quotes stay parseable.
func SeriesCSV(xName string, series []Series) string {
	maxLen := 0
	for _, s := range series {
		if len(s.X) > maxLen {
			maxLen = len(s.X)
		}
	}
	var b strings.Builder
	header := make([]string, 0, len(series)+1)
	header = append(header, xName)
	for _, s := range series {
		header = append(header, s.Name)
	}
	WriteCSVRow(&b, header...)
	row := make([]string, len(series)+1)
	for i := 0; i < maxLen; i++ {
		row[0] = ""
		if len(series) > 0 && i < len(series[0].X) {
			row[0] = fmt.Sprintf("%g", series[0].X[i])
		}
		for si, s := range series {
			row[si+1] = ""
			if i < len(s.Y) {
				row[si+1] = fmt.Sprintf("%g", s.Y[i])
			}
		}
		WriteCSVRow(&b, row...)
	}
	return b.String()
}
