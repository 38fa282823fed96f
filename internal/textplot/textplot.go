// Package textplot renders small data visualizations for terminals:
// sparklines, scatter plots with asymmetric error bars, outcome strips,
// and histograms. The experiment runners use it to show the *shape* of a
// figure next to its numbers; it depends only on the standard library
// and operates on plain float slices.
package textplot

import (
	"fmt"
	"math"
	"strings"
)

var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders the values as a single-line unicode sparkline.
// Non-finite values render as spaces. An empty input yields "".
func Sparkline(vals []float64) string {
	if len(vals) == 0 {
		return ""
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if lo > hi { // nothing finite
		return strings.Repeat(" ", len(vals))
	}
	var b strings.Builder
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			b.WriteRune(' ')
			continue
		}
		idx := 0
		if hi > lo {
			idx = int(math.Round((v - lo) / (hi - lo) * float64(len(sparkLevels)-1)))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkLevels) {
			idx = len(sparkLevels) - 1
		}
		b.WriteRune(sparkLevels[idx])
	}
	return b.String()
}

// Chart is a fixed-size character canvas for scatter plots.
type Chart struct {
	Width, Height int
	cells         [][]rune
	xmin, xmax    float64
	ymin, ymax    float64
}

// NewChart returns a canvas covering [xmin, xmax] × [ymin, ymax].
// Degenerate ranges are widened symmetrically.
func NewChart(width, height int, xmin, xmax, ymin, ymax float64) *Chart {
	if width < 8 {
		width = 8
	}
	if height < 3 {
		height = 3
	}
	if xmax <= xmin {
		xmax = xmin + 1
	}
	if ymax <= ymin {
		ymin -= 0.5
		ymax = ymin + 1
	}
	c := &Chart{Width: width, Height: height, xmin: xmin, xmax: xmax, ymin: ymin, ymax: ymax}
	c.cells = make([][]rune, height)
	for i := range c.cells {
		c.cells[i] = make([]rune, width)
		for j := range c.cells[i] {
			c.cells[i][j] = ' '
		}
	}
	return c
}

func (c *Chart) col(x float64) int {
	return int((x - c.xmin) / (c.xmax - c.xmin) * float64(c.Width-1))
}

func (c *Chart) row(y float64) int {
	// row 0 is the top of the canvas
	return c.Height - 1 - int((y-c.ymin)/(c.ymax-c.ymin)*float64(c.Height-1))
}

func (c *Chart) set(row, col int, r rune) {
	if row < 0 || row >= c.Height || col < 0 || col >= c.Width {
		return
	}
	// Never overwrite a point marker with a decoration.
	if c.cells[row][col] == '●' && r != '●' {
		return
	}
	c.cells[row][col] = r
}

// Point draws a value marker with an optional vertical error bar from
// y−down to y+up.
func (c *Chart) Point(x, y, up, down float64) {
	col := c.col(x)
	if up > 0 || down > 0 {
		top, bottom := c.row(y+up), c.row(y-down)
		for r := top; r <= bottom; r++ {
			c.set(r, col, '│')
		}
	}
	c.set(c.row(y), col, '●')
}

// HLine draws a horizontal threshold line at y.
func (c *Chart) HLine(y float64, r rune) {
	row := c.row(y)
	for col := 0; col < c.Width; col++ {
		c.set(row, col, r)
	}
}

// String renders the canvas with a y-axis gutter.
func (c *Chart) String() string {
	var b strings.Builder
	for i, row := range c.cells {
		switch i {
		case 0:
			fmt.Fprintf(&b, "%8.3g ┤", c.ymax)
		case c.Height - 1:
			fmt.Fprintf(&b, "%8.3g ┤", c.ymin)
		default:
			b.WriteString("         │")
		}
		b.WriteString(string(row))
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "         └%s\n", strings.Repeat("─", c.Width))
	fmt.Fprintf(&b, "          %-8.3g%*s\n", c.xmin, c.Width-8, fmt.Sprintf("%.3g", c.xmax))
	return b.String()
}

// SeriesChart plots points (xs, ys) with asymmetric error bars and an
// optional threshold line (NaN disables it), auto-scaling both axes to
// cover the data and error bars.
func SeriesChart(width, height int, xs, ys, up, down []float64, threshold float64) string {
	if len(xs) == 0 || len(xs) != len(ys) {
		return ""
	}
	xmin, xmax := minMax(xs)
	lo := make([]float64, len(ys))
	hi := make([]float64, len(ys))
	for i := range ys {
		lo[i], hi[i] = ys[i], ys[i]
		if down != nil {
			lo[i] -= down[i]
		}
		if up != nil {
			hi[i] += up[i]
		}
	}
	ymin, _ := minMax(lo)
	_, ymax := minMax(hi)
	if !math.IsNaN(threshold) {
		ymin = math.Min(ymin, threshold)
		ymax = math.Max(ymax, threshold)
	}
	c := NewChart(width, height, xmin, xmax, ymin, ymax)
	if !math.IsNaN(threshold) {
		c.HLine(threshold, '╌')
	}
	for i := range xs {
		u, d := 0.0, 0.0
		if up != nil {
			u = up[i]
		}
		if down != nil {
			d = down[i]
		}
		c.Point(xs[i], ys[i], u, d)
	}
	return c.String()
}

// OutcomeStrip renders a sequence of three-valued outcomes as one line.
// Callers map their outcomes to the runes '⊤', '⊥', '⊣' (or any others).
func OutcomeStrip(outcomes []rune) string { return string(outcomes) }

func minMax(vals []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if lo > hi {
		return 0, 1
	}
	return lo, hi
}
