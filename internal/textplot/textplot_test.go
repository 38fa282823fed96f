package textplot

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSparklineBasics(t *testing.T) {
	if got := Sparkline(nil); got != "" {
		t.Errorf("empty input = %q", got)
	}
	got := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7})
	if len([]rune(got)) != 8 {
		t.Fatalf("length = %d", len([]rune(got)))
	}
	runes := []rune(got)
	if runes[0] != '▁' || runes[7] != '█' {
		t.Errorf("extremes = %c %c", runes[0], runes[7])
	}
	// Monotone input → non-decreasing levels.
	for i := 1; i < len(runes); i++ {
		if runes[i] < runes[i-1] {
			t.Errorf("sparkline not monotone at %d: %q", i, got)
		}
	}
}

func TestSparklineConstantAndNaN(t *testing.T) {
	got := Sparkline([]float64{5, 5, 5})
	if len([]rune(got)) != 3 {
		t.Fatalf("constant input length = %d", len([]rune(got)))
	}
	withNaN := Sparkline([]float64{1, math.NaN(), 2})
	if []rune(withNaN)[1] != ' ' {
		t.Errorf("NaN not rendered as space: %q", withNaN)
	}
	allBad := Sparkline([]float64{math.NaN(), math.Inf(1)})
	if allBad != "  " {
		t.Errorf("all-non-finite = %q", allBad)
	}
}

func TestSparklineLengthProperty(t *testing.T) {
	f := func(vals []float64) bool {
		return len([]rune(Sparkline(vals))) == len(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSeriesChartRendersPointsAndThreshold(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 2, 3, 4}
	up := []float64{0.5, 0.5, 0.5, 0.5}
	down := []float64{0.5, 0.5, 0.5, 0.5}
	out := SeriesChart(40, 10, xs, ys, up, down, 2.5)
	if !strings.Contains(out, "●") {
		t.Error("no point markers")
	}
	if !strings.Contains(out, "│") {
		t.Error("no error bars")
	}
	if !strings.Contains(out, "╌") {
		t.Error("no threshold line")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 12 { // height + axis + labels
		t.Errorf("rendered %d lines", len(lines))
	}
}

func TestSeriesChartDegenerate(t *testing.T) {
	if got := SeriesChart(40, 10, nil, nil, nil, nil, math.NaN()); got != "" {
		t.Error("empty input should render nothing")
	}
	if got := SeriesChart(40, 10, []float64{1}, []float64{2, 3}, nil, nil, math.NaN()); got != "" {
		t.Error("length mismatch should render nothing")
	}
	// Single constant point must not panic or divide by zero.
	out := SeriesChart(40, 10, []float64{1}, []float64{5}, nil, nil, math.NaN())
	if !strings.Contains(out, "●") {
		t.Error("single point not rendered")
	}
}

func TestChartPointMarkerWinsOverErrorBar(t *testing.T) {
	c := NewChart(20, 10, 0, 10, 0, 10)
	c.Point(5, 5, 3, 3)
	out := c.String()
	if strings.Count(out, "●") != 1 {
		t.Errorf("marker count = %d", strings.Count(out, "●"))
	}
	c.HLine(5, '╌')
	// The threshold must not erase the marker.
	if strings.Count(c.String(), "●") != 1 {
		t.Error("threshold overwrote the point marker")
	}
}

func TestOutcomeStrip(t *testing.T) {
	if got := OutcomeStrip([]rune{'⊤', '⊥', '⊣'}); got != "⊤⊥⊣" {
		t.Errorf("strip = %q", got)
	}
}

func TestChartDegenerateDimensions(t *testing.T) {
	c := NewChart(1, 1, 0, 0, 0, 0)
	if c.Width < 8 || c.Height < 3 {
		t.Error("degenerate dimensions not widened")
	}
	c.Point(0, 0, 0, 0)
	if !strings.Contains(c.String(), "●") {
		t.Error("point lost on degenerate chart")
	}
}
