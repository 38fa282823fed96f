package core

import (
	"math"
	"slices"
	"testing"

	"sound/internal/series"
)

// points builds a unary buffer of the given times.
func points(ts ...float64) series.Series {
	s := make(series.Series, len(ts))
	for i, t := range ts {
		s[i] = series.Point{T: t, V: t}
	}
	return s
}

// drain calls Next until it is not ok and returns each window's
// coordinate and the times it held.
func drain(t *testing.T, g *Grid, a *WindowAssigner, bufs []series.Series, drop []int, final bool) (coords []float64, held [][]float64) {
	t.Helper()
	slots := make([]series.Series, len(bufs))
	for {
		_, _, coord, ok := g.Next(a, bufs, drop, final, slots)
		if !ok {
			return coords, held
		}
		if a.Kind == KindCount {
			coords = append(coords, float64(coord))
		} else {
			coords = append(coords, math.Float64frombits(coord))
		}
		var ts []float64
		for _, p := range slots[0] {
			ts = append(ts, p.T)
		}
		held = append(held, ts)
	}
}

// TestGridTimeReanchor: a time below the anchor moves the grid while no
// window has fired, and is late once one has; a time below the next
// window's start is late and leaves the grid as it was.
func TestGridTimeReanchor(t *testing.T) {
	a := ClassifyWindow(TimeWindow{Size: 10})
	var g Grid
	for _, ts := range []float64{5, 3} {
		if !g.Admit(&a, ts) {
			t.Fatalf("t=%v refused before any fire", ts)
		}
	}
	if g.Origin != 3 || g.Start != 3 || g.Watermark != 5 {
		t.Fatalf("grid %+v, want re-anchored at 3 with watermark 5", g)
	}
	if g.Due(&a, false) {
		t.Fatal("due before the watermark reached the first end")
	}
	if !g.Admit(&a, 20) || !g.Due(&a, false) {
		t.Fatalf("t=20 did not make [3, 13) due: %+v", g)
	}
	bufs := []series.Series{points(3, 5, 20)}
	coords, held := drain(t, &g, &a, bufs, nil, false)
	if !slices.Equal(coords, []float64{3}) || !slices.Equal(held[0], []float64{3, 5}) {
		t.Fatalf("fired %v holding %v, want [3, 13) holding 3 and 5", coords, held)
	}
	for _, ts := range []float64{1, 12} {
		before := g
		if g.Admit(&a, ts) {
			t.Errorf("t=%v admitted below the next start 13", ts)
		}
		if g != before {
			t.Errorf("late t=%v moved the grid: %+v, was %+v", ts, g, before)
		}
	}
	if !g.Admit(&a, 13) {
		t.Error("t=13, the next start, refused")
	}
	coords, _ = drain(t, &g, &a, bufs, nil, true)
	if !slices.Equal(coords, []float64{13}) {
		t.Errorf("final fired %v, want the one start 13 up to the watermark 20", coords)
	}
}

// TestGridUnplaceableTime: a time window admits no time whose float64
// spacing is as wide as its step — NaN, ±Inf, 1.7e18 on size 10, and
// 2⁵³+2 on size 1, where adding the slide to the next start rounds back
// to it — and a session admits no time that is not finite. A refused
// time leaves the grid as it was.
func TestGridUnplaceableTime(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		win Windower
		ts  float64
	}{
		{TimeWindow{Size: 10}, 1.7e18},
		{TimeWindow{Size: 60, Slide: 10}, 1.7e18},
		{TimeWindow{Size: 1}, 0x1p53 + 2},
		{TimeWindow{Size: 10}, nan},
		{TimeWindow{Size: 10}, inf},
		{TimeWindow{Size: 10}, -inf},
		{SessionWindow{Gap: 5}, nan},
		{SessionWindow{Gap: 5}, inf},
	} {
		a := ClassifyWindow(tc.win)
		var g Grid
		if g.Admit(&a, tc.ts) || g != (Grid{}) {
			t.Errorf("%v admitted t=%v: %+v", tc.win, tc.ts, g)
		}
		if !g.Admit(&a, 1) {
			t.Errorf("%v refused t=1 after t=%v", tc.win, tc.ts)
		}
		if g.Admit(&a, tc.ts) {
			t.Errorf("%v admitted t=%v on an anchored grid", tc.win, tc.ts)
		}
	}
	a := ClassifyWindow(TimeWindow{Size: 1e9})
	var g Grid
	if !g.Admit(&a, 1.7e18) {
		t.Error("second windows refused a Unix-nanosecond time")
	}
}

// TestGridCountHop: with Slide > Size the grid skips the points between
// windows, and Trim drops them once the next window's index passes
// them, advancing drop: a buffer never holds more than a slide of
// points.
func TestGridCountHop(t *testing.T) {
	a := ClassifyWindow(CountWindow{Size: 2, Slide: 5})
	var g Grid
	bufs, drop := []series.Series{nil}, []int{0}
	var coords []float64
	var held [][]float64
	for i := 0; i < 12; i++ {
		if !g.Admit(&a, float64(i)) {
			t.Fatalf("count grid refused point %d", i)
		}
		bufs[0] = append(bufs[0], series.Point{T: float64(i)})
		c, h := drain(t, &g, &a, bufs, drop, false)
		if len(c) > 0 {
			g.Trim(&a, bufs, drop)
		}
		coords, held = append(coords, c...), append(held, h...)
		if len(bufs[0]) > 5 {
			t.Fatalf("after point %d the buffer holds %d points", i, len(bufs[0]))
		}
		if drop[0]+len(bufs[0]) != i+1 {
			t.Fatalf("after point %d: drop %d + %d buffered ≠ %d points", i, drop[0], len(bufs[0]), i+1)
		}
	}
	if !slices.Equal(coords, []float64{0, 5, 10}) {
		t.Errorf("windows start at %v, want indices 0, 5, 10", coords)
	}
	for i, want := range [][]float64{{0, 1}, {5, 6}, {10, 11}} {
		if !slices.Equal(held[i], want) {
			t.Errorf("window %d holds %v, want %v", i, held[i], want)
		}
	}
	if drop[0] != 12 || len(bufs[0]) != 0 {
		t.Errorf("drop %d with %d buffered, want every point below index 15 dropped", drop[0], len(bufs[0]))
	}
	// Batch replays the same grid over the whole series.
	ws := CountWindow{Size: 2, Slide: 5}.Windows([]series.Series{points(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)})
	if len(ws) != 3 || ws[2].Start != 10 || ws[2].End != 12 || ws[2].Index != 2 {
		t.Errorf("batch count windows %+v, want 3 ending with [10, 12) at index 2", ws)
	}
}

// TestGridTrim: Trim drops, in place, the points no later window can
// hold — below the next time start, below the open session's start, and
// everything once the global window or the last session fired — and
// keeps each buffer's array.
func TestGridTrim(t *testing.T) {
	t.Run("time", func(t *testing.T) {
		a := ClassifyWindow(TimeWindow{Size: 4, Slide: 2})
		var g Grid
		buf := points(0, 1, 2, 3, 4, 5, 6, 7, 9)
		for _, p := range buf {
			g.Admit(&a, p.T)
		}
		bufs := []series.Series{buf}
		coords, _ := drain(t, &g, &a, bufs, nil, false)
		if !slices.Equal(coords, []float64{0, 2, 4}) {
			t.Fatalf("fired %v, want starts 0, 2, 4 (watermark 9)", coords)
		}
		g.Trim(&a, bufs, nil)
		if got := bufs[0]; len(got) != 3 || got[0].T != 6 || &got[0] != &buf[0] {
			t.Errorf("trimmed to %v, want 6, 7, 9 moved to the front of the same array", got)
		}
	})
	t.Run("session", func(t *testing.T) {
		a := ClassifyWindow(SessionWindow{Gap: 5})
		var g Grid
		buf := points(0, 2, 10)
		for _, p := range buf {
			g.Admit(&a, p.T)
		}
		bufs := []series.Series{buf}
		drain(t, &g, &a, bufs, nil, false)
		g.Trim(&a, bufs, nil)
		if len(bufs[0]) != 1 || bufs[0][0].T != 10 || &bufs[0][0] != &buf[0] {
			t.Errorf("trimmed to %v, want the open session's 10 alone", bufs[0])
		}
		drain(t, &g, &a, bufs, nil, true)
		g.Trim(&a, bufs, nil)
		if len(bufs[0]) != 0 || g.SessOpen {
			t.Errorf("after the last session: %v buffered, open %v", bufs[0], g.SessOpen)
		}
	})
	t.Run("global", func(t *testing.T) {
		a := ClassifyWindow(GlobalWindow{})
		var g Grid
		bufs := []series.Series{points(3, 1), points(2)}
		if g.Due(&a, false) {
			t.Error("global window due before the end of the stream")
		}
		coords, _ := drain(t, &g, &a, bufs, nil, true)
		if len(coords) != 1 {
			t.Fatalf("%d global windows", len(coords))
		}
		g.Trim(&a, bufs, nil)
		if len(bufs[0])+len(bufs[1]) != 0 {
			t.Errorf("fired global window left %v buffered", bufs)
		}
		if g.Admit(&a, 4) {
			t.Error("an event after the global window fired was admitted")
		}
	})
}

// TestGridSessionRules: a session's largest time only grows; a time
// before its start joins it, as its new start, within Gap while nothing
// has fired, and is late otherwise; a time more than Gap past the
// largest makes the session due.
func TestGridSessionRules(t *testing.T) {
	a := ClassifyWindow(SessionWindow{Gap: 5})
	var g Grid
	for _, ts := range []float64{5, 9, 7} {
		g.Admit(&a, ts)
	}
	if g.SessStart != 5 || g.SessPrev != 9 {
		t.Fatalf("session [%v, %v], want [5, 9]: an earlier time must not lower the largest", g.SessStart, g.SessPrev)
	}
	if g.Admit(&a, -1) {
		t.Error("t=-1, 6 before the start, admitted")
	}
	if !g.Admit(&a, 1) || g.SessStart != 1 {
		t.Errorf("t=1, 4 before the start, did not re-anchor: %+v", g)
	}
	if g.Due(&a, false) {
		t.Fatal("due with nothing past the gap")
	}
	if !g.Admit(&a, 20) || !g.Due(&a, false) {
		t.Fatalf("t=20 did not close the session: %+v", g)
	}
	bufs := []series.Series{points(1, 5, 7, 9, 20)}
	coords, held := drain(t, &g, &a, bufs, nil, false)
	if !slices.Equal(coords, []float64{1}) || !slices.Equal(held[0], []float64{1, 5, 7, 9}) {
		t.Fatalf("fired %v holding %v, want the session at 1 holding 1, 5, 7, 9", coords, held)
	}
	if g.SessStart != 20 || g.SessPrev != 20 || g.Due(&a, false) {
		t.Errorf("after the fire: %+v, want the session opened at 20, not due", g)
	}
	if g.Admit(&a, 17) {
		t.Error("t=17 before the open session admitted after a fire")
	}
}
