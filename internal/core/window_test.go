package core

import (
	"math"
	"testing"
	"testing/quick"

	"sound/internal/series"
)

func ramp(n int, dt float64) series.Series {
	s := make(series.Series, n)
	for i := range s {
		s[i] = series.Point{T: float64(i) * dt, V: float64(i)}
	}
	return s
}

func TestPointWindowUnary(t *testing.T) {
	s := ramp(5, 1)
	ws := PointWindow{}.Windows([]series.Series{s})
	if len(ws) != 5 {
		t.Fatalf("got %d windows", len(ws))
	}
	for i, w := range ws {
		if len(w.Windows) != 1 || len(w.Windows[0]) != 1 {
			t.Fatalf("window %d shape wrong", i)
		}
		if w.Windows[0][0].V != float64(i) {
			t.Errorf("window %d value = %v", i, w.Windows[0][0].V)
		}
		if w.Index != i {
			t.Errorf("window %d index = %d", i, w.Index)
		}
	}
}

func TestPointWindowBinaryTruncates(t *testing.T) {
	a, b := ramp(5, 1), ramp(3, 1)
	ws := PointWindow{}.Windows([]series.Series{a, b})
	if len(ws) != 3 {
		t.Fatalf("got %d windows, want min length 3", len(ws))
	}
}

func TestTimeWindowTumbling(t *testing.T) {
	s := ramp(10, 1) // t = 0..9
	ws := TimeWindow{Size: 3}.Windows([]series.Series{s})
	if len(ws) != 4 {
		t.Fatalf("got %d windows", len(ws))
	}
	if got := len(ws[0].Windows[0]); got != 3 {
		t.Errorf("first window has %d points", got)
	}
	// last window covers [9, 12): a single point
	if got := len(ws[3].Windows[0]); got != 1 {
		t.Errorf("last window has %d points", got)
	}
}

func TestTimeWindowSliding(t *testing.T) {
	s := ramp(10, 1)
	ws := TimeWindow{Size: 4, Slide: 2}.Windows([]series.Series{s})
	if len(ws) != 5 {
		t.Fatalf("got %d windows", len(ws))
	}
	if ws[1].Start != 2 || ws[1].End != 6 {
		t.Errorf("window 1 bounds = [%v, %v)", ws[1].Start, ws[1].End)
	}
}

func TestTimeWindowCoversAllPoints(t *testing.T) {
	// Property: tumbling time windows partition the series (every point
	// appears in exactly one window).
	f := func(raw []float64, size float64) bool {
		size = math.Mod(math.Abs(size), 10) + 0.1
		s := make(series.Series, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			s = append(s, series.Point{T: math.Mod(math.Abs(v), 1000), V: v})
		}
		s.Sort()
		ws := TimeWindow{Size: size}.Windows([]series.Series{s})
		total := 0
		for _, w := range ws {
			total += len(w.Windows[0])
		}
		return total == len(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTimeWindowBinaryAlignment(t *testing.T) {
	a := ramp(10, 1)         // span [0, 9]
	b := ramp(5, 1).Shift(7) // span [7, 11]
	ws := TimeWindow{Size: 5}.Windows([]series.Series{a, b})
	// union span [0, 11] -> windows starting 0, 5, 10
	if len(ws) != 3 {
		t.Fatalf("got %d windows", len(ws))
	}
	if n := len(ws[1].Windows[1]); n != 3 {
		t.Errorf("window [5,10) of b has %d points, want 3", n)
	}
	if n := len(ws[2].Windows[0]); n != 0 {
		t.Errorf("window [10,15) of a has %d points, want 0", n)
	}
}

func TestTimeWindowDegenerate(t *testing.T) {
	if got := (TimeWindow{Size: 0}).Windows([]series.Series{ramp(3, 1)}); got != nil {
		t.Error("zero size should yield nil")
	}
	if got := (TimeWindow{Size: 1}).Windows([]series.Series{{}}); got != nil {
		t.Error("empty series should yield nil")
	}
	if got := (TimeWindow{Size: 1}).Windows(nil); got != nil {
		t.Error("no series should yield nil")
	}
}

func TestCountWindowTumbling(t *testing.T) {
	s := ramp(10, 1)
	ws := CountWindow{Size: 3}.Windows([]series.Series{s})
	if len(ws) != 3 {
		t.Fatalf("got %d windows", len(ws))
	}
	for _, w := range ws {
		if len(w.Windows[0]) != 3 {
			t.Errorf("window %d has %d points", w.Index, len(w.Windows[0]))
		}
	}
}

func TestCountWindowSliding(t *testing.T) {
	s := ramp(6, 1)
	ws := CountWindow{Size: 3, Slide: 1}.Windows([]series.Series{s})
	if len(ws) != 4 {
		t.Fatalf("got %d windows", len(ws))
	}
	if ws[2].Windows[0][0].V != 2 {
		t.Errorf("window 2 starts at value %v", ws[2].Windows[0][0].V)
	}
}

func TestCountWindowTooShort(t *testing.T) {
	if got := (CountWindow{Size: 5}).Windows([]series.Series{ramp(3, 1)}); got != nil {
		t.Error("series shorter than window should yield nil")
	}
}

func TestGlobalWindow(t *testing.T) {
	a, b := ramp(5, 1), ramp(8, 2)
	ws := GlobalWindow{}.Windows([]series.Series{a, b})
	if len(ws) != 1 {
		t.Fatalf("got %d windows", len(ws))
	}
	if len(ws[0].Windows[0]) != 5 || len(ws[0].Windows[1]) != 8 {
		t.Error("global window should cover whole series")
	}
	if ws[0].End != 14 {
		t.Errorf("global end = %v", ws[0].End)
	}
}

func TestWindowerStrings(t *testing.T) {
	for _, w := range []Windower{
		PointWindow{}, TimeWindow{Size: 2}, TimeWindow{Size: 4, Slide: 2},
		CountWindow{Size: 3}, CountWindow{Size: 3, Slide: 1}, GlobalWindow{},
	} {
		if w.String() == "" {
			t.Errorf("%T has empty String()", w)
		}
	}
}
