package resample

import (
	"math"
	"testing"

	"sound/internal/series"
)

// TestExtractionSafe pins the per-point finiteness proof: which points
// fail |v|/16 + (|σ↑|+|σ↓|) ≤ MaxFloat64/16, and that one failing point
// makes the windows holding it unprovable and no other.
func TestExtractionSafe(t *testing.T) {
	above := math.Nextafter(safeLimit, math.Inf(1))
	for _, tc := range []struct {
		name string
		p    series.Point
		safe bool
	}{
		{"certain", series.Point{V: 3}, true},
		{"NaN value", series.Point{V: math.NaN()}, false},
		{"+Inf value", series.Point{V: math.Inf(1)}, false},
		{"-Inf value", series.Point{V: math.Inf(-1)}, false},
		{"NaN σ↑", series.Point{V: 1, SigUp: math.NaN(), SigDown: 1}, false},
		{"NaN σ↓", series.Point{V: 1, SigUp: 1, SigDown: math.NaN()}, false},
		{"+Inf σ", series.Point{V: 1, SigUp: math.Inf(1), SigDown: math.Inf(1)}, false},
		{"|v| = 1e308", series.Point{V: 1e308}, true},
		{"v = -1e308", series.Point{V: -1e308}, true},
		{"v = MaxFloat64", series.Point{V: math.MaxFloat64}, true},
		{"σ↑ = 1e307", series.Point{V: 1, SigUp: 1e307}, true},
		{"σ = 1e307 both sides", series.Point{V: 1, SigUp: 1e307, SigDown: 1e307}, false},
		{"σ at the bound", series.Point{SigUp: safeLimit}, true},
		{"σ past the bound", series.Point{SigUp: above}, false},
		{"σ split at the bound", series.Point{SigUp: safeLimit / 2, SigDown: safeLimit / 2}, true},
		{"|v| and σ past the bound", series.Point{V: 1e308, SigUp: 5e306, SigDown: 1e305}, false},
		{"negative σ", series.Point{V: 1, SigUp: -2, SigDown: 1}, true},
		{"negative σ past the bound", series.Point{V: 1, SigUp: 1, SigDown: -above}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var x Extraction
			x.Extract(series.Series{tc.p})
			if x.safe() != tc.safe {
				t.Fatalf("one-point extraction: safe = %v, want %v", x.safe(), tc.safe)
			}
			// The same point in the middle of safe neighbours: the whole
			// window follows the point, the windows beside it are safe.
			w := series.Series{{T: 0, V: 1}, {T: 1, V: 2, SigUp: 1, SigDown: 1}, tc.p, {T: 3, V: 4}}
			w[2].T = 2
			x.Extract(w)
			if x.safe() != tc.safe {
				t.Fatalf("four-point extraction: safe = %v, want %v", x.safe(), tc.safe)
			}
			for _, span := range [][2]int{{0, 2}, {3, 4}, {0, 0}, {1, 3}, {2, 3}, {0, 4}} {
				want := tc.safe || span[0] > 2 || span[1] <= 2
				if got := primedSafe(w[span[0]:span[1]]); got != want {
					t.Errorf("window [%d, %d): WindowSafe = %v, want %v", span[0], span[1], got, want)
				}
			}
		})
	}
}

// primedSafe primes a resampler with w and reports WindowSafe for it.
func primedSafe(w series.Series) bool {
	rs := New(Point, nil)
	rs.PrimeViews([]series.Series{w}, nil)
	return rs.WindowSafe(0)
}

// fuzzPoint decodes two bytes into a point, hostile shapes included:
// NaN, ±Inf, 1e308 values, σ past the bound, NaN and negative σ.
func fuzzPoint(t float64, kind, mag byte) series.Point {
	p := series.Point{T: t, V: float64(mag) - 128, SigUp: float64(mag % 7), SigDown: float64(mag % 5)}
	switch kind % 10 {
	case 1:
		p.V = math.NaN()
	case 2:
		p.V = math.Inf(1)
	case 3:
		p.V = math.Inf(-1)
	case 4:
		p.V = 1e308
	case 5:
		p.SigUp, p.SigDown = 1e307, 1e307
	case 6:
		p.SigDown = math.NaN()
	case 7:
		p.SigUp = -math.MaxFloat64
	case 8:
		p.SigUp, p.SigDown = 0, 0
	}
	return p
}

// FuzzExtractionSafe extracts random windows, hostile points included,
// into one reused extraction. After every Extract the extraction's proof,
// and WindowSafe on a resampler primed through its view, must equal a
// recount over the window's points: no verdict of an earlier window may
// leak into the next.
func FuzzExtractionSafe(f *testing.F) {
	f.Add([]byte{0, 1, 10, 2, 1, 20, 1, 4, 3, 3, 2, 5, 6, 7})
	f.Add([]byte{1, 2, 0, 1, 0, 2, 3, 1, 2, 2, 1, 9, 9})
	f.Add([]byte{2, 1, 0, 2, 5, 0, 2, 0, 0, 3, 1, 0, 0, 4, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		var x Extraction
		var w series.Series
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		for step := 0; len(data) > 0 && step < 256; step++ {
			w = w[:0]
			for n := int(next() % 24); n > 0; n-- {
				w = append(w, fuzzPoint(float64(len(w)), next(), next()))
			}
			x.Extract(w)
			want := true
			for _, p := range w {
				want = want && !unsafePoint(p.V, p.SigUp, p.SigDown)
			}
			if x.Len() != len(w) || x.safe() != want {
				t.Fatalf("step %d: %d points with safe = %v, want %d with %v", step, x.Len(), x.safe(), len(w), want)
			}
			rs := New(Point, nil)
			rs.PrimeViews([]series.Series{w}, []View{x.View()})
			if got := rs.WindowSafe(0); got != want {
				t.Fatalf("step %d: WindowSafe through the view = %v, its points say %v", step, got, want)
			}
		}
	})
}
