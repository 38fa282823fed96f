package resample

import (
	"math"
	"testing"

	"sound/internal/rng"
	"sound/internal/series"
)

// cdfPoints are the shapes of point the closed form distinguishes:
// certain, symmetric, asymmetric either way, and one-sided either way.
var cdfPoints = []series.Point{
	{V: 1},
	{V: 1, SigUp: 0.7, SigDown: 0.7},
	{V: 1, SigUp: 2, SigDown: 0.5},
	{V: 1, SigUp: 0.3, SigDown: 1.5},
	{V: 1, SigUp: 1.2},
	{V: 1, SigDown: 0.9},
}

// cdfIntervals walk both ends across the point's value, with closed and
// open lower ends and infinite ends on either side.
func cdfIntervals() []Interval {
	inf := math.Inf(1)
	ivs := []Interval{{A: -inf, B: inf}, {A: 1, B: 1}, {A: 1, B: 1, OpenA: true}, {A: 1, B: inf, OpenA: true}, {A: 1, B: inf}, {A: -inf, B: 1}}
	for _, x := range []float64{-2, 0.2, 0.9, 1.4, 2.5, 6} {
		ivs = append(ivs, Interval{A: -inf, B: x}, Interval{A: x, B: inf}, Interval{A: x, B: inf, OpenA: true}, Interval{A: x - 1.5, B: x})
	}
	return ivs
}

func singlePoint(p series.Point) *Resampler {
	rs := New(Point, rng.New(1))
	rs.PrimeViews([]series.Series{{p}}, nil)
	return rs
}

// TestMissMatchesPerturbValue holds the closed form against the sampler it
// sits beside: for every point shape and interval, the fraction of
// PerturbValue draws that land in the interval against 1 − Miss.
func TestMissMatchesPerturbValue(t *testing.T) {
	const draws = 40000
	r := rng.New(7)
	worst := 0.0
	for _, p := range cdfPoints {
		xs := make([]float64, draws)
		for i := range xs {
			xs[i] = PerturbValue(p, r)
		}
		rs := singlePoint(p)
		for _, iv := range cdfIntervals() {
			in := 0
			for _, x := range xs {
				if iv.contains(x) {
					in++
				}
			}
			sum, hit := rs.Miss(0, iv)
			if hit != 1-sum || !(hit >= 0 && hit <= 1) {
				t.Errorf("%v in %+v: Miss sum %v, product %v", p, iv, sum, hit)
			}
			freq := float64(in) / draws
			z := (freq - hit) / math.Sqrt(math.Max(hit*(1-hit), 1.0/draws)/draws)
			worst = math.Max(worst, math.Abs(z))
			if math.Abs(z) >= 4.5 {
				t.Errorf("%v in %+v: closed form %v, %v of %d draws (z = %.2f)", p, iv, hit, freq, draws, z)
			}
		}
	}
	t.Logf("worst |z| %.2f", worst)
}

// TestMissBoundsBracketMiss: the table pass brackets the integral term by
// term on mixed windows, is exact where every point is out of every end's
// reach, and refuses a window with a negative uncertainty.
func TestMissBoundsBracketMiss(t *testing.T) {
	r := rng.New(3)
	var set Intervals
	for _, iv := range cdfIntervals() {
		set.Add(iv)
	}
	if again := set.Add(cdfIntervals()[3]); again != 3 || len(set.All) != len(cdfIntervals()) {
		t.Fatalf("Add does not deduplicate: index %d, %d intervals", again, len(set.All))
	}
	out := make([]MissBound, len(set.All))
	for trial := 0; trial < 200; trial++ {
		w := make(series.Series, 1+trial%23)
		for i := range w {
			w[i] = cdfPoints[(i+trial)%len(cdfPoints)]
			w[i].V = 4*r.Float64() - 1
			w[i].SigUp *= 3 * r.Float64()
			w[i].SigDown *= 3 * r.Float64()
		}
		rs := New(Set, rng.New(1))
		rs.PrimeViews([]series.Series{w}, nil)
		if !rs.WindowSafe(0) || !rs.MissBounds(0, &set, out) {
			t.Fatalf("trial %d: window refused", trial)
		}
		for j, iv := range set.All {
			sum, hit := rs.Miss(0, iv)
			b := out[j]
			const slack = 1e-12
			if !(b.Lo <= sum+slack && sum <= b.Hi+slack) || hit > 1-b.Top+slack {
				t.Errorf("trial %d %+v: Σq = %v outside [%v, %v], or Πp = %v above 1 − %v", trial, iv, sum, b.Lo, b.Hi, hit, b.Top)
			}
			if b.Hi == 0 && (sum != 0 || hit != 1) {
				t.Errorf("trial %d %+v: table says out of reach, integral says Σq = %v, Πp = %v", trial, iv, sum, hit)
			}
		}
	}
	far := series.Series{{V: 50, SigUp: 2, SigDown: 1}, {V: 60}, {V: 40, SigUp: 1}}
	rs := New(Point, rng.New(1))
	rs.PrimeViews([]series.Series{far}, nil)
	var one Intervals
	one.Add(Interval{A: 0, B: 100})
	if !rs.MissBounds(0, &one, out) || out[0] != (MissBound{}) {
		t.Errorf("clear window: %+v, want exact zeros", out[0])
	}
	for _, bad := range []series.Point{{V: 50, SigUp: -1, SigDown: 1}, {V: 50, SigUp: 1, SigDown: -1}, {V: 50, SigUp: -2, SigDown: -2}} {
		w := append(series.Series{bad}, far...)
		rs.PrimeViews([]series.Series{w}, nil)
		if rs.MissBounds(0, &one, out) {
			t.Errorf("%v: negative uncertainty accepted", bad)
		}
	}
}

// BenchmarkMissBounds times the table pass per point for Range(0, 100) on
// 1080 asymmetric points: with the upper bound within every point's reach,
// and with both ends out of it (two comparisons a point).
func BenchmarkMissBounds(b *testing.B) {
	for _, kind := range []struct {
		name   string
		margin float64
	}{{"near", 14}, {"clear", 40}} {
		r := rng.New(11)
		w := make(series.Series, 1080)
		for i := range w {
			w[i] = series.Point{T: float64(i), V: 100 - kind.margin + 1.5*r.NormFloat64(), SigUp: 2, SigDown: 1}
		}
		rs := New(Point, rng.New(1))
		rs.PrimeViews([]series.Series{w}, nil)
		var set Intervals
		set.Add(Interval{A: 0, B: 100})
		out := make([]MissBound, 1)
		b.Run(kind.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rs.MissBounds(0, &set, out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(w)), "ns/point")
		})
	}
}
