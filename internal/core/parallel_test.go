package core

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"sound/internal/series"
)

// runParallel compiles a unary check of c over win and runs it on s
// with the parallel batch path.
func runParallel(c Constraint, win Windower, s series.Series, params Params, seed uint64, workers int) ([]Result, error) {
	pl, err := CompilePlan(Check{Name: c.Name, Constraint: c, SeriesNames: []string{"s"}, Window: win}, params, seed)
	if err != nil {
		return nil, err
	}
	return pl.RunParallel(context.Background(), []series.Series{s}, workers)
}

// TestEvaluateAllParallelMatchesAcrossWorkerCounts requires bit-identical
// results of the parallel batch path — every Result field, not just the
// outcome — for any worker count, including the sequential Run and more
// workers than cores: every window is seeded from its own coordinate, so
// which worker evaluates it is invisible.
func TestEvaluateAllParallelMatchesAcrossWorkerCounts(t *testing.T) {
	s := make(series.Series, 200)
	for i := range s {
		s[i] = series.Point{T: float64(i), V: 10 + float64(i%5), SigUp: 2, SigDown: 2}
	}
	for _, tc := range []struct {
		cons Constraint
		win  Windower
		s    series.Series
	}{
		{GreaterThan(9), PointWindow{}, s},
		{MonotonicIncrease(false), TimeWindow{Size: 10, Slide: 3}, uncertainSeries(60)},
	} {
		params := Params{Credibility: 0.95, MaxSamples: 50}
		pl, err := CompilePlan(Check{Name: "c", Constraint: tc.cons, SeriesNames: []string{"s"}, Window: tc.win}, params, 7)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := pl.Run([]series.Series{tc.s})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 7, 16, runtime.GOMAXPROCS(0), 0} {
			got, err := runParallel(tc.cons, tc.win, tc.s, params, 7, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("%v workers=%d: RunParallel differs from Run", tc.win, workers)
			}
		}
	}
}

// TestEvaluateAllParallelMatchesSequentialEvaluator ties the parallel
// path to the sequential evaluator entry point, Check.Run, at the same
// seed: both report identical evidence.
func TestEvaluateAllParallelMatchesSequentialEvaluator(t *testing.T) {
	s := make(series.Series, 64)
	for i := range s {
		s[i] = series.Point{T: float64(i), V: 9.5 + float64(i%3), SigUp: 1.5, SigDown: 1}
	}
	params := Params{Credibility: 0.95, MaxSamples: 60}
	const seed = 11
	got, err := runParallel(GreaterThan(9), PointWindow{}, s, params, seed, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := runAll(t, MustEvaluator(params, seed), GreaterThan(9), PointWindow{}, s)
	if !reflect.DeepEqual(got, want) {
		t.Error("RunParallel differs from Check.Run at the same seed")
	}
}

func TestEvaluateAllParallelEmpty(t *testing.T) {
	out, err := runParallel(NonNegative(), PointWindow{}, series.Series{}, DefaultParams(), 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("got %d results for empty series", len(out))
	}
}

func TestEvaluateAllParallelValidatesParams(t *testing.T) {
	if _, err := runParallel(NonNegative(), PointWindow{}, nil, Params{Credibility: 2}, 1, 1); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestSessionWindowGrouping(t *testing.T) {
	s := series.Series{
		{T: 0, V: 1}, {T: 1, V: 2}, {T: 2, V: 3}, // session 1
		{T: 10, V: 4}, {T: 11, V: 5}, // session 2
		{T: 30, V: 6}, // session 3
	}
	ws := SessionWindow{Gap: 5}.Windows([]series.Series{s})
	if len(ws) != 3 {
		t.Fatalf("got %d sessions", len(ws))
	}
	sizes := []int{3, 2, 1}
	for i, w := range ws {
		if len(w.Windows[0]) != sizes[i] {
			t.Errorf("session %d has %d points, want %d", i, len(w.Windows[0]), sizes[i])
		}
	}
	if ws[1].Start != 10 || ws[1].End != 11 {
		t.Errorf("session 1 bounds = [%v, %v]", ws[1].Start, ws[1].End)
	}
}

func TestSessionWindowCoversAllPoints(t *testing.T) {
	s := make(series.Series, 50)
	tt := 0.0
	for i := range s {
		if i%7 == 0 {
			tt += 20
		} else {
			tt += 1
		}
		s[i] = series.Point{T: tt, V: float64(i)}
	}
	ws := SessionWindow{Gap: 10}.Windows([]series.Series{s})
	total := 0
	for _, w := range ws {
		total += len(w.Windows[0])
	}
	if total != len(s) {
		t.Errorf("sessions cover %d of %d points", total, len(s))
	}
}

func TestSessionWindowDegenerate(t *testing.T) {
	if got := (SessionWindow{Gap: 0}).Windows([]series.Series{{{T: 1}}}); got != nil {
		t.Error("zero gap should yield nil")
	}
	if got := (SessionWindow{Gap: 5}).Windows([]series.Series{{}}); got != nil {
		t.Error("empty series should yield nil")
	}
	if (SessionWindow{Gap: 5}).String() == "" {
		t.Error("empty String()")
	}
}

func TestSessionWindowBinary(t *testing.T) {
	a := series.Series{{T: 0, V: 1}, {T: 1, V: 2}, {T: 20, V: 3}}
	b := series.Series{{T: 0.5, V: 9}, {T: 19, V: 8}, {T: 21, V: 7}}
	ws := SessionWindow{Gap: 5}.Windows([]series.Series{a, b})
	if len(ws) != 2 {
		t.Fatalf("got %d sessions", len(ws))
	}
	// First session [0, 1]: b contributes its t=0.5 point.
	if len(ws[0].Windows[1]) != 1 || ws[0].Windows[1][0].V != 9 {
		t.Errorf("session 0 of b = %v", ws[0].Windows[1])
	}
}

func BenchmarkEvaluateAllParallel(b *testing.B) {
	s := make(series.Series, 500)
	for i := range s {
		s[i] = series.Point{T: float64(i), V: 10, SigUp: 1, SigDown: 1}
	}
	params := Params{Credibility: 0.95, MaxSamples: 100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runParallel(GreaterThan(5), PointWindow{}, s, params, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}
