package core

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"sound/internal/series"
)

func TestClassifyWindow(t *testing.T) {
	cases := []struct {
		w    Windower
		want WindowAssigner
	}{
		{PointWindow{}, WindowAssigner{Kind: KindPoint}},
		{TimeWindow{Size: 10}, WindowAssigner{Kind: KindTumblingTime, Size: 10, Slide: 10}},
		{TimeWindow{Size: 10, Slide: 10}, WindowAssigner{Kind: KindTumblingTime, Size: 10, Slide: 10}},
		{TimeWindow{Size: 10, Slide: 4}, WindowAssigner{Kind: KindSlidingTime, Size: 10, Slide: 4}},
		{CountWindow{Size: 5}, WindowAssigner{Kind: KindCount, Count: 5, CountSlide: 5}},
		{CountWindow{Size: 5, Slide: 2}, WindowAssigner{Kind: KindCount, Count: 5, CountSlide: 2}},
		{GlobalWindow{}, WindowAssigner{Kind: KindGlobal}},
		{SessionWindow{Gap: 3}, WindowAssigner{Kind: KindSession, Gap: 3}},
		{customWindower{}, WindowAssigner{Kind: KindCustom}},
	}
	for _, tc := range cases {
		if got := ClassifyWindow(tc.w); got != tc.want {
			t.Errorf("ClassifyWindow(%#v) = %+v, want %+v", tc.w, got, tc.want)
		}
	}
}

type customWindower struct{}

func (customWindower) Windows(ss []series.Series) []WindowTuple { return nil }
func (customWindower) String() string                           { return "custom" }

func TestWindowKindString(t *testing.T) {
	kinds := []WindowKind{KindPoint, KindTumblingTime, KindSlidingTime, KindCount, KindGlobal, KindSession, KindCustom}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d: bad or duplicate name %q", k, s)
		}
		seen[s] = true
	}
}

func TestCompilePlanValidates(t *testing.T) {
	ck := Check{
		Name:        "r",
		Constraint:  Range(0, 1),
		SeriesNames: []string{"s"},
		Window:      PointWindow{},
	}
	if _, err := CompilePlan(ck, DefaultParams(), 1); err != nil {
		t.Fatalf("valid check rejected: %v", err)
	}
	bad := ck
	bad.Window = nil
	if _, err := CompilePlan(bad, DefaultParams(), 1); err == nil {
		t.Error("check without window accepted")
	}
	if _, err := CompilePlan(ck, Params{Credibility: 5}, 1); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := ck.Compile(DefaultParams(), 1); err != nil {
		t.Error("Compile convenience failed")
	}
}

func TestPlanArityMismatch(t *testing.T) {
	ck := Check{Name: "r", Constraint: Range(0, 1), SeriesNames: []string{"s"}, Window: PointWindow{}}
	pl, err := CompilePlan(ck, DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Run(nil); err == nil {
		t.Error("arity mismatch accepted by Run")
	}
	if _, err := pl.RunNaive(nil); err == nil {
		t.Error("arity mismatch accepted by RunNaive")
	}
	if _, err := pl.RunParallel(context.Background(), nil, 2); err == nil {
		t.Error("arity mismatch accepted by RunParallel")
	}
}

// TestPlanRefusesUnplaceableTime: a series holding a time its window
// cannot place is refused with an error naming the series and the time,
// by every run path, instead of run: a time window would walk its grid
// without end on such a series, since start + size == start at
// t = 1.7e18 for size 10, and at 2⁵³+4 adding a slide of 1 rounds back
// to the start. Windows that place every time run.
func TestPlanRefusesUnplaceableTime(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		win Windower
		ts  []float64
		bad string // the time the error must name; "" runs
	}{
		{TimeWindow{Size: 10}, []float64{0, 1.7e18}, "1.7e+18"},
		{TimeWindow{Size: 60, Slide: 10}, []float64{1.7e18}, "1.7e+18"},
		{TimeWindow{Size: 1}, []float64{0x1p53 + 2, 0x1p53 + 6}, "9.007199254740994e+15"},
		{TimeWindow{Size: 10}, []float64{0, inf}, "+Inf"},
		{TimeWindow{Size: 10}, []float64{nan, 1}, "NaN"},
		{SessionWindow{Gap: 5}, []float64{0, inf}, "+Inf"},
		{SessionWindow{Gap: 5}, []float64{-inf, 0}, "-Inf"},
		{TimeWindow{Size: 1e9}, []float64{1.7e18, 1.7e18 + 5e9}, ""},
		{SessionWindow{Gap: 5}, []float64{1e300}, ""},
		{CountWindow{Size: 1}, []float64{0, inf}, ""},
		{GlobalWindow{}, []float64{nan, 1}, ""},
	} {
		s := make(series.Series, len(tc.ts))
		for i, ts := range tc.ts {
			s[i] = series.Point{T: ts, V: 1}
		}
		ck := Check{Name: "r", Constraint: Range(0, 2), SeriesNames: []string{"speed"}, Window: tc.win}
		pl, err := CompilePlan(ck, DefaultParams(), 1)
		if err != nil {
			t.Fatal(err)
		}
		ss := []series.Series{s}
		_, errRun := pl.Run(ss)
		_, errNaive := pl.RunNaive(ss)
		_, errPar := pl.RunParallel(context.Background(), ss, 2)
		for _, err := range []error{errRun, errNaive, errPar} {
			switch {
			case tc.bad == "" && err != nil:
				t.Errorf("%v on %v: %v, want a run", tc.win, tc.ts, err)
			case tc.bad != "" && (err == nil || !strings.Contains(err.Error(), `"speed"`) || !strings.Contains(err.Error(), tc.bad)):
				t.Errorf("%v on %v: err = %v, want one naming series \"speed\" and time %s", tc.win, tc.ts, err, tc.bad)
			}
		}
	}
}

// uncertainSeries is a workload where the sampler genuinely runs, so any
// seeding or parameter drift would change the results.
func uncertainSeries(n int) series.Series {
	s := make(series.Series, n)
	for i := range s {
		s[i] = series.Point{T: float64(i), V: 10 + float64(i%7), SigUp: 4, SigDown: 4}
	}
	return s
}

// TestPlanRunMatchesLegacySequential pins the compiled path to the
// pre-plan sequential algorithm: an evaluator built with
// NewEvaluator(params, seed) running EvaluateAll directly. Bit-identical
// Results, not just outcomes.
func TestPlanRunMatchesLegacySequential(t *testing.T) {
	ss := []series.Series{uncertainSeries(60)}
	ck := Check{Name: "gt", Constraint: GreaterThan(11), SeriesNames: []string{"s"}, Window: TimeWindow{Size: 8}}
	params := Params{Credibility: 0.95, MaxSamples: 60}
	const seed = 42

	legacy := MustEvaluator(params, seed).EvaluateAll(ck.Constraint, ck.Window, ss)

	pl, err := CompilePlan(ck, params, seed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pl.Run(ss)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, legacy) {
		t.Error("plan.Run diverged from legacy NewEvaluator+EvaluateAll results")
	}

	// Check.Run (the facade path) must agree too.
	viaCheck, err := ck.Run(MustEvaluator(params, seed), ss)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaCheck, legacy) {
		t.Error("Check.Run diverged from legacy results")
	}
}

// TestPlanRunParallelMatchesLegacy pins the parallel path to the
// pre-plan per-window derived-seed algorithm: a fresh evaluator seeded
// seed ^ (i·0x9e3779b97f4a7c15 + 1) per window tuple.
func TestPlanRunParallelMatchesLegacy(t *testing.T) {
	ss := []series.Series{uncertainSeries(60)}
	ck := Check{Name: "gt", Constraint: GreaterThan(11), SeriesNames: []string{"s"}, Window: CountWindow{Size: 6}}
	params := Params{Credibility: 0.95, MaxSamples: 60}
	const seed = 99

	tuples := ck.Window.Windows(ss)
	legacy := make([]Result, len(tuples))
	for i, tuple := range tuples {
		e := MustEvaluator(params, seed^(uint64(i)*0x9e3779b97f4a7c15+1))
		legacy[i] = e.Evaluate(ck.Constraint, tuple)
	}

	pl, err := CompilePlan(ck, params, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 16} {
		got, err := pl.RunParallel(context.Background(), ss, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, legacy) {
			t.Errorf("workers=%d: RunParallel diverged from legacy per-window seeding", workers)
		}
	}
}

func TestPlanNewEvaluatorMatchesNewEvaluator(t *testing.T) {
	ck := Check{Name: "gt", Constraint: GreaterThan(11), SeriesNames: []string{"s"}, Window: PointWindow{}}
	params := Params{Credibility: 0.95, MaxSamples: 60}
	pl, err := CompilePlan(ck, params, 7)
	if err != nil {
		t.Fatal(err)
	}
	tuple := PointWindow{}.Windows([]series.Series{uncertainSeries(1)})[0]
	a := pl.NewEvaluator(3).Evaluate(ck.Constraint, tuple)
	b := MustEvaluator(params, 10).Evaluate(ck.Constraint, tuple)
	if !reflect.DeepEqual(a, b) {
		t.Error("plan.NewEvaluator(off) != NewEvaluator(params, seed+off)")
	}
}

func TestEvaluatorAtAndDeriveMatchNewEvaluator(t *testing.T) {
	ck := Check{Name: "gt", Constraint: GreaterThan(11), SeriesNames: []string{"s"}, Window: PointWindow{}}
	params := Params{Credibility: 0.95, MaxSamples: 60}
	pl, err := CompilePlan(ck, params, 7)
	if err != nil {
		t.Fatal(err)
	}
	tuple := PointWindow{}.Windows([]series.Series{uncertainSeries(1)})[0]
	want := MustEvaluator(params, 123).Evaluate(ck.Constraint, tuple)
	if got := pl.EvaluatorAt(123).Evaluate(ck.Constraint, tuple); !reflect.DeepEqual(want, got) {
		t.Error("plan.EvaluatorAt(seed) != NewEvaluator(params, seed)")
	}
	// Derive stamps out a pooled evaluator at an absolute seed, sharing
	// the base evaluator's decision table.
	base := MustEvaluator(params, 999)
	if got := base.Derive(123).Evaluate(ck.Constraint, tuple); !reflect.DeepEqual(want, got) {
		t.Error("evaluator.Derive(seed) != NewEvaluator(params, seed)")
	}
}

func TestPlanRunParallelCancelled(t *testing.T) {
	ss := []series.Series{uncertainSeries(200)}
	ck := Check{Name: "gt", Constraint: GreaterThan(11), SeriesNames: []string{"s"}, Window: PointWindow{}}
	pl, err := CompilePlan(ck, DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pl.RunParallel(ctx, ss, 4); err != context.Canceled {
		t.Errorf("cancelled RunParallel error = %v, want context.Canceled", err)
	}
}

func TestPlanAccessors(t *testing.T) {
	ck := Check{Name: "r", Constraint: Range(0, 1), SeriesNames: []string{"s"}, Window: TimeWindow{Size: 5}}
	pl, err := CompilePlan(ck, DefaultParams(), 11)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Check().Name != "r" || pl.Seed() != 11 || pl.Arity() != 1 {
		t.Errorf("accessors: %q %d %d", pl.Check().Name, pl.Seed(), pl.Arity())
	}
	if pl.Assigner().Kind != KindTumblingTime {
		t.Errorf("assigner kind = %v", pl.Assigner().Kind)
	}
	if pl.Params().Credibility != DefaultParams().Credibility {
		t.Errorf("params = %+v", pl.Params())
	}
}
