package core_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"sound/internal/checker"
	"sound/internal/core"
	"sound/internal/pipeline"
	"sound/internal/series"
)

// TestBatchEntryPointsBitEqual holds every batch entry point to one
// answer: CheckPlan.Run, CheckPlan.RunParallel at 1, 2 and 4
// workers, and the first check of a Suite (seeded at the suite's seed)
// under Suite.Run and Suite.RunParallel return bit-equal Results, on
// uncertain, borderline data where every window draws.
func TestBatchEntryPointsBitEqual(t *testing.T) {
	s := make(series.Series, 80)
	for i := range s {
		s[i] = series.Point{T: float64(i), V: 10 + float64(i%5) - 2, SigUp: 2, SigDown: 1.5}
	}
	ss := []series.Series{s}
	p := pipeline.New()
	p.AddSeries("s", s)
	params := core.Params{Credibility: 0.95, MaxSamples: 80}
	const seed = 17
	for _, ck := range []core.Check{
		{Name: "gt", Constraint: core.GreaterThan(10), SeriesNames: []string{"s"}, Window: core.PointWindow{}},
		{Name: "frac", Constraint: core.FractionInRange(9, 11, 0.5), SeriesNames: []string{"s"}, Window: core.TimeWindow{Size: 8, Slide: 3}},
		{Name: "mono", Constraint: core.MonotonicIncrease(false), SeriesNames: []string{"s"}, Window: core.CountWindow{Size: 4}},
	} {
		pl, err := core.CompilePlan(ck, params, seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := pl.Run(ss)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string][]core.Result{}
		for _, workers := range []int{1, 2, 4} {
			rs, err := pl.RunParallel(context.Background(), ss, workers)
			if err != nil {
				t.Fatal(err)
			}
			got[fmt.Sprintf("RunParallel/%d", workers)] = rs
		}
		suite := &checker.Suite{Pipeline: p, Checks: []core.Check{ck}}
		run, err := suite.Run(params, seed)
		if err != nil {
			t.Fatal(err)
		}
		got["Suite.Run"] = run[ck.Name]
		for _, workers := range []int{1, 2, 4} {
			par, err := suite.RunParallel(params, seed, workers)
			if err != nil {
				t.Fatal(err)
			}
			got[fmt.Sprintf("Suite.RunParallel/%d", workers)] = par[ck.Name]
		}
		for path, rs := range got {
			if !reflect.DeepEqual(rs, want) {
				t.Errorf("%s: %s differs from CheckPlan.Run", ck.Name, path)
			}
		}
	}
}
