package violation

import (
	"strings"
	"testing"

	"sound/internal/core"
	"sound/internal/pipeline"
	"sound/internal/series"
	"sound/internal/stat"
)

func TestSummarizeEndToEnd(t *testing.T) {
	// Threshold check over time windows; an uncertainty regression is
	// injected halfway through.
	n := 120
	s := make(series.Series, n)
	for i := range s {
		sig := 0.1
		if i >= 60 {
			sig = 6.0
		}
		s[i] = series.Point{T: float64(i), V: 10.5, SigUp: sig, SigDown: sig}
	}
	p := pipeline.New()
	p.AddSeries("raw", s)
	p.AddSeries("checked", s.Clone())
	if err := p.Connect("raw", "id", "checked"); err != nil {
		t.Fatal(err)
	}
	c := core.GreaterThan(10)
	c.Granularity = core.WindowTime
	ck := core.Check{
		Name:        "gt10",
		Constraint:  c,
		SeriesNames: []string{"checked"},
		Window:      core.TimeWindow{Size: 20},
	}
	params := core.Params{Credibility: 0.95, MaxSamples: 200}
	plan, err := core.CompilePlan(ck, params, 5)
	if err != nil {
		t.Fatal(err)
	}
	results, err := plan.Run([]series.Series{s})
	if err != nil {
		t.Fatal(err)
	}
	a := MustAnalyzer(params, 9)
	sum := Summarize(ck, results, a, p, 0.95)
	if sum.Satisfied+sum.Violated+sum.Inconclusive != len(results) {
		t.Error("outcome tally does not cover all results")
	}
	if len(sum.Reports) != len(ChangePoints(results)) {
		t.Error("report count mismatch")
	}
	total := 0
	for _, n := range sum.ExplanationCounts {
		total += n
	}
	if len(sum.Reports) > 0 && total == 0 {
		t.Error("change points without any explanation")
	}
	out := sum.String()
	if !strings.Contains(out, "gt10") || !strings.Contains(out, "change point") {
		t.Errorf("summary output incomplete:\n%s", out)
	}
}

func TestSummarizeNilPipelineSkipsDrillDown(t *testing.T) {
	results := []core.Result{
		{Outcome: core.Satisfied, Window: core.WindowTuple{Windows: []series.Series{series.FromValues(1)}}},
		{Outcome: core.Violated, Window: core.WindowTuple{Windows: []series.Series{series.FromValues(2)}}},
	}
	ck := core.Check{Name: "x", Constraint: core.NonNegative(), SeriesNames: []string{"s"}, Window: core.PointWindow{}}
	a := MustAnalyzer(core.DefaultParams(), 1)
	sum := Summarize(ck, results, a, nil, 0.95)
	if len(sum.Annotated.Names()) != 0 {
		t.Error("drill-down ran without a pipeline")
	}
	if len(sum.Reports) != 1 {
		t.Errorf("reports = %d", len(sum.Reports))
	}
}

func TestAlternativeChangeConstraints(t *testing.T) {
	shifted := func(d float64) (series.Series, series.Series) {
		a := make(series.Series, 60)
		b := make(series.Series, 60)
		for i := range a {
			v := float64(i % 7)
			a[i] = series.Point{T: float64(i), V: v}
			b[i] = series.Point{T: float64(i), V: v + d}
		}
		return a, b
	}
	same, _ := shifted(0)
	_, moved := shifted(5)

	for name, cc := range map[string]ChangeConstraint{
		"mwu":         MWUChangeConstraint(0.05),
		"wasserstein": WassersteinChangeConstraint(1.0),
	} {
		if cc(same, same.Clone()) {
			t.Errorf("%s: identical windows flagged", name)
		}
		if !cc(same, moved) {
			t.Errorf("%s: 5-unit shift not flagged", name)
		}
	}
}

func TestWassersteinConstraintMagnitudeAware(t *testing.T) {
	// A shift below the threshold is not a change even if statistically
	// detectable — the property that distinguishes it from KS/MWU.
	a := make(series.Series, 500)
	b := make(series.Series, 500)
	for i := range a {
		v := float64(i%10) * 0.1
		a[i] = series.Point{T: float64(i), V: v}
		b[i] = series.Point{T: float64(i), V: v + 0.2}
	}
	// KS flags the 0.2 shift on 500 points...
	if !KSChangeConstraint(0.05)(a, b) {
		t.Skip("KS unexpectedly insensitive; environment-specific")
	}
	// ...but a Wasserstein threshold of 1.0 does not.
	if WassersteinChangeConstraint(1.0)(a, b) {
		t.Error("sub-threshold shift flagged by Wasserstein constraint")
	}
	if d := stat.Wasserstein1(a.Values(), b.Values()); d < 0.15 || d > 0.25 {
		t.Errorf("Wasserstein distance = %v, want ~0.2", d)
	}
}
