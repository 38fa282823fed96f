package sound_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"sound"
)

// TestQuickstartFlow exercises the documented end-to-end flow through the
// public API only.
func TestQuickstartFlow(t *testing.T) {
	data, err := sound.NewSeries(
		[]float64{1, 2, 4, 8, 9, 10},
		[]float64{1, 3, 2, 4, 8.5, 6},
		[]float64{2.1, 0.4, 0.6, 0.4, 2.2, 1.3},
		[]float64{1.6, 1.8, 1.1, 0.2, 1.6, 1.1},
	)
	if err != nil {
		t.Fatal(err)
	}
	check := sound.Check{
		Name:        "plausible-range",
		Constraint:  sound.Range(0, 100),
		SeriesNames: []string{"load"},
		Window:      sound.PointWindow{},
	}
	plan, err := sound.CompilePlan(check, sound.DefaultParams(), 42)
	if err != nil {
		t.Fatal(err)
	}
	results, err := plan.Run([]sound.Series{data})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("got %d results", len(results))
	}
	// Point 0 (v = 1, σ↓ = 1.6) is genuinely borderline against the
	// lower bound 0 — any outcome is defensible there. The remaining
	// points sit comfortably inside the range.
	for _, r := range results[1:] {
		if r.Outcome != sound.Satisfied {
			t.Errorf("window %d outcome = %v", r.Window.Index, r.Outcome)
		}
	}
}

func TestPipelineAndViolationAnalysisFlow(t *testing.T) {
	// Build a two-stage pipeline with an injected quality regression:
	// the second half of the derived series carries 10x the uncertainty.
	n := 120
	ts := make([]float64, n)
	vs := make([]float64, n)
	up := make([]float64, n)
	down := make([]float64, n)
	for i := 0; i < n; i++ {
		ts[i] = float64(i)
		vs[i] = 10.5 // slightly above the checked threshold of 10
		sig := 0.1
		if i >= 60 {
			sig = 5.0
		}
		up[i], down[i] = sig, sig
	}
	raw, err := sound.NewSeries(ts, vs, up, down)
	if err != nil {
		t.Fatal(err)
	}
	p := sound.NewPipeline()
	p.AddSeries("raw", raw)
	p.AddSeries("derived", raw.Clone())
	if err := p.Connect("raw", "identity", "derived"); err != nil {
		t.Fatal(err)
	}

	check := sound.Check{
		Name:        "above-threshold",
		Constraint:  windowedGreaterThan(10),
		SeriesNames: []string{"derived"},
		Window:      sound.TimeWindow{Size: 20},
	}
	plan, err := sound.CompilePlan(check, sound.Params{Credibility: 0.95, MaxSamples: 200}, 7)
	if err != nil {
		t.Fatal(err)
	}
	derived, _ := p.Series("derived")
	results, err := plan.Run([]sound.Series{derived})
	if err != nil {
		t.Fatal(err)
	}
	// The first three windows (tight σ) are confidently satisfied; the
	// later ones have σ dominating the threshold distance.
	if results[0].Outcome != sound.Satisfied {
		t.Errorf("window 0 = %v", results[0].Outcome)
	}

	cps := sound.ChangePoints(results)
	analyzer, err := sound.NewAnalyzer(sound.Params{Credibility: 0.95, MaxSamples: 200}, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, cp := range cps {
		rep := analyzer.Explain(check.Constraint, cp)
		if len(rep.Explanations) == 0 {
			t.Error("empty explanation set")
		}
		// The injected root cause is the uncertainty jump.
		if rep.Has(sound.E4HighUncertainty) {
			return // found the expected explanation on some change point
		}
	}
	if len(cps) > 0 {
		t.Error("no change point explained by E4 despite injected uncertainty jump")
	}
}

// windowedGreaterThan lifts GreaterThan to a windowed set constraint so
// that the check operates on time windows.
func windowedGreaterThan(t float64) sound.Constraint {
	c := sound.GreaterThan(t)
	c.Granularity = sound.WindowTime
	return c
}

func TestNaiveVsSoundComparison(t *testing.T) {
	// A borderline uncertain series: naive decides, SOUND withholds.
	data, err := sound.NewSeries(
		[]float64{0, 1, 2},
		[]float64{10.0, 10.0, 10.0},
		[]float64{6, 6, 6},
		[]float64{6, 6, 6},
	)
	if err != nil {
		t.Fatal(err)
	}
	c := sound.GreaterThan(10)
	tuple := sound.WindowTuple{Windows: []sound.Series{data[:1]}}
	naive := sound.EvaluateNaive(c, tuple)
	if naive != sound.Violated {
		t.Errorf("naive = %v", naive)
	}
}

func TestCSVRoundTripThroughFacade(t *testing.T) {
	s := sound.FromValues(1, 2, 3)
	var buf bytes.Buffer
	if err := sound.WriteCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "sig_up") {
		t.Error("missing CSV header")
	}
	got, err := sound.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2].V != 3 {
		t.Errorf("round trip = %v", got)
	}
}

func TestTemplatesExported(t *testing.T) {
	for _, c := range []sound.Constraint{
		sound.Range(0, 1), sound.GreaterThan(0), sound.NonNegative(),
		sound.FractionInRange(0, 1, 0.9), sound.MonotonicIncrease(true),
		sound.MaxDelta(1), sound.CountAtLeast(), sound.StdNonZero(),
		sound.LowerMeanDelta(), sound.CorrelationAbove(0.2),
		sound.CorrelationBelow(0.5), sound.RSquaredAbove(0),
		sound.KSDistanceBelow(0.3), sound.KLDivergenceBelow(1, 10),
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestKSChangeConstraintExported(t *testing.T) {
	cc := sound.KSChangeConstraint(0.05)
	a := sound.FromValues(1, 2, 3, 4, 5, 6, 7, 8)
	b := sound.FromValues(100, 101, 102, 103, 104, 105, 106, 107)
	if !cc(a, b) {
		t.Error("disjoint windows not flagged as changed")
	}
	if cc(a, a.Clone()) {
		t.Error("identical windows flagged as changed")
	}
}

func TestSeriesTransformsThroughFacade(t *testing.T) {
	a := sound.FromValues(1, 3, 5)
	b := sound.Series{{T: 0.5, V: 2}, {T: 1.5, V: 4}}
	m := sound.MergeSeries(a, b)
	if len(m) != 5 || !m.Sorted() {
		t.Errorf("MergeSeries = %v", m)
	}
	r := sound.Regularize(a, 1, 0)
	if len(r) != 3 {
		t.Errorf("Regularize = %v", r)
	}
	d := sound.DiffSeries(a)
	if len(d) != 2 || d[0].V != 2 {
		t.Errorf("DiffSeries = %v", d)
	}
	c := sound.CumulativeSeries(a)
	if c[2].V != 9 {
		t.Errorf("CumulativeSeries = %v", c)
	}
}

func TestSuggestChecksThroughFacade(t *testing.T) {
	counter := make(sound.Series, 50)
	total := 0.0
	for i := range counter {
		total += float64(i + 1)
		counter[i] = sound.Point{T: float64(i), V: total}
	}
	sugs := sound.SuggestChecks(map[string]sound.Series{"counter": counter}, sound.ProfileOptions{})
	if len(sugs) == 0 {
		t.Fatal("no suggestions")
	}
	foundMono := false
	for _, s := range sugs {
		if strings.Contains(s.Check.Name, "monotone") {
			foundMono = true
		}
		if err := s.Check.Validate(); err != nil {
			t.Errorf("%s: %v", s.Check.Name, err)
		}
	}
	if !foundMono {
		t.Error("monotone counter not suggested")
	}
}

func TestSessionWindowThroughFacade(t *testing.T) {
	s := sound.Series{{T: 0, V: 1}, {T: 1, V: 2}, {T: 100, V: 3}}
	ws := sound.SessionWindow{Gap: 10}.Windows([]sound.Series{s})
	if len(ws) != 2 {
		t.Errorf("sessions = %d", len(ws))
	}
}

func TestParallelEvaluationThroughFacade(t *testing.T) {
	data := sound.FromValues(1, 2, 3, 4, 5)
	ck := sound.Check{Name: "nonneg", Constraint: sound.NonNegative(), SeriesNames: []string{"s"}, Window: sound.PointWindow{}}
	pl, err := sound.CompilePlan(ck, sound.DefaultParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	results, err := pl.RunParallel(context.Background(), []sound.Series{data}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.Outcome != sound.Satisfied {
			t.Errorf("outcome = %v", r.Outcome)
		}
	}
}

func TestSummarizeThroughFacade(t *testing.T) {
	data := make(sound.Series, 40)
	for i := range data {
		sig := 0.1
		if i >= 20 {
			sig = 8.0
		}
		data[i] = sound.Point{T: float64(i), V: 10.4, SigUp: sig, SigDown: sig}
	}
	c := sound.GreaterThan(10)
	c.Granularity = sound.WindowTime
	ck := sound.Check{Name: "gt", Constraint: c, SeriesNames: []string{"s"}, Window: sound.TimeWindow{Size: 10}}
	plan, err := sound.CompilePlan(ck, sound.Params{Credibility: 0.95, MaxSamples: 150}, 2)
	if err != nil {
		t.Fatal(err)
	}
	results, err := plan.Run([]sound.Series{data})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := sound.NewAnalyzer(sound.Params{Credibility: 0.95, MaxSamples: 150}, 3)
	sum := sound.Summarize(ck, results, a, nil, 0.95)
	if sum.Satisfied+sum.Violated+sum.Inconclusive != len(results) {
		t.Error("summary tally mismatch")
	}
	if sum.String() == "" {
		t.Error("empty summary")
	}
}

func TestAlternativeChangeConstraintsThroughFacade(t *testing.T) {
	a := sound.FromValues(1, 2, 3, 4, 5, 6, 7, 8)
	b := sound.FromValues(101, 102, 103, 104, 105, 106, 107, 108)
	if !sound.MWUChangeConstraint(0.05)(a, b) {
		t.Error("MWU missed a 100-unit shift")
	}
	if !sound.WassersteinChangeConstraint(50)(a, b) {
		t.Error("Wasserstein missed a 100-unit shift")
	}
	if sound.WassersteinChangeConstraint(1000)(a, b) {
		t.Error("Wasserstein threshold ignored")
	}
}
