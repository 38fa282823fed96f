package violation

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"sound/internal/core"
	"sound/internal/pipeline"
	"sound/internal/series"
)

// parityWorkload builds a unary threshold check over time windows, a
// pipeline with an upstream series, and an evaluated result sequence
// with many change points: alternating 20-unit regimes of dense,
// clearly satisfied windows (30±2) and sparse, uncertain violated
// windows (7±3).
func parityWorkload(t *testing.T) (core.Check, []core.Result, *pipeline.Pipeline, core.Params) {
	t.Helper()
	var s series.Series
	for i := 0; i < 400; i++ {
		if (i/20)%2 == 1 {
			if i%3 != 0 {
				continue
			}
			s = append(s, series.Point{T: float64(i), V: 7, SigUp: 3, SigDown: 3})
		} else {
			s = append(s, series.Point{T: float64(i), V: 30, SigUp: 2, SigDown: 2})
		}
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
	params := core.Params{Credibility: 0.95, MaxSamples: 100}
	results, err := ck.Run(core.MustEvaluator(params, 5), []series.Series{s})
	if err != nil {
		t.Fatal(err)
	}
	if cps := len(ChangePoints(results)); cps < 5 {
		t.Fatalf("workload has only %d change points, want >= 5", cps)
	}
	return ck, results, p, params
}

func sameSummary(t *testing.T, label string, want, got *Summary) {
	t.Helper()
	if !reflect.DeepEqual(want.Reports, got.Reports) {
		t.Errorf("%s: reports differ", label)
	}
	if !reflect.DeepEqual(want.ExplanationCounts, got.ExplanationCounts) {
		t.Errorf("%s: explanation counts differ: %v vs %v", label, want.ExplanationCounts, got.ExplanationCounts)
	}
	if !reflect.DeepEqual(want.Annotated, got.Annotated) {
		t.Errorf("%s: annotations differ: %v vs %v", label, want.Annotated.Names(), got.Annotated.Names())
	}
	if want.ChangeEvaluations != got.ChangeEvaluations {
		t.Errorf("%s: change evaluations = %d, want %d", label, got.ChangeEvaluations, want.ChangeEvaluations)
	}
	if want.Satisfied != got.Satisfied || want.Violated != got.Violated || want.Inconclusive != got.Inconclusive {
		t.Errorf("%s: outcome tallies differ", label)
	}
}

// summarizeSequential is the reference the fan-out is compared with: one
// Analyzer.Explain call per change point, in order, on one goroutine,
// each E1 report drilled upstream as it is produced.
func summarizeSequential(ck core.Check, results []core.Result, a *Analyzer, p *pipeline.Pipeline, credibility float64) *Summary {
	s := &Summary{Check: ck, ExplanationCounts: map[Explanation]int{}, Annotated: pipeline.Annotation{}}
	for _, r := range results {
		switch r.Outcome {
		case core.Satisfied:
			s.Satisfied++
		case core.Violated:
			s.Violated++
		default:
			s.Inconclusive++
		}
	}
	ua := NewUpstreamAnalysis(credibility)
	for _, cp := range ChangePoints(results) {
		rep := a.Explain(ck.Constraint, cp)
		s.Reports = append(s.Reports, rep)
		for _, e := range rep.Explanations {
			s.ExplanationCounts[e]++
		}
		if rep.Primary() == E1ValueChange {
			for name := range ua.Annotate(p, ck, cp) {
				s.Annotated.Add(name)
			}
		}
	}
	s.ChangeEvaluations = ua.Evaluations
	return s
}

// TestSummarizeParallelBitParity is the determinism contract: the
// summary — reports, explanation counts, annotations, change
// evaluations — is identical to a sequential Analyzer.Explain pass for
// every worker count, and for Summarize's own choice of it, on a
// workload with >= 5 change points.
func TestSummarizeParallelBitParity(t *testing.T) {
	ck, results, p, params := parityWorkload(t)
	const seed = 9
	seq := summarizeSequential(ck, results, MustAnalyzer(params, seed), p, 0.95)
	if len(seq.Reports) < 5 {
		t.Fatalf("sequential summary has %d reports", len(seq.Reports))
	}
	for _, workers := range []int{1, 2, 8} {
		par, err := SummarizeParallel(context.Background(), ck, results, MustAnalyzer(params, seed), p, 0.95, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sameSummary(t, fmt.Sprintf("workers=%d", workers), seq, par)
	}
	sameSummary(t, "Summarize", seq, Summarize(ck, results, MustAnalyzer(params, seed), p, 0.95))
}

// TestExplainAllBinaryParity exercises the per-window fan-out of a k-ary
// check: every (change point, window) unit runs under its own derived
// stream, so ExplainAll matches a sequential Explain pass bit for bit.
func TestExplainAllBinaryParity(t *testing.T) {
	c := core.CorrelationAbove(0.2)
	mk := func(n int, slope, sigma float64) series.Series {
		s := make(series.Series, n)
		for i := range s {
			s[i] = series.Point{T: float64(i), V: slope*float64(i) + 0.3*float64(i%4), SigUp: sigma, SigDown: sigma}
		}
		return s
	}
	// Hand-built change points with differing sparsity and uncertainty
	// per input, so E2-E5 all exercise their what-if evaluations.
	var cps []ChangePoint
	for i := 0; i < 6; i++ {
		pos := core.WindowTuple{
			Windows: []series.Series{mk(40, 1, 0.2), mk(40, 2, 0.2)},
			Start:   float64(2 * i), End: float64(2*i + 1), Index: 2 * i,
		}
		neg := core.WindowTuple{
			Windows: []series.Series{mk(12, 1, 3), mk(60, -1, 0.05)},
			Start:   float64(2*i + 1), End: float64(2*i + 2), Index: 2*i + 1,
		}
		cps = append(cps, ChangePoint{Index: 2*i + 1, Pos: pos, Neg: neg})
	}
	params := core.Params{Credibility: 0.9, MaxSamples: 80}
	const seed = 21
	a := MustAnalyzer(params, seed)
	want := make([]Report, len(cps))
	for i, cp := range cps {
		want[i] = a.Explain(c, cp)
	}
	for _, workers := range []int{1, 3, 8} {
		got, err := ExplainAll(context.Background(), c, cps, params, seed, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: reports differ from sequential Explain", workers)
		}
	}
}

// TestExplainAllOrderedConstraint covers the E6 whole-tuple units of the
// parallel path against sequential Explain.
func TestExplainAllOrderedConstraint(t *testing.T) {
	c := core.MonotonicIncrease(true)
	var cps []ChangePoint
	for i := 0; i < 5; i++ {
		cps = append(cps, ChangePoint{
			Index: i + 1,
			Pos:   core.WindowTuple{Windows: []series.Series{series.FromValues(1, 2, 3, 4, 5, 6, 7, 8, 9)}, Index: i},
			Neg:   core.WindowTuple{Windows: []series.Series{series.FromValues(10, 11, 12, 13, 14, 15, 16, 17, 18)}, Index: i + 1},
		})
	}
	params := core.Params{Credibility: 0.95, MaxSamples: 100}
	a := MustAnalyzer(params, 17)
	want := make([]Report, len(cps))
	for i, cp := range cps {
		want[i] = a.Explain(c, cp)
	}
	got, err := ExplainAll(context.Background(), c, cps, params, 17, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("parallel reports differ for ordered constraint")
	}
	if !got[0].Has(E6ResamplingFalsePositive) {
		t.Error("E6 not confirmed on monotone data via parallel path")
	}
}

// TestSummarizeParallelCancellation verifies that a cancelled context
// aborts the analysis with ctx.Err() and leaks no goroutines.
func TestSummarizeParallelCancellation(t *testing.T) {
	ck, results, p, params := parityWorkload(t)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // workers must observe the cancellation and exit
	if _, err := SummarizeParallel(ctx, ck, results, MustAnalyzer(params, 9), p, 0.95, 8); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The worker pool joins before SummarizeParallel returns; give the
	// runtime a moment to retire the exited goroutines.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestExplainAllEmptyAndInvalid covers the trivial and error paths.
func TestExplainAllEmptyAndInvalid(t *testing.T) {
	reports, err := ExplainAll(context.Background(), core.NonNegative(), nil, core.DefaultParams(), 1, 4)
	if err != nil || len(reports) != 0 {
		t.Errorf("empty input: reports=%v err=%v", reports, err)
	}
	if _, err := ExplainAll(context.Background(), core.NonNegative(), nil, core.Params{Credibility: 7}, 1, 4); err == nil {
		t.Error("invalid params accepted")
	}
}

// TestNewAnalyzerForPlan: a plan-attached analyzer produces the same
// reports as a standalone one with the same (params, seed).
func TestNewAnalyzerForPlan(t *testing.T) {
	ck, results, _, params := parityWorkload(t)
	pl, err := core.CompilePlan(ck, params, 5)
	if err != nil {
		t.Fatal(err)
	}
	cps := ChangePoints(results)
	standalone := MustAnalyzer(params, 33)
	attached := NewAnalyzerForPlan(pl, 33)
	for _, cp := range cps {
		want := standalone.Explain(ck.Constraint, cp)
		got := attached.Explain(ck.Constraint, cp)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("plan-attached analyzer diverges at change point %d", cp.Index)
		}
	}
}
