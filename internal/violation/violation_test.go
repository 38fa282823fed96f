package violation

import (
	"reflect"
	"testing"

	"sound/internal/core"
	"sound/internal/resample"
	"sound/internal/rng"
	"sound/internal/series"
)

func results(outcomes ...core.Outcome) []core.Result {
	rs := make([]core.Result, len(outcomes))
	for i, o := range outcomes {
		rs[i] = core.Result{
			Outcome: o,
			Window: core.WindowTuple{
				Windows: []series.Series{series.FromValues(float64(i))},
				Start:   float64(i), End: float64(i) + 1, Index: i,
			},
		}
	}
	return rs
}

func TestChangePointsDetection(t *testing.T) {
	rs := results(core.Satisfied, core.Satisfied, core.Violated, core.Violated, core.Satisfied)
	cps := ChangePoints(rs)
	if len(cps) != 2 {
		t.Fatalf("got %d change points", len(cps))
	}
	if cps[0].Index != 2 || cps[1].Index != 4 {
		t.Errorf("indices = %d, %d", cps[0].Index, cps[1].Index)
	}
	// First flip ⊤→⊥: Pos is window 1, Neg is window 2.
	if cps[0].Pos.Index != 1 || cps[0].Neg.Index != 2 {
		t.Errorf("cp0 pos/neg = %d/%d", cps[0].Pos.Index, cps[0].Neg.Index)
	}
	// Second flip ⊥→⊤: Pos is window 4, Neg is window 3.
	if cps[1].Pos.Index != 4 || cps[1].Neg.Index != 3 {
		t.Errorf("cp1 pos/neg = %d/%d", cps[1].Pos.Index, cps[1].Neg.Index)
	}
}

func TestChangePointsIgnoreInconclusive(t *testing.T) {
	rs := results(core.Satisfied, core.Inconclusive, core.Violated)
	if cps := ChangePoints(rs); len(cps) != 0 {
		t.Errorf("transition through ⊣ produced %d change points", len(cps))
	}
	if cps := ChangePoints(nil); len(cps) != 0 {
		t.Error("empty input produced change points")
	}
}

// cpFor builds a change point from explicit windows for a unary check.
func cpFor(pos, neg series.Series) ChangePoint {
	return ChangePoint{
		Index: 1,
		Pos:   core.WindowTuple{Windows: []series.Series{pos}, Start: 0, End: 1, Index: 0},
		Neg:   core.WindowTuple{Windows: []series.Series{neg}, Start: 1, End: 2, Index: 1},
	}
}

func denseWindow(n int, value float64, sigma float64) series.Series {
	s := make(series.Series, n)
	for i := range s {
		s[i] = series.Point{T: float64(i) / float64(n), V: value, SigUp: sigma, SigDown: sigma}
	}
	return s
}

func TestExplainE2HighSparsity(t *testing.T) {
	// Constraint: window mean > 0 as a set check. Satisfied window:
	// bimodal — 30 points near -0.1 and 10 near +2, overall mean
	// positive. Violated window: 3 negative points (a sparse,
	// unrepresentative sample of the same population). Downsampling the
	// satisfied window to 3 points lands on all-negative subsets ~41% of
	// the time, in which case the what-if evaluation fails and E2 is
	// confirmed. We assert the statistical behaviour across seeds.
	c := core.Constraint{
		Name: "mean-positive", Granularity: core.WindowTime,
		Orderedness: core.Set, Arity: 1,
		Fn: func(vals [][]float64) bool {
			sum := 0.0
			for _, v := range vals[0] {
				sum += v
			}
			return sum > 0
		},
	}
	r := rng.New(3)
	pos := make(series.Series, 40)
	for i := range pos {
		v := -0.1
		if i%4 == 0 {
			v = 2.0
		}
		pos[i] = series.Point{T: float64(i), V: v + 0.01*r.NormFloat64()}
	}
	neg := series.Series{
		{T: 40, V: -0.12}, {T: 41, V: -0.09}, {T: 42, V: -0.11},
	}
	confirmed := 0
	const runs = 40
	for seed := uint64(0); seed < runs; seed++ {
		a := MustAnalyzer(core.Params{Credibility: 0.9, MaxSamples: 200}, seed)
		if a.Explain(c, cpFor(pos, neg)).Has(E2HighSparsity) {
			confirmed++
		}
	}
	if confirmed < runs/5 {
		t.Errorf("E2 confirmed in only %d/%d runs", confirmed, runs)
	}
}

func TestExplainE4HighUncertainty(t *testing.T) {
	// Threshold check x > 10. Satisfied window: values 12 with tiny
	// sigma. Violated window: values 12 with huge sigma → frequent
	// below-threshold samples. Scaling uncertainty down to the satisfied
	// level must restore satisfaction.
	c := core.GreaterThan(10)
	c.Granularity = core.WindowTime // treat as set check over the window
	pos := denseWindow(20, 12, 0.05)
	neg := denseWindow(20, 10.3, 4)
	a := MustAnalyzer(core.Params{Credibility: 0.9, MaxSamples: 300}, 11)
	rep := a.Explain(c, cpFor(pos, neg))
	if !rep.Has(E4HighUncertainty) {
		t.Errorf("E4 not confirmed; explanations = %v", rep.Explanations)
	}
	if rep.Has(E1ValueChange) {
		t.Error("E1 should be excluded when E4 holds")
	}
}

// TestWhatIfIsAWindow recomputes the E4 what-if of a level template by
// hand: the violated window with its uncertainty scaled to the satisfied
// window's, evaluated by the constraint's one-member group (a GlobalWindow
// check of its arity at the analyzer's params and seed) at window seed
// WindowSeed(windowSeed(seed, cp, 0), E4). Its verdict must be the
// analyzer's, reached from the closed form without a drawn row, and the
// report must confirm E4 exactly when that verdict is ⊤.
func TestWhatIfIsAWindow(t *testing.T) {
	c := core.GreaterThan(10)
	c.Granularity = core.WindowTime
	params := core.Params{Credibility: 0.9, MaxSamples: 300}
	pos := denseWindow(4, 10.3, 0.25)
	neg := denseWindow(4, 10.3, 3)
	cp := cpFor(pos, neg)
	seeds, confirmed := 0, 0
	for seed := uint64(1); seed <= 40; seed++ {
		a := MustAnalyzer(params, seed)
		rep := a.Explain(c, cp)

		pl, err := core.CompilePlan(core.Check{Name: c.Name, Constraint: c, SeriesNames: []string{""}, Window: core.GlobalWindow{}}, params, seed)
		if err != nil {
			t.Fatal(err)
		}
		g, err := core.NewPlanGroup([]*core.CheckPlan{pl})
		if err != nil {
			t.Fatal(err)
		}
		whatIf := core.WindowTuple{Windows: []series.Series{scaleToReference(neg, pos)}, Start: cp.Neg.Start, End: cp.Neg.End, Index: cp.Neg.Index}
		out := make([]core.Result, 1)
		ev := g.Evaluate(g.WindowSeed(windowSeed(seed, cp, 0), uint64(E4HighUncertainty)), whatIf, out)
		if ev.Draws != 0 || ev.Collapsed != 1 {
			t.Fatalf("seed %d: the what-if drew rows: %+v", seed, ev)
		}
		if got := a.evalWith(cp, 0, E4HighUncertainty, whatIf.Windows[0]); got != out[0].Outcome {
			t.Fatalf("seed %d: analyzer what-if %v, by hand %v", seed, got, out[0].Outcome)
		}
		if rep.Has(E4HighUncertainty) != (out[0].Outcome == core.Satisfied) {
			t.Fatalf("seed %d: report %v, what-if %v", seed, rep.Explanations, out[0].Outcome)
		}
		seeds++
		if out[0].Outcome == core.Satisfied {
			confirmed++
		}
	}
	// p = P(all four scaled points > 10) ≈ 0.885⁴ ≈ 0.61: some what-ifs
	// conclude ⊤ and some do not, so both arms of the report are compared.
	if confirmed == 0 || confirmed == seeds {
		t.Errorf("E4 confirmed at %d of %d seeds: one-sided sweep", confirmed, seeds)
	}
}

func TestExplainE5LowUncertainty(t *testing.T) {
	// Satisfied window: huge uncertainty masks the threshold proximity
	// (samples scatter both sides but enough satisfy). Violated window:
	// small uncertainty reveals values just below threshold. Scaling
	// uncertainty up must flip it back to non-violation... per paper,
	// satisfaction.
	c := core.GreaterThan(10)
	c.Granularity = core.WindowTime
	pos := denseWindow(20, 10.6, 3)
	neg := denseWindow(20, 9.9, 0.05)
	a := MustAnalyzer(core.Params{Credibility: 0.9, MaxSamples: 300}, 13)
	rep := a.Explain(c, cpFor(pos, neg))
	// The precondition δ_⊥ < δ_⊤ holds; whether the what-if passes
	// depends on the data. With σ scaled up to δ_⊤ level (~3 absolute),
	// half the samples land above 10 minus a bit — outcome likely
	// inconclusive or satisfied. We accept either E5 or E1 but verify
	// the precondition logic by requiring no E4.
	if rep.Has(E4HighUncertainty) {
		t.Errorf("E4 confirmed despite lower uncertainty at violation; %v", rep.Explanations)
	}
}

func TestExplainE6ResamplingFalsePositive(t *testing.T) {
	// Monotonic increase over a window: globally increasing data, so φ
	// holds on every contiguous block; block-bootstrap reordering can
	// produce non-monotone samples → spurious violations. E6 must fire.
	c := core.MonotonicIncrease(true)
	pos := series.FromValues(1, 2, 3, 4, 5, 6, 7, 8, 9)
	neg := series.FromValues(10, 11, 12, 13, 14, 15, 16, 17, 18)
	a := MustAnalyzer(core.Params{Credibility: 0.95, MaxSamples: 100}, 17)
	rep := a.Explain(c, cpFor(pos, neg))
	if !rep.Has(E6ResamplingFalsePositive) {
		t.Errorf("E6 not confirmed on monotone data; %v", rep.Explanations)
	}
}

func TestExplainE6NotForSetChecks(t *testing.T) {
	c := core.MaxDelta(100) // set check: E6 must never fire
	pos := series.FromValues(1, 2, 3, 4)
	neg := series.FromValues(5, 6, 7, 8)
	a := MustAnalyzer(core.Params{Credibility: 0.95, MaxSamples: 50}, 19)
	rep := a.Explain(c, cpFor(pos, neg))
	if rep.Has(E6ResamplingFalsePositive) {
		t.Error("E6 confirmed for an unordered constraint")
	}
}

func TestExplainFallsBackToE1(t *testing.T) {
	// Certain, equally dense windows with a genuine value change:
	// no data-quality explanation applies.
	c := core.GreaterThan(10)
	c.Granularity = core.WindowTime
	pos := denseWindow(20, 15, 0)
	neg := denseWindow(20, 5, 0)
	a := MustAnalyzer(core.Params{Credibility: 0.95, MaxSamples: 100}, 23)
	rep := a.Explain(c, cpFor(pos, neg))
	if len(rep.Explanations) != 1 || rep.Explanations[0] != E1ValueChange {
		t.Errorf("explanations = %v, want [E1]", rep.Explanations)
	}
	if rep.Primary() != E1ValueChange {
		t.Error("primary should be E1")
	}
}

// TestExplainOrderIndependence: reports are a pure function of
// (params, seed, change point). Explaining the same change point twice,
// or a set of change points in a different order, yields identical
// reports — the shared RNG stream no longer couples them.
func TestExplainOrderIndependence(t *testing.T) {
	c := core.GreaterThan(10)
	c.Granularity = core.WindowTime
	// Windows chosen so E2 (sparser violated window) and E4 (higher
	// uncertainty) both consume randomness in their what-ifs.
	cpA := cpFor(denseWindow(40, 12, 0.5), denseWindow(9, 10.2, 4))
	cpB := ChangePoint{
		Index: 3,
		Pos:   core.WindowTuple{Windows: []series.Series{denseWindow(30, 13, 0.2)}, Start: 2, End: 3, Index: 2},
		Neg:   core.WindowTuple{Windows: []series.Series{denseWindow(11, 10.1, 5)}, Start: 3, End: 4, Index: 3},
	}
	params := core.Params{Credibility: 0.9, MaxSamples: 200}
	a := MustAnalyzer(params, 7)

	repA1 := a.Explain(c, cpA)
	repB1 := a.Explain(c, cpB)
	// Same analyzer, same change point again: must match despite the
	// draws consumed in between.
	if got := a.Explain(c, cpA); !reflect.DeepEqual(repA1, got) {
		t.Error("re-explaining the same change point changed the report")
	}
	// Fresh analyzer, reversed order: every report must still match.
	b := MustAnalyzer(params, 7)
	repB2 := b.Explain(c, cpB)
	repA2 := b.Explain(c, cpA)
	if !reflect.DeepEqual(repA1, repA2) {
		t.Error("explanation of cpA depends on processing order")
	}
	if !reflect.DeepEqual(repB1, repB2) {
		t.Error("explanation of cpB depends on processing order")
	}
}

// e6ViaBlocks is the pre-optimization reference implementation of
// E6Holds, evaluating resample.Blocks slices directly.
func e6ViaBlocks(c core.Constraint, neg core.WindowTuple) bool {
	k := len(neg.Windows)
	if k == 0 {
		return false
	}
	blockSets := make([][]series.Series, k)
	nBlocks := -1
	for j, w := range neg.Windows {
		blockSets[j] = resample.Blocks(w)
		if nBlocks == -1 || len(blockSets[j]) < nBlocks {
			nBlocks = len(blockSets[j])
		}
	}
	if nBlocks <= 0 {
		return false
	}
	for b := 0; b < nBlocks; b++ {
		vals := make([][]float64, k)
		for j := 0; j < k; j++ {
			vals[j] = blockSets[j][b].Values()
		}
		if !c.Eval(vals) {
			return false
		}
	}
	return true
}

// TestE6HoldsDifferentBlockCounts pins the nBlocks min-logic: inputs of
// different lengths have different block counts, and aligned evaluation
// truncates to the shortest. Verified against the Blocks-based reference
// for both verdicts.
func TestE6HoldsDifferentBlockCounts(t *testing.T) {
	// Count-comparison constraint as an ordered check so E6 applies.
	c := core.Constraint{
		Name: "first-longer", Granularity: core.WindowTime,
		Orderedness: core.SequenceIndex, Arity: 2,
		Fn: func(vals [][]float64) bool { return len(vals[0]) >= len(vals[1]) },
	}
	long := denseWindow(25, 1, 0) // block size 5 → 5 blocks
	short := denseWindow(7, 1, 0) // block size 3 → 3 blocks
	tuple := func(a, b series.Series) core.WindowTuple {
		return core.WindowTuple{Windows: []series.Series{a, b}}
	}
	holds := tuple(long, short) // blocks of 5 vs 3 → constraint true per block
	fails := tuple(short, long) // blocks of 3 vs 5 → constraint false
	for _, tc := range []struct {
		name string
		w    core.WindowTuple
		want bool
	}{
		{"long-vs-short", holds, true},
		{"short-vs-long", fails, false},
	} {
		if got := E6Holds(c, tc.w); got != tc.want {
			t.Errorf("%s: E6Holds = %v, want %v", tc.name, got, tc.want)
		}
		if got, ref := E6Holds(c, tc.w), e6ViaBlocks(c, tc.w); got != ref {
			t.Errorf("%s: E6Holds = %v diverges from Blocks reference %v", tc.name, got, ref)
		}
	}
	// Block alignment parity on same-verdict monotone data too.
	mono := tuple(series.FromValues(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11), series.FromValues(1, 2, 3))
	cm := core.MonotonicIncrease(true)
	cm.Arity, cm.Spec = 2, core.KernelSpec{}
	cm.Fn = func(vals [][]float64) bool {
		for _, vs := range vals {
			for i := 1; i < len(vs); i++ {
				if vs[i] <= vs[i-1] {
					return false
				}
			}
		}
		return true
	}
	if got, ref := E6Holds(cm, mono), e6ViaBlocks(cm, mono); got != ref {
		t.Errorf("monotone tuple: E6Holds = %v, reference %v", got, ref)
	}
}

// TestE6HoldsDegenerateWindows: no inputs, or any empty input, can never
// satisfy the ∀-blocks condition.
func TestE6HoldsDegenerateWindows(t *testing.T) {
	c := core.MonotonicIncrease(true)
	if E6Holds(c, core.WindowTuple{}) {
		t.Error("E6 held for a tuple with no windows")
	}
	withEmpty := core.WindowTuple{Windows: []series.Series{series.FromValues(1, 2, 3), {}}}
	cc := c
	cc.Arity, cc.Spec = 2, core.KernelSpec{}
	cc.Fn = func(vals [][]float64) bool { return true }
	if E6Holds(cc, withEmpty) {
		t.Error("E6 held for a tuple with an empty window")
	}
}

func TestExplanationStrings(t *testing.T) {
	for e := E1ValueChange; e <= E6ResamplingFalsePositive; e++ {
		if e.String() == "unknown explanation" {
			t.Errorf("missing string for %d", e)
		}
	}
	if Explanation(0).String() != "unknown explanation" {
		t.Error("zero explanation should be unknown")
	}
}

func TestKSChangeConstraint(t *testing.T) {
	cc := KSChangeConstraint(0.05)
	same := denseWindow(50, 5, 0)
	other := denseWindow(50, 50, 0)
	if cc(same, same.Clone()) {
		t.Error("identical windows flagged as changed")
	}
	if !cc(same, other) {
		t.Error("disjoint windows not flagged")
	}
}

func TestReportPrimaryEmpty(t *testing.T) {
	if (Report{}).Primary() != E1ValueChange {
		t.Error("empty report primary should be E1")
	}
}

// TestNewAnalyzerRejectsBadParams: parameter validation must surface
// through the violation-analysis entry point too.
func TestNewAnalyzerRejectsBadParams(t *testing.T) {
	if _, err := NewAnalyzer(core.Params{CheckInterval: -2}, 1); err == nil {
		t.Error("negative check interval accepted")
	}
	if _, err := NewAnalyzer(core.Params{MinSamples: 9, MaxSamples: 3}, 1); err == nil {
		t.Error("burn-in beyond budget accepted")
	}
	if _, err := NewAnalyzer(core.Params{CheckInterval: 3, MinSamples: 2}, 1); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}
