package core

import (
	"math"
	"strings"
	"testing"

	"sound/internal/rng"
	"sound/internal/series"
)

func mustSeries(t, v, up, down []float64) series.Series {
	s, err := series.New(t, v, up, down)
	if err != nil {
		panic(err)
	}
	return s
}

func globalTuple(ss ...series.Series) WindowTuple {
	return GlobalWindow{}.Windows(ss)[0]
}

func TestParamsDefaults(t *testing.T) {
	p, err := Params{}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	if p.Credibility != 0.95 || p.MaxSamples != 100 || p.PriorAlpha != 1 || p.PriorBeta != 1 || p.CheckInterval != 1 {
		t.Errorf("defaults = %+v", p)
	}
}

func TestParamsValidation(t *testing.T) {
	cases := []struct {
		name    string
		in      Params
		wantErr string // substring of the error, "" = must normalize
	}{
		{"defaults", Params{}, ""},
		{"credibility above one", Params{Credibility: 1.5}, "credibility"},
		{"credibility negative", Params{Credibility: -0.5}, "credibility"},
		{"negative max samples", Params{MaxSamples: -1}, "sample"},
		{"negative prior alpha", Params{PriorAlpha: -1}, "prior"},
		{"negative prior beta", Params{PriorBeta: -1}, "prior"},
		{"check interval defaults to 1", Params{CheckInterval: 0}, ""},
		{"check interval negative", Params{CheckInterval: -1}, "check interval"},
		{"check interval above one ok", Params{CheckInterval: 7}, ""},
		{"burn-in negative", Params{MinSamples: -3}, "burn-in"},
		{"burn-in beyond budget", Params{MinSamples: 101}, "burn-in"},
		{"burn-in at budget ok", Params{MinSamples: 100}, ""},
		{"burn-in within custom budget", Params{MinSamples: 20, MaxSamples: 10}, "burn-in"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := tc.in.normalized()
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("normalized() err = %v, want %q", err, tc.wantErr)
				}
			} else if err != nil {
				t.Fatalf("normalized() err = %v", err)
			} else if p.CheckInterval < 1 {
				t.Fatalf("normalized CheckInterval = %d", p.CheckInterval)
			}
			// Every construction entry point must surface the same verdict.
			if _, err2 := NewEvaluator(tc.in, 1); (err2 != nil) != (err != nil) {
				t.Errorf("NewEvaluator err = %v, normalized err = %v", err2, err)
			}
			ck := Check{Name: "r", Constraint: Range(0, 1), SeriesNames: []string{"s"}, Window: GlobalWindow{}}
			if _, err2 := CompilePlan(ck, tc.in, 1); (err2 != nil) != (err != nil) {
				t.Errorf("CompilePlan err = %v, normalized err = %v", err2, err)
			}
		})
	}
}

func TestEvaluateCertainSatisfied(t *testing.T) {
	// Certain data far inside the range: must conclude ⊤ quickly.
	s := series.FromValues(5, 5, 5)
	e := MustEvaluator(DefaultParams(), 1)
	res := e.Evaluate(Range(0, 10), globalTuple(s))
	if res.Outcome != Satisfied {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	// With c=0.95 and all-satisfied samples, Beta(1+k,1) lower bound
	// exceeds 0.5 at k=5.
	if res.Samples != 5 {
		t.Errorf("samples = %d, want 5 (earliest possible stop)", res.Samples)
	}
	if res.ViolationProb > 0.2 {
		t.Errorf("violation prob = %v", res.ViolationProb)
	}
}

func TestEvaluateCertainViolated(t *testing.T) {
	s := series.FromValues(50, 60)
	e := MustEvaluator(DefaultParams(), 2)
	res := e.Evaluate(Range(0, 10), globalTuple(s))
	if res.Outcome != Violated {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if res.Samples != 5 {
		t.Errorf("samples = %d", res.Samples)
	}
	if res.ViolationProb < 0.8 {
		t.Errorf("violation prob = %v", res.ViolationProb)
	}
}

func TestEvaluateBorderlineMostlyInconclusive(t *testing.T) {
	// A point sitting exactly on the threshold with symmetric
	// uncertainty: samples split ~50/50. Sequential testing with
	// repeated looks occasionally still concludes (the paper shows such
	// a false positive in Fig. 7), so we assert the aggregate behaviour:
	// most runs stay inconclusive and the mean violation probability is
	// near 0.5.
	s := mustSeries([]float64{0}, []float64{10}, []float64{2}, []float64{2})
	inconclusive := 0
	probSum := 0.0
	const runs = 60
	for seed := uint64(0); seed < runs; seed++ {
		e := MustEvaluator(Params{Credibility: 0.95, MaxSamples: 200}, seed)
		res := e.Evaluate(GreaterThan(10), globalTuple(s))
		if res.Outcome == Inconclusive {
			inconclusive++
			if res.Samples != 200 {
				t.Errorf("inconclusive should exhaust N, used %d", res.Samples)
			}
		}
		probSum += res.ViolationProb
	}
	if inconclusive < runs/2 {
		t.Errorf("only %d/%d runs inconclusive on a 50/50 split", inconclusive, runs)
	}
	if mean := probSum / runs; math.Abs(mean-0.5) > 0.1 {
		t.Errorf("mean violation prob = %v, want ~0.5", mean)
	}
}

func TestEvaluateUncertaintyFlipsNaiveOutcome(t *testing.T) {
	// Fig. 1 middle-panel scenario: value slightly above threshold but
	// with large downward uncertainty. Naive says violated; SOUND should
	// not confidently conclude violation.
	s := mustSeries([]float64{0}, []float64{10.2}, []float64{0.1}, []float64{3})
	tuple := globalTuple(s)
	c := Range(0, 10)
	if EvaluateNaive(c, tuple) != Violated {
		t.Fatal("naive should flag violation")
	}
	e := MustEvaluator(Params{Credibility: 0.95, MaxSamples: 500}, 4)
	res := e.Evaluate(c, tuple)
	if res.Outcome == Violated {
		t.Errorf("SOUND confirmed violation despite dominating downward uncertainty (viol prob %v)", res.ViolationProb)
	}
}

func TestEvaluateEmptyWindowInconclusive(t *testing.T) {
	e := MustEvaluator(DefaultParams(), 5)
	res := e.Evaluate(Range(0, 1), WindowTuple{Windows: []series.Series{{}}})
	if res.Outcome != Inconclusive || res.Samples != 0 {
		t.Errorf("empty window gave %v after %d samples", res.Outcome, res.Samples)
	}
	if res.ViolationProb != 0.5 {
		t.Errorf("empty-window violation prob = %v", res.ViolationProb)
	}
}

func TestEvaluateDeterministicUnderSeed(t *testing.T) {
	s := mustSeries([]float64{0, 1, 2}, []float64{9, 10, 11}, []float64{1, 1, 1}, []float64{1, 1, 1})
	a := MustEvaluator(DefaultParams(), 42)
	b := MustEvaluator(DefaultParams(), 42)
	tuple := globalTuple(s)
	c := GreaterThan(8)
	for i := 0; i < 10; i++ {
		ra, rb := a.Evaluate(c, tuple), b.Evaluate(c, tuple)
		if ra.Outcome != rb.Outcome || ra.Samples != rb.Samples || ra.SatisfiedCount != rb.SatisfiedCount {
			t.Fatalf("iteration %d diverged: %+v vs %+v", i, ra, rb)
		}
	}
}

func TestHigherCredibilityNeedsMoreSamples(t *testing.T) {
	// Moderate uncertainty near the threshold: raising c should not
	// decrease the number of samples needed (averaged over windows).
	s := make(series.Series, 30)
	for i := range s {
		s[i] = series.Point{T: float64(i), V: 11 + float64(i%3), SigUp: 2, SigDown: 2}
	}
	total := func(c float64, seed uint64) int {
		e := MustEvaluator(Params{Credibility: c, MaxSamples: 300}, seed)
		sum := 0
		for _, res := range e.EvaluateAll(GreaterThan(10), PointWindow{}, []series.Series{s}) {
			sum += res.Samples
		}
		return sum
	}
	lo := total(0.90, 7)
	hi := total(0.99, 7)
	if hi < lo {
		t.Errorf("c=0.99 used %d samples, c=0.90 used %d", hi, lo)
	}
}

func TestEarlyStoppingSavesSamples(t *testing.T) {
	// Clear-cut certain data: adaptive stopping must use far fewer than
	// N samples.
	s := series.FromValues(100, 100, 100)
	e := MustEvaluator(Params{Credibility: 0.95, MaxSamples: 10000}, 8)
	res := e.Evaluate(GreaterThan(0), globalTuple(s))
	if res.Samples > 10 {
		t.Errorf("used %d samples on certain data", res.Samples)
	}
}

func TestCheckIntervalDelaysDecision(t *testing.T) {
	s := series.FromValues(100)
	e := MustEvaluator(Params{Credibility: 0.95, MaxSamples: 100, CheckInterval: 20}, 9)
	res := e.Evaluate(GreaterThan(0), globalTuple(s))
	if res.Outcome != Satisfied {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if res.Samples != 20 {
		t.Errorf("samples = %d, want first multiple of interval", res.Samples)
	}
}

func TestEvaluateAllCoverage(t *testing.T) {
	s := series.FromValues(1, 2, 3, 4, 5, 6)
	e := MustEvaluator(DefaultParams(), 10)
	results := e.EvaluateAll(NonNegative(), PointWindow{}, []series.Series{s})
	if len(results) != 6 {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.Outcome != Satisfied {
			t.Errorf("window %d: %v", i, r.Outcome)
		}
		if r.Window.Index != i {
			t.Errorf("window %d has index %d", i, r.Window.Index)
		}
	}
}

func TestEvaluateNaive(t *testing.T) {
	tuple := globalTuple(series.FromValues(1, 2, 30))
	if got := EvaluateNaive(Range(0, 10), tuple); got != Violated {
		t.Errorf("naive = %v", got)
	}
	if got := EvaluateNaive(Range(0, 100), tuple); got != Satisfied {
		t.Errorf("naive = %v", got)
	}
	empty := WindowTuple{Windows: []series.Series{{}}}
	if got := EvaluateNaive(Range(0, 100), empty); got != Inconclusive {
		t.Errorf("naive on empty = %v", got)
	}
}

func TestEvaluateAllNaive(t *testing.T) {
	s := series.FromValues(1, -2, 3)
	got := EvaluateAllNaive(NonNegative(), PointWindow{}, []series.Series{s})
	want := []Outcome{Satisfied, Violated, Satisfied}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("naive outcomes = %v, want %v", got, want)
		}
	}
}

func TestSparsityWidensUncertainty(t *testing.T) {
	// A set check on a window that is borderline: with many points the
	// bootstrap stabilizes around the true fraction; with 2 points the
	// bootstrap variance must increase inconclusiveness. We measure the
	// fraction of conclusive outcomes across seeds.
	conclusive := func(n int) int {
		count := 0
		for seed := uint64(0); seed < 40; seed++ {
			s := make(series.Series, n)
			for i := range s {
				v := 0.9
				if i%5 == 0 {
					v = 1.6 // 20% of mass outside [0,1]
				}
				s[i] = series.Point{T: float64(i), V: v}
			}
			e := MustEvaluator(Params{Credibility: 0.95, MaxSamples: 100}, seed)
			res := e.Evaluate(FractionInRange(0, 1, 0.75), globalTuple(s))
			if res.Outcome.Conclusive() {
				count++
			}
		}
		return count
	}
	dense := conclusive(100)
	sparse := conclusive(5)
	if sparse > dense {
		t.Errorf("sparse windows more conclusive (%d) than dense (%d)", sparse, dense)
	}
}

func TestCheckValidate(t *testing.T) {
	ok := Check{
		Name:        "ok",
		Constraint:  Range(0, 1),
		SeriesNames: []string{"s"},
		Window:      PointWindow{},
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid check rejected: %v", err)
	}
	bad := ok
	bad.SeriesNames = []string{"a", "b"}
	if err := bad.Validate(); err == nil {
		t.Error("arity mismatch accepted")
	}
	bad2 := ok
	bad2.Window = nil
	if err := bad2.Validate(); err == nil {
		t.Error("nil window accepted")
	}
	bad3 := ok
	bad3.Constraint.Fn = nil
	if err := bad3.Validate(); err == nil {
		t.Error("nil constraint fn accepted")
	}
}

func TestCheckRun(t *testing.T) {
	ck := Check{
		Name:        "range",
		Constraint:  Range(0, 10),
		SeriesNames: []string{"s"},
		Window:      PointWindow{},
	}
	e := MustEvaluator(DefaultParams(), 11)
	res, err := ck.Run(e, []series.Series{series.FromValues(1, 2, 3)})
	if err != nil || len(res) != 3 {
		t.Fatalf("Run = %d results, %v", len(res), err)
	}
	if _, err := ck.Run(e, []series.Series{{}, {}}); err == nil {
		t.Error("wrong series count accepted")
	}
}

func TestOutcomeString(t *testing.T) {
	if Satisfied.String() != "⊤" || Violated.String() != "⊥" || Inconclusive.String() != "⊣" {
		t.Error("bad outcome strings")
	}
	if Outcome(9).String() != "?" {
		t.Error("unknown outcome string")
	}
	if Inconclusive.Conclusive() || !Satisfied.Conclusive() {
		t.Error("Conclusive wrong")
	}
}

func TestConstraintValidate(t *testing.T) {
	bad := Constraint{Name: "pw-ordered", Granularity: PointWise, Orderedness: SequenceTime, Arity: 1, Fn: func([][]float64) bool { return true }}
	if err := bad.Validate(); err == nil {
		t.Error("ordered point-wise constraint accepted")
	}
}

func TestTaxonomyStrings(t *testing.T) {
	for _, g := range []Granularity{PointWise, WindowTime, WindowIndex, WindowGlobal, Granularity(9)} {
		if g.String() == "" {
			t.Errorf("empty string for %d", g)
		}
	}
	for _, o := range []Orderedness{Set, SequenceTime, SequenceIndex, Orderedness(9)} {
		if o.String() == "" {
			t.Errorf("empty string for %d", o)
		}
	}
	if PointWise.Windowed() || !WindowTime.Windowed() {
		t.Error("Windowed wrong")
	}
	if Set.Ordered() || !SequenceTime.Ordered() {
		t.Error("Ordered wrong")
	}
}

// evaluateScalar is Alg. 1 as the paper writes it — draw one sample,
// score it with the closure, consult the decision rule — on e's own
// resampler stream. It is the loop Evaluator ran for closure constraints
// before the block loop (kernel.go) served every constraint, kept here as
// the oracle the block loop must match sample for sample on non-empty
// windows.
func evaluateScalar(e *Evaluator, c Constraint, w WindowTuple) Result {
	res := Result{Window: WindowTuple{Windows: w.Windows, Start: w.Start, End: w.End, Index: w.Index}}
	rs := e.resampler(c.Strategy())
	rs.Prime(w.Windows)
	p := e.params
	countSatisfied := 0
	for res.Samples < p.MaxSamples && res.Outcome == Inconclusive {
		if c.Eval(rs.Draw(w.Windows)) {
			countSatisfied++
		}
		res.Samples++
		res.Outcome = e.bounds.decide(countSatisfied, res.Samples, p.MinSamples, p.CheckInterval, p.MaxSamples)
	}
	e.finish(&res, countSatisfied)
	return res
}

// TestEvaluateMatchesScalarOracle runs Evaluate and the scalar oracle on
// two evaluators of one seed over consecutive windows, so a block that
// consumed one draw more or fewer than the per-sample loop shows up in the
// next window's result, not only in the resampler positions compared at
// the end. The constraints are the ones the closure scores inside the
// block loop: a user Fn, a template with its spec cleared, and a template
// over a window whose non-finite σ fails the kernel's precondition.
func TestEvaluateMatchesScalarOracle(t *testing.T) {
	// Order-sensitive, so the sequence strategy's block order matters too.
	weightedMeanBelow := func(thresh float64) func([][]float64) bool {
		return func(vals [][]float64) bool {
			var num, den float64
			for i, v := range vals[0] {
				num += float64(i+1) * v
				den += float64(i + 1)
			}
			return num/den < thresh
		}
	}
	userFn := func(g Granularity, o Orderedness) Constraint {
		return Constraint{Name: "weighted-mean-below", Granularity: g, Orderedness: o, Arity: 1, Fn: weightedMeanBelow(3.2)}
	}
	cases := []struct {
		name      string
		c         Constraint
		nonFinite bool
	}{
		{"fn/point", userFn(PointWise, Set), false},
		{"fn/set", userFn(WindowTime, Set), false},
		{"fn/sequence", userFn(WindowIndex, SequenceIndex), false},
		{"nospec/point", forceClosure(Range(-0.5, 7.5)), false},
		{"nospec/set", forceClosure(FractionInRange(0, 7, 0.6)), false},
		{"nospec/sequence", forceClosure(CorrelationAbove(0.1)), false},
		{"nonfinite/point", Range(-0.5, 7.5), true},
		{"nonfinite/set", MaxDelta(9), true},
		{"nonfinite/sequence", LowerMeanDelta(), true},
	}
	params := []Params{
		{CheckInterval: 3, MinSamples: 5, MaxSamples: 40},
		{CheckInterval: 7, MinSamples: 11, MaxSamples: 30, BlockSize: 4},
		{CheckInterval: 2, MinSamples: 1, MaxSamples: 25, Credibility: 0.8},
	}
	const windows = 4
	early, exhausted := 0, 0
	for _, tc := range cases {
		for pi, p := range params {
			seed := uint64(pi + 1)
			eB, eO := MustEvaluator(p, seed), MustEvaluator(p, seed)
			r := rng.New(seed * 0x9e3779b97f4a7c15)
			for wi := 0; wi < windows; wi++ {
				w := WindowTuple{Windows: []series.Series{parityWindow(r, 12, float64(wi)/2)}, Index: wi}
				if tc.c.Arity == 2 {
					w.Windows = append(w.Windows, parityWindow(r, 12, 1))
				}
				if tc.nonFinite {
					w.Windows[0][wi+1].SigUp = math.Inf(1)
				}
				got, want := eB.Evaluate(tc.c, w), evaluateScalar(eO, tc.c, w)
				if !resultsEqual(got, want) {
					t.Fatalf("%s params %d window %d: block loop = {o=%v n=%d s=%d ci=[%v,%v]}, oracle = {o=%v n=%d s=%d ci=[%v,%v]}",
						tc.name, pi, wi, got.Outcome, got.Samples, got.SatisfiedCount, got.Lower, got.Upper,
						want.Outcome, want.Samples, want.SatisfiedCount, want.Lower, want.Upper)
				}
				if got.Samples < eB.params.MaxSamples {
					early++
				} else {
					exhausted++
				}
			}
			s := tc.c.Strategy()
			if eB.rs[s].State() != eO.rs[s].State() {
				t.Fatalf("%s params %d: resampler streams differ after %d windows", tc.name, pi, windows)
			}
		}
	}
	if early == 0 || exhausted == 0 {
		t.Fatalf("sweep is one-sided: %d early stops, %d exhausted budgets", early, exhausted)
	}
}
