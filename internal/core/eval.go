package core

import (
	"fmt"
	"math"

	"sound/internal/series"
	"sound/internal/stat"
)

// Params are the two framework parameters of the evaluation γ
// (paper §IV-B): the credibility level c required before concluding an
// outcome, and the maximum sample size N bounding the computational
// effort for inconclusive cases.
type Params struct {
	// Credibility is the minimum posterior probability mass c required
	// inside the decision region. Default 0.95.
	Credibility float64
	// MaxSamples is the maximum number of resampling iterations N.
	// Default 100, at most maxSamplesCap.
	MaxSamples int
	// PriorAlpha and PriorBeta configure the Beta prior; both default to
	// 1 (the uninformative flat prior). Adjusting them injects prior
	// knowledge into the evaluation (paper §IV-B).
	PriorAlpha, PriorBeta float64
	// CheckInterval controls how often the credible-interval decision
	// rule runs: every CheckInterval-th sample. Default 1 (every sample,
	// as in Alg. 1); larger values trade a little extra sampling for
	// fewer quantile computations.
	CheckInterval int
	// MinSamples delays the decision rule until at least this many
	// samples are drawn. Alg. 1 checks from the first sample (the
	// default, 0); a small burn-in suppresses false conclusions caused
	// by early random-walk excursions under the repeated-looks regime of
	// sequential testing.
	MinSamples int
	// BlockSize overrides the block-bootstrap block size for sequence
	// checks. 0 (the default) selects the paper's automatic rule
	// b = ⌈√n⌉; resample.AutoBlockSize offers a data-driven choice.
	BlockSize int
}

// DefaultParams returns the paper's default configuration
// (c = 0.95, N = 100, flat prior).
func DefaultParams() Params {
	return Params{Credibility: 0.95, MaxSamples: 100, PriorAlpha: 1, PriorBeta: 1, CheckInterval: 1}
}

// maxSamplesCap bounds Params.MaxSamples: 100× the largest N any
// experiment runs (1000) and 10× the largest any test runs (10 000). A
// decision table holds O(N) thresholds and is built and cached once per
// parameter set, and a user-supplied N (soundcheck -n, soundserve -n)
// would otherwise size it without limit.
const maxSamplesCap = 100_000

// Normalized returns the parameters with every zero field set to its
// default, or an error naming the first field outside its domain. Every
// constructor that takes Params (CompilePlan, NewAnalyzer) refuses what
// it refuses.
func (p Params) Normalized() (Params, error) {
	if p.Credibility == 0 {
		p.Credibility = 0.95
	}
	// Written so that NaN fails too: a NaN level builds a table that never
	// decides and, since NaN ≠ NaN, misses the table cache on every use.
	if !(p.Credibility > 0 && p.Credibility < 1) {
		return p, fmt.Errorf("core: credibility level %g outside (0, 1)", p.Credibility)
	}
	if p.MaxSamples == 0 {
		p.MaxSamples = 100
	}
	if p.MaxSamples < 1 {
		return p, fmt.Errorf("core: max sample size %d < 1", p.MaxSamples)
	}
	if p.MaxSamples > maxSamplesCap {
		return p, fmt.Errorf("core: max sample size %d > %d", p.MaxSamples, maxSamplesCap)
	}
	if p.PriorAlpha == 0 {
		p.PriorAlpha = 1
	}
	if p.PriorBeta == 0 {
		p.PriorBeta = 1
	}
	if !(p.PriorAlpha > 0 && p.PriorBeta > 0) || math.IsInf(p.PriorAlpha, 1) || math.IsInf(p.PriorBeta, 1) {
		return p, fmt.Errorf("core: prior (%g, %g) is not positive and finite", p.PriorAlpha, p.PriorBeta)
	}
	if p.CheckInterval == 0 {
		p.CheckInterval = 1
	}
	if p.CheckInterval < 1 {
		return p, fmt.Errorf("core: check interval %d < 1", p.CheckInterval)
	}
	if p.MinSamples < 0 {
		return p, fmt.Errorf("core: negative burn-in %d", p.MinSamples)
	}
	if p.MinSamples > p.MaxSamples {
		return p, fmt.Errorf("core: burn-in %d exceeds max sample size %d", p.MinSamples, p.MaxSamples)
	}
	return p, nil
}

// Result is the outcome of one sanity check evaluation γ(φᵏ, wᵏ, c, N)
// on a single window tuple, with the evidence that produced it.
type Result struct {
	Outcome Outcome
	// Samples is the number of samples Alg. 1 consumed before it stopped;
	// early stopping usually keeps this far below N. Each is one drawn
	// realization, except in a PlanGroup lane — every batch run and every
	// stream operator — that decided the check from the closed-form
	// probability of its sample bit (level.go): there a sample is one
	// Bernoulli bit and no row was drawn for it — GroupEval.Draws counts
	// rows.
	Samples int
	// SatisfiedCount is how many sampled realizations satisfied φ.
	SatisfiedCount int
	// ViolationProb is the posterior mean probability of violation.
	ViolationProb float64
	// Lower and Upper bound the posterior credible interval (level c)
	// of the satisfaction probability at termination.
	Lower, Upper float64
	// Window references the evaluated window tuple.
	Window WindowTuple
}

// finish fills the posterior summary of a terminated evaluation in
// place: the satisfied count, violation probability, and the credible
// interval the decision rule saw at its last check (from the shared
// terminal tables whenever the count sits on a boundary, which it always
// does with CheckInterval = 1). It takes a pointer because Result embeds
// the window tuple — passing it by value puts two struct copies on the
// point-check hot path.
func (g *PlanGroup) finish(res *Result, countSatisfied int) {
	p, b := &g.params, g.bounds
	s, n := countSatisfied, res.Samples
	switch {
	case res.Outcome == Satisfied && s == b.acceptAt[n]:
		res.Lower, res.Upper = b.acceptInterval(n)
	case res.Outcome == Violated && s == b.rejectAt[n]:
		res.Lower, res.Upper = b.rejectInterval(n)
	case res.Outcome == Inconclusive && n == p.MaxSamples && n >= p.MinSamples:
		res.Lower, res.Upper = b.exhaustInterval(s, n)
	case n >= p.MinSamples:
		// Boundary overshoot (CheckInterval > 1 or a burn-in): compute
		// the interval the last check saw directly, memoized by counts.
		post := stat.Beta{Alpha: p.PriorAlpha + float64(s), Beta: p.PriorBeta + float64(n-s)}
		res.Lower, res.Upper = g.memo.interval(p.Credibility, s, n-s, post)
	default:
		// No check ever ran (MinSamples > MaxSamples, rejected by
		// Normalized but kept consistent for internal callers): the
		// interval stays at its zero value, matching the direct rule.
	}
	res.SatisfiedCount = s
	res.ViolationProb = 1 - (p.PriorAlpha+float64(s))/(p.PriorAlpha+p.PriorBeta+float64(n))
}

// ciMemo caches equal-tailed credible intervals by observation counts;
// the posterior depends only on (satisfied, violated) for fixed params,
// so owners scope one memo per parameter set.
type ciMemo struct {
	m map[uint64][2]float64
}

// interval returns the cached equal-tailed credible interval for the
// posterior after the given observation counts.
func (c *ciMemo) interval(cred float64, satisfied, violated int, post stat.Beta) (lower, upper float64) {
	const cacheLimit = 1 << 16
	key := uint64(satisfied)<<32 | uint64(violated)
	if ci, ok := c.m[key]; ok {
		return ci[0], ci[1]
	}
	lower, upper = post.CredibleInterval(cred)
	if c.m == nil {
		c.m = make(map[uint64][2]float64, 256)
	}
	if len(c.m) < cacheLimit {
		c.m[key] = [2]float64{lower, upper}
	}
	return lower, upper
}

func empty(ws []series.Series) bool {
	for _, w := range ws {
		if len(w) > 0 {
			return false
		}
	}
	return true
}

// EvaluateNaive is the BASE_CHECK baseline (paper §VI-A): the constraint
// function applied directly to the raw window values, ignoring value
// uncertainty and data sparsity. It never returns ⊣ for non-empty
// windows — exactly the false confidence the paper criticizes.
func EvaluateNaive(c Constraint, w WindowTuple) Outcome {
	if empty(w.Windows) {
		return Inconclusive
	}
	vals := make([][]float64, len(w.Windows))
	for i, win := range w.Windows {
		vals[i] = win.Values()
	}
	if c.Eval(vals) {
		return Satisfied
	}
	return Violated
}

// EvaluateAllNaive applies EvaluateNaive across a windowing function.
func EvaluateAllNaive(c Constraint, win Windower, ss []series.Series) []Outcome {
	tuples := win.Windows(ss)
	out := make([]Outcome, len(tuples))
	for i, w := range tuples {
		out[i] = EvaluateNaive(c, w)
	}
	return out
}

// Check is a sanity check λ = (φᵏ, sᵏ, ψ): a constraint bound to k named
// data series of a pipeline and a windowing function (paper §IV-A).
type Check struct {
	Name       string
	Constraint Constraint
	// SeriesNames identifies the k data series in the pipeline.
	SeriesNames []string
	Window      Windower
}

// Validate checks structural well-formedness of the check.
func (ck Check) Validate() error {
	if err := ck.Constraint.Validate(); err != nil {
		return err
	}
	if len(ck.SeriesNames) != ck.Constraint.Arity {
		return fmt.Errorf("core: check %q binds %d series to arity-%d constraint",
			ck.Name, len(ck.SeriesNames), ck.Constraint.Arity)
	}
	if ck.Window == nil {
		return fmt.Errorf("core: check %q has nil windowing function", ck.Name)
	}
	if err := validWindow(ck.Window); err != nil {
		return fmt.Errorf("core: check %q: %w", ck.Name, err)
	}
	return nil
}
