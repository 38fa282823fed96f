package core

import (
	"fmt"
	"math"

	"sound/internal/resample"
	"sound/internal/rng"
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
	// Default 100.
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

func (p Params) normalized() (Params, error) {
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
	// realization, except in a stream lane that decided the check from the
	// closed-form probability of its sample bit (level.go): there a sample
	// is one Bernoulli bit and no row was drawn for it — GroupEval.Draws
	// counts rows.
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

// Evaluator runs the robust constraint evaluation of Alg. 1. It is not
// safe for concurrent use; create one per goroutine (cheap) with
// independent seeds.
type Evaluator struct {
	// blockLoop carries the parameters, the shared precomputed decision
	// table and the Alg. 1 loop itself (kernel.go).
	blockLoop
	r *rng.Rand
	// resamplers per strategy, created lazily and reused across calls.
	rs [3]*resample.Resampler
	// rsStale marks resamplers whose stream must be re-derived from r on
	// next use after a Reseed; deriving lazily reproduces the split order
	// of a freshly constructed evaluator.
	rsStale [3]bool
	// tuples is EvaluateAll's window-tuple buffer, reused across calls.
	tuples []WindowTuple
}

// newEvaluator is the one place an Evaluator is assembled: normalized
// parameters, their decision table, and a base stream at exactly seed.
func newEvaluator(p Params, b *decisionBounds, seed uint64) *Evaluator {
	return &Evaluator{blockLoop: blockLoop{params: p, bounds: b}, r: rng.New(seed)}
}

// NewEvaluator returns an Evaluator with the given parameters and seed.
func NewEvaluator(params Params, seed uint64) (*Evaluator, error) {
	p, err := params.normalized()
	if err != nil {
		return nil, err
	}
	return newEvaluator(p, boundsFor(p), seed), nil
}

// MustEvaluator is NewEvaluator that panics on invalid parameters, for
// use in tests and examples with literal parameters.
func MustEvaluator(params Params, seed uint64) *Evaluator {
	e, err := NewEvaluator(params, seed)
	if err != nil {
		panic(err)
	}
	return e
}

// Params returns the normalized evaluation parameters.
func (e *Evaluator) Params() Params { return e.params }

// Reseed resets the evaluator's random state to that of a freshly
// constructed NewEvaluator(params, seed), keeping allocated buffers, the
// shared decision table, and the credible-interval cache (both are pure
// functions of params, so reuse cannot change results). It makes pooled
// evaluators — one per worker, reseeded per window — produce results
// identical to a per-window evaluator without per-window allocation.
func (e *Evaluator) Reseed(seed uint64) {
	e.r.Reseed(seed)
	for i := range e.rs {
		e.rsStale[i] = e.rs[i] != nil
	}
}

// Derive returns a fresh evaluator with the receiver's normalized
// parameters and the same shared decision table, seeded at exactly seed.
// Worker pools use it to stamp out per-goroutine evaluators without
// re-normalizing parameters or re-resolving the boundary table from the
// process-wide cache; the result is indistinguishable from
// NewEvaluator(Params(), seed).
func (e *Evaluator) Derive(seed uint64) *Evaluator {
	return newEvaluator(e.params, e.bounds, seed)
}

// Evaluate runs γ(φ, wᵏ, c, N) on one window tuple (paper Alg. 1).
//
// Each iteration draws a quality-aware resample of the k windows,
// evaluates φ on it, updates the Beta posterior over the satisfaction
// probability, and applies the decision rule: conclude ⊤ when the
// credible interval lies entirely above the neutral threshold 0.5,
// conclude ⊥ when it lies entirely below, and keep sampling otherwise.
// If N samples are exhausted without a conclusion the outcome is ⊣.
//
// A window tuple with no data points at all cannot provide evidence and
// yields ⊣ with zero samples.
func (e *Evaluator) Evaluate(c Constraint, w WindowTuple) Result {
	var res Result
	e.evaluateInto(&res, &c, w)
	return res
}

// evaluateInto runs Evaluate writing into a zeroed *res, so the batch
// loops fill their result slices in place instead of copying the full
// Result struct (which embeds the window tuple) per window. The tuple is
// copied field by field: w.Ext aliases caller-scoped scratch that is only
// valid during this call, so the Result must not carry it into longer-
// lived hands (violation analysis retains Result windows) — and skipping
// it also skips one write barrier per window.
func (e *Evaluator) evaluateInto(res *Result, c *Constraint, w WindowTuple) {
	res.Window.Windows = w.Windows
	res.Window.Start = w.Start
	res.Window.End = w.End
	res.Window.Index = w.Index
	if empty(w.Windows) {
		res.ViolationProb = 0.5
		res.Lower, res.Upper = e.bounds.priorLower, e.bounds.priorUpper
		return
	}
	strat := c.Strategy()
	rs := e.resampler(strat)
	if w.Ext != nil {
		rs.PrimeViews(w.Windows, w.Ext)
	} else {
		rs.Prime(w.Windows)
	}
	if strat == resample.Point && rs.PrimedAllCertain() {
		e.replayCertain(res, c.Eval(rs.Draw(w.Windows)))
		return
	}
	e.evaluateBlocks(res, c, rs, w)
}

// finish fills the posterior summary of a terminated evaluation in
// place: the satisfied count, violation probability, and the credible
// interval the decision rule saw at its last check (from the precomputed
// terminal tables whenever the count sits on a boundary, which it always
// does with CheckInterval = 1). It takes a pointer because Result embeds
// the window tuple — passing it by value puts two struct copies on the
// point-check hot path.
func (l *blockLoop) finish(res *Result, countSatisfied int) {
	p, b := &l.params, l.bounds
	s, n := countSatisfied, res.Samples
	switch {
	case res.Outcome == Satisfied && s == b.acceptAt[n]:
		res.Lower, res.Upper = b.acceptCI[n][0], b.acceptCI[n][1]
	case res.Outcome == Violated && s == b.rejectAt[n]:
		res.Lower, res.Upper = b.rejectCI[n][0], b.rejectCI[n][1]
	case res.Outcome == Inconclusive && n == p.MaxSamples && n >= p.MinSamples:
		res.Lower, res.Upper = b.exhaustCI[s][0], b.exhaustCI[s][1]
	case n >= p.MinSamples:
		// Boundary overshoot (CheckInterval > 1 or a burn-in): compute
		// the interval the last check saw directly, memoized by counts.
		post := stat.Beta{Alpha: p.PriorAlpha + float64(s), Beta: p.PriorBeta + float64(n-s)}
		res.Lower, res.Upper = l.memo.interval(p.Credibility, s, n-s, post)
	default:
		// No check ever ran (MinSamples > MaxSamples, rejected by
		// normalized() but kept consistent for internal callers): the
		// interval stays at its zero value, matching the direct rule.
	}
	res.SatisfiedCount = s
	res.ViolationProb = 1 - (p.PriorAlpha+float64(s))/(p.PriorAlpha+p.PriorBeta+float64(n))
}

// EvaluateAll applies the windowing function and evaluates the constraint
// on every window tuple, the densest coverage discussed in §IV-A
// ("a constraint is evaluated for every index"). Each window is
// extracted when it is evaluated.
func (e *Evaluator) EvaluateAll(c Constraint, win Windower, ss []series.Series) []Result {
	tuples := windowTuples(win, ss, &e.tuples)
	out := make([]Result, len(tuples))
	for i := range tuples {
		e.evaluateInto(&out[i], &c, tuples[i])
	}
	return out
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

func (e *Evaluator) resampler(s resample.Strategy) *resample.Resampler {
	if e.rs[s] == nil {
		e.rs[s] = resample.New(s, e.r.Split())
		if s == resample.Sequence && e.params.BlockSize > 0 {
			e.rs[s].SetBlockSize(e.params.BlockSize)
		}
	} else if e.rsStale[s] {
		e.rs[s].Reseed(e.r)
	}
	e.rsStale[s] = false
	return e.rs[s]
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
	if !ClassifyWindow(ck.Window).valid() {
		return fmt.Errorf("core: check %q has window %+v: sizes, slides and gaps must be positive and finite, counts at least 1", ck.Name, ck.Window)
	}
	return nil
}

// Run evaluates the check on the given series (resolved in the order of
// SeriesNames) with the evaluator. It compiles a throwaway plan per
// call; callers evaluating the same check repeatedly should CompilePlan
// once and use the plan's Run* methods.
func (ck Check) Run(e *Evaluator, ss []series.Series) ([]Result, error) {
	pl, err := CompilePlan(ck, e.Params(), 0)
	if err != nil {
		return nil, err
	}
	return pl.RunWith(e, ss)
}
