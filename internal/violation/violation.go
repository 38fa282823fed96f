// Package violation implements SOUND's violation analysis (paper §V):
// detection of change points in the sequence of sanity-check outcomes,
// assessment of the six candidate root-cause explanations E1–E6 through
// counterfactual what-if re-evaluation, and the upstream change-point
// detection over the pipeline DAG (paper Alg. 2), together with the
// provenance-based baseline BASE_VA used in the evaluation.
package violation

import (
	"sound/internal/core"
	"sound/internal/resample"
	"sound/internal/rng"
	"sound/internal/series"
	"sound/internal/stat"
)

// Explanation enumerates the root-cause candidates of Table III.
type Explanation int8

const (
	// E1: the data values themselves changed (the residual explanation).
	E1ValueChange Explanation = iota + 1
	// E2: the violated window is an unrepresentatively sparse sample.
	E2HighSparsity
	// E3: the violated window is denser, revealing structure the sparse
	// satisfied window could not show.
	E3LowSparsity
	// E4: high value uncertainty produced the violation.
	E4HighUncertainty
	// E5: low value uncertainty revealed a difference invisible before.
	E5LowUncertainty
	// E6: the block-bootstrap resampling altered the sequence structure
	// (a spurious violation of a sequence constraint).
	E6ResamplingFalsePositive
)

func (e Explanation) String() string {
	switch e {
	case E1ValueChange:
		return "E1 (difference in data values)"
	case E2HighSparsity:
		return "E2 (high data sparsity)"
	case E3LowSparsity:
		return "E3 (low data sparsity)"
	case E4HighUncertainty:
		return "E4 (high value uncertainty)"
	case E5LowUncertainty:
		return "E5 (low value uncertainty)"
	case E6ResamplingFalsePositive:
		return "E6 (resampling false positive)"
	}
	return "unknown explanation"
}

// ChangePoint is an index i in a sequence of evaluation results where the
// outcome flips between ⊤ and ⊥ (paper Def. 2). Pos holds the window
// tuple evaluated ⊤ (w_⊤) and Neg the one evaluated ⊥ (w_⊥); the order
// of the flip does not matter for explanation finding.
type ChangePoint struct {
	Index int // position of r_i in the result sequence
	Pos   core.WindowTuple
	Neg   core.WindowTuple
}

// ChangePoints extracts all change points from a sequence of evaluation
// results. Following Def. 2, only directly adjacent ⊤/⊥ flips qualify;
// transitions through ⊣ are not change points.
func ChangePoints(results []core.Result) []ChangePoint {
	var out []ChangePoint
	for i := 1; i < len(results); i++ {
		prev, cur := results[i-1], results[i]
		switch {
		case prev.Outcome == core.Satisfied && cur.Outcome == core.Violated:
			out = append(out, ChangePoint{Index: i, Pos: prev.Window, Neg: cur.Window})
		case prev.Outcome == core.Violated && cur.Outcome == core.Satisfied:
			out = append(out, ChangePoint{Index: i, Pos: cur.Window, Neg: prev.Window})
		}
	}
	return out
}

// Report is the outcome of analyzing one change point.
type Report struct {
	ChangePoint ChangePoint
	// Explanations lists the confirmed root-cause candidates in E-number
	// order. When none of E2–E6 is confirmed it contains exactly E1
	// (paper Eq. 1: E1 ⇔ ¬(E2 ∨ E3 ∨ E4 ∨ E5 ∨ E6)).
	Explanations []Explanation
	// PerWindow records which explanation(s) each of the k input windows
	// contributed (index-aligned with the check's series).
	PerWindow [][]Explanation
}

// Has reports whether the report confirms the given explanation.
func (r Report) Has(e Explanation) bool {
	for _, x := range r.Explanations {
		if x == e {
			return true
		}
	}
	return false
}

// Primary returns the first confirmed explanation (the lowest E-number),
// or E1 for an empty report.
func (r Report) Primary() Explanation {
	if len(r.Explanations) == 0 {
		return E1ValueChange
	}
	return r.Explanations[0]
}

// Analyzer assesses explanations at change points by counterfactual
// re-evaluation. Each what-if is one window evaluated by the one
// evaluator, PlanGroup.Evaluate: the check's constraint compiled alone as
// a GlobalWindow check of its arity at the analyzer's (params, seed), in
// a one-member group, evaluated at the window seed
//
//	g.WindowSeed(windowSeed(seed, cp, j), uint64(E))
//
// for input window j of change point cp and explanation E (E2–E5). A
// what-if verdict is therefore a pure function of (params, seed, change
// point, input window, explanation), and a level template's what-if is
// decided from the closed form of its sample bit like any other window.
// The downsampling of E2 and E3 draws from its own stream, reseeded from
// the same (seed, cp, j) before each input window. Explaining the same
// change point twice, in any order, on any analyzer with the same
// (params, seed) therefore yields bit-identical reports — the property
// the parallel engine in parallel.go builds on. An Analyzer is not safe
// for concurrent use.
type Analyzer struct {
	params core.Params
	r      *rng.Rand
	// seed is the base seed all per-change-point streams derive from.
	seed uint64
	// plan is the constraint the what-ifs evaluate, compiled alone, and
	// group this analyzer's one-member group of it (see use); out is
	// the group's result slot.
	plan  *core.CheckPlan
	group *core.PlanGroup
	out   [1]core.Result
	// scratch is the reusable window-tuple buffer for what-if evaluations.
	scratch []series.Series
	// ext caches SoA extractions of the violated tuple's input windows,
	// keyed by window identity (extFor): the counterfactual re-evaluations
	// of E2–E5 replace one input at a time, so the k−1 unchanged inputs
	// prime the group's resampling kernels through views into these
	// shared extractions instead of re-extracting per what-if. views is
	// the per-call view scratch.
	ext    []resample.Extraction
	extFor []series.Series
	views  []resample.View
}

// downsampleSalt separates the Downsample RNG stream of a window from the
// window seeds of its what-ifs.
const downsampleSalt = 0x51ca1ab1e

// NewAnalyzer returns an Analyzer evaluating what-if scenarios with the
// given parameters and seed.
func NewAnalyzer(params core.Params, seed uint64) (*Analyzer, error) {
	p, err := params.Normalized()
	if err != nil {
		return nil, err
	}
	return &Analyzer{params: p, r: rng.New(seed ^ downsampleSalt), seed: seed}, nil
}

// MustAnalyzer is NewAnalyzer panicking on invalid parameters.
func MustAnalyzer(params core.Params, seed uint64) *Analyzer {
	a, err := NewAnalyzer(params, seed)
	if err != nil {
		panic(err)
	}
	return a
}

// Seed returns the base seed explanation streams derive from.
func (a *Analyzer) Seed() uint64 { return a.seed }

// use makes c the constraint the analyzer's what-ifs evaluate. The plan
// and group are kept while c is the same template, so an analyzer
// explaining one check compiles them once; a user constraint's Fn cannot
// be compared, so it compiles them per call.
func (a *Analyzer) use(c core.Constraint) error {
	if a.plan != nil && sameTemplate(a.plan.Check().Constraint, c) {
		return nil
	}
	pl, err := core.CompilePlan(core.Check{Name: c.Name, Constraint: c, SeriesNames: make([]string, c.Arity), Window: core.GlobalWindow{}}, a.params, a.seed)
	if err != nil {
		return err
	}
	// A lone plan is its own group class, so this cannot fail.
	g, _ := core.NewPlanGroup([]*core.CheckPlan{pl})
	a.plan, a.group = pl, g
	return nil
}

// sameTemplate reports whether a and b are the same template constraint:
// everything an evaluation reads of a constraint without an Fn.
func sameTemplate(a, b core.Constraint) bool {
	return a.Fn == nil && b.Fn == nil && a.Spec == b.Spec && a.Arity == b.Arity &&
		a.Granularity == b.Granularity && a.Orderedness == b.Orderedness
}

// derive returns a fresh analyzer with the same base seed and plan and a
// group of its own, sharing none of the receiver's mutable state. The
// parallel engine stamps out one per worker, after use.
func (a *Analyzer) derive() *Analyzer {
	g, _ := core.NewPlanGroup([]*core.CheckPlan{a.plan})
	return &Analyzer{params: a.params, r: rng.New(a.seed ^ downsampleSalt), seed: a.seed, plan: a.plan, group: g}
}

// windowSeed derives the seed of input window j of a change point: a pure
// function of (base seed, change point, j), so the streams a window's
// what-if evaluations read do not depend on how many change points or
// windows were explained before.
func windowSeed(base uint64, cp ChangePoint, j int) uint64 {
	s := rng.Derive(base, uint64(cp.Neg.Index))
	s = rng.Derive(s, uint64(cp.Pos.Index))
	return rng.Derive(s, uint64(j))
}

// Explain assesses the explanations E2–E6 for each of the k input
// windows of the change point and falls back to E1 when none applies
// (paper §V-B). The constraint must be the one the check evaluates: it
// panics on a constraint CompilePlan refuses. It is explainAll over the
// one change point, on this analyzer alone.
func (a *Analyzer) Explain(c core.Constraint, cp ChangePoint) Report {
	// Without a context explainAll fails only on an invalid constraint.
	reps, err := explainAll(nil, c, []ChangePoint{cp}, a, 1)
	if err != nil {
		panic(err)
	}
	return reps[0]
}

// explainWindow assesses E2–E5 for input window j of the change point,
// downsampling from the window's derived stream.
func (a *Analyzer) explainWindow(cp ChangePoint, j int) []Explanation {
	a.r.Reseed(windowSeed(a.seed, cp, j) ^ downsampleSalt)
	wPos, wNeg := cp.Pos.Windows[j], cp.Neg.Windows[j]
	var ws []Explanation
	if a.checkE2(cp, j, wPos, wNeg) {
		ws = append(ws, E2HighSparsity)
	}
	if a.checkE3(cp, j, wPos, wNeg) {
		ws = append(ws, E3LowSparsity)
	}
	if a.checkE4(cp, j, wPos, wNeg) {
		ws = append(ws, E4HighUncertainty)
	}
	if a.checkE5(cp, j, wPos, wNeg) {
		ws = append(ws, E5LowUncertainty)
	}
	return ws
}

// assembleReport fills a report's Explanations from its PerWindow slices
// and the E6 verdict (E6 concerns the whole check, not a single input
// window), applying Eq. 1's E1 fallback.
func assembleReport(rep Report, e6 bool) Report {
	var confirmed [7]bool
	confirmed[E6ResamplingFalsePositive] = e6
	for _, ws := range rep.PerWindow {
		for _, e := range ws {
			confirmed[e] = true
		}
	}
	for e := E2HighSparsity; e <= E6ResamplingFalsePositive; e++ {
		if confirmed[e] {
			rep.Explanations = append(rep.Explanations, e)
		}
	}
	if len(rep.Explanations) == 0 {
		rep.Explanations = []Explanation{E1ValueChange}
	}
	return rep
}

// evalWith re-runs γ on the violated window tuple with input j replaced,
// as the what-if of explanation e: the analyzer's group evaluates it at
// window seed WindowSeed(windowSeed(seed, cp, j), e). The tuple buffer
// is reused across calls; Evaluate copies window data into the
// resampler's own buffers, and only the outcome is returned.
func (a *Analyzer) evalWith(cp ChangePoint, j int, e Explanation, replacement series.Series) core.Outcome {
	k := len(cp.Neg.Windows)
	if cap(a.scratch) < k {
		a.scratch = make([]series.Series, k)
	}
	ws := a.scratch[:k]
	copy(ws, cp.Neg.Windows)
	ws[j] = replacement
	tuple := core.WindowTuple{Windows: ws, Start: cp.Neg.Start, End: cp.Neg.End, Index: cp.Neg.Index}
	if k > 1 {
		// Unary what-ifs replace their only window, leaving nothing to
		// share; for k-ary checks the unchanged inputs evaluate through
		// views into the cached extractions.
		tuple.Ext = a.negViews(cp.Neg.Windows, j)
	}
	g := a.group
	g.Evaluate(g.WindowSeed(windowSeed(a.seed, cp, j), uint64(e)), tuple, a.out[:])
	return a.out[0].Outcome
}

// negViews returns per-slot views for a counterfactual on the violated
// tuple with input j replaced: slot j stays a zero View (the group
// extracts the replacement itself), every other slot points into the
// cached extraction of its unchanged window, (re)built only when the
// window's identity differs from what the cache holds.
func (a *Analyzer) negViews(neg []series.Series, j int) []resample.View {
	k := len(neg)
	if cap(a.ext) < k {
		a.ext = make([]resample.Extraction, k)
		a.extFor = make([]series.Series, k)
		a.views = make([]resample.View, k)
	}
	a.ext = a.ext[:k]
	a.extFor = a.extFor[:k]
	views := a.views[:k]
	for i, w := range neg {
		if i == j {
			views[i] = resample.View{}
			continue
		}
		if !sameWindow(a.extFor[i], w) {
			a.ext[i].Extract(w)
			a.extFor[i] = w
		}
		views[i] = a.ext[i].View()
	}
	return views
}

// sameWindow reports slice identity (same start and length), the same
// criterion the resampler uses to recognize a primed window.
func sameWindow(a, b series.Series) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// checkE2: the violated window is sparser; would the satisfied window
// fail too if downsampled to that sparsity? Then sparsity, not a value
// change, explains the flip:
//
//	E2 ⇔ (|w_⊥| < |w_⊤|) ∧ (γ(φ, w'_⊤, c, N) = ⊥)
func (a *Analyzer) checkE2(cp ChangePoint, j int, wPos, wNeg series.Series) bool {
	if len(wNeg) >= len(wPos) {
		return false
	}
	down := wPos.Downsample(len(wNeg), a.r.Intn)
	// The counterfactual replaces the violated input with the
	// downsampled satisfied window inside the violated tuple.
	return a.evalWith(cp, j, E2HighSparsity, down) == core.Violated
}

// checkE3: the violated window is denser; would it be satisfied when
// downsampled to the satisfied window's sparsity?
//
//	E3 ⇔ (|w_⊥| > |w_⊤|) ∧ (γ(φ, w'_⊥, c, N) = ⊤)
func (a *Analyzer) checkE3(cp ChangePoint, j int, wPos, wNeg series.Series) bool {
	if len(wNeg) <= len(wPos) {
		return false
	}
	down := wNeg.Downsample(len(wPos), a.r.Intn)
	return a.evalWith(cp, j, E3LowSparsity, down) == core.Satisfied
}

// checkE4: relative uncertainty increased at the violation; would the
// check pass with the uncertainty scaled down to the satisfied window's
// level?
//
//	E4 ⇔ (δ_⊥ > δ_⊤) ∧ (γ(φ, w', c, N) = ⊤),
//	w'.σ↑↓ = w_⊥.σ↑↓ · δ_⊤↑↓ / δ_⊥↑↓
func (a *Analyzer) checkE4(cp ChangePoint, j int, wPos, wNeg series.Series) bool {
	dPos, dNeg := wPos.MeanRelUncertainty(), wNeg.MeanRelUncertainty()
	if !(dNeg > dPos) || dNeg == 0 {
		return false
	}
	scaled := scaleToReference(wNeg, wPos)
	return a.evalWith(cp, j, E4HighUncertainty, scaled) == core.Satisfied
}

// checkE5: relative uncertainty decreased at the violation; would the
// check pass with the uncertainty scaled up to the satisfied window's
// level?
//
//	E5 ⇔ (δ_⊥ < δ_⊤) ∧ (γ(φ, w', c, N) = ⊤)
func (a *Analyzer) checkE5(cp ChangePoint, j int, wPos, wNeg series.Series) bool {
	dPos, dNeg := wPos.MeanRelUncertainty(), wNeg.MeanRelUncertainty()
	if !(dNeg < dPos) {
		return false
	}
	scaled := scaleToReference(wNeg, wPos)
	return a.evalWith(cp, j, E5LowUncertainty, scaled) == core.Satisfied
}

// scaleToReference rescales w's directional uncertainties by the ratio of
// the reference window's mean relative uncertainties to w's own
// (δ_ref↑/δ_w↑ and δ_ref↓/δ_w↓). Directions with zero own uncertainty
// are left unscaled.
func scaleToReference(w, ref series.Series) series.Series {
	fUp, fDown := 1.0, 1.0
	if d := w.MeanRelUncertaintyDir(true); d > 0 {
		fUp = ref.MeanRelUncertaintyDir(true) / d
	}
	if d := w.MeanRelUncertaintyDir(false); d > 0 {
		fDown = ref.MeanRelUncertaintyDir(false) / d
	}
	return w.ScaleUncertainty(fUp, fDown)
}

// E6Holds tests the resampling-false-positive condition: the violation is
// a block-bootstrap artifact if φ holds on each resampling block of the
// violated tuple individually:
//
//	E6 ⇔ ∀ b_i: φ(b_i) = ⊤
//
// For k-ary checks the aligned blocks of all inputs are evaluated
// together.
func E6Holds(c core.Constraint, neg core.WindowTuple) bool {
	k := len(neg.Windows)
	if k == 0 {
		return false
	}
	// An empty input window has no blocks, so the ∀-condition is vacuous
	// at best: bail out before allocating any per-window state.
	for _, w := range neg.Windows {
		if len(w) == 0 {
			return false
		}
	}
	// Extract each window's values once and slice the per-block views out
	// of them, mirroring resample.Blocks (contiguous [i, i+b) blocks of
	// size BlockSize): the per-block loop below is then allocation-free
	// instead of allocating a fresh []float64 per block per window.
	vals := make([][]float64, k)
	wvals := make([][]float64, k)
	bsize := make([]int, k)
	nBlocks := -1
	for j, w := range neg.Windows {
		wvals[j] = w.Values()
		bsize[j] = resample.BlockSize(len(w))
		// Aligned evaluation truncates to the input with the fewest
		// blocks, exactly as the Blocks-based loop did.
		if nb := (len(w) + bsize[j] - 1) / bsize[j]; nBlocks == -1 || nb < nBlocks {
			nBlocks = nb
		}
	}
	for b := 0; b < nBlocks; b++ {
		for j := 0; j < k; j++ {
			start := b * bsize[j]
			end := start + bsize[j]
			if end > len(wvals[j]) {
				end = len(wvals[j])
			}
			vals[j] = wvals[j][start:end]
		}
		if !c.Eval(vals) {
			return false
		}
	}
	return true
}

// ControlE6 applies the paper's §VI-C control for spurious violations of
// sequence checks: every violated result whose window satisfies the E6
// condition is reclassified as satisfied. Results of unordered
// constraints are returned unchanged. The input slice is not modified.
func ControlE6(c core.Constraint, results []core.Result) []core.Result {
	if !c.Orderedness.Ordered() {
		return results
	}
	out := make([]core.Result, len(results))
	copy(out, results)
	for i := range out {
		if out[i].Outcome == core.Violated && E6Holds(c, out[i].Window) {
			out[i].Outcome = core.Satisfied
		}
	}
	return out
}

// ChangeConstraint is the data-change test φ²_change of §V-C. The default
// is the two-sample Kolmogorov–Smirnov test at significance α = 1 − c.
type ChangeConstraint func(w1, w2 series.Series) bool

// KSChangeConstraint returns the default change constraint:
//
//	φ²_change(w1, w2) : ks_test_2samp(w1.v, w2.v).p_value < α
func KSChangeConstraint(alpha float64) ChangeConstraint {
	return func(w1, w2 series.Series) bool {
		return stat.KSTest2Samp(w1.Values(), w2.Values()).PValue < alpha
	}
}

// MWUChangeConstraint returns a Mann–Whitney-U-based change constraint:
// a change is flagged when the rank-sum test rejects at significance
// alpha. It is more sensitive to median shifts and less sensitive to
// dispersion changes than the KS default — the paper's §V-C explicitly
// leaves the change test pluggable.
func MWUChangeConstraint(alpha float64) ChangeConstraint {
	return func(w1, w2 series.Series) bool {
		return stat.MannWhitneyU(w1.Values(), w2.Values()).PValue < alpha
	}
}

// WassersteinChangeConstraint returns a magnitude-aware change
// constraint: a change is flagged when the earth-mover's distance of the
// window values exceeds threshold. Unlike the hypothesis tests it
// responds to *how far* the distribution moved, which makes it robust on
// very large windows where tiny shifts become statistically significant.
func WassersteinChangeConstraint(threshold float64) ChangeConstraint {
	return func(w1, w2 series.Series) bool {
		d := stat.Wasserstein1(w1.Values(), w2.Values())
		return d > threshold // NaN (empty window) does not flag
	}
}
