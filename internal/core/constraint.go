// Package core implements SOUND's primary contribution: the sanity
// constraint model with its taxonomy (paper §IV-A, Fig. 2), windowing
// functions ψ for embedding constraints into pipelines, and the robust
// constraint-evaluation algorithm γ (paper Alg. 1) that combines
// quality-aware resampling with a Bayesian binomial test and an
// early-stopping decision rule on the posterior credible interval.
package core

import (
	"fmt"

	"sound/internal/resample"
)

// Granularity captures which data points a constraint is applied to
// (taxonomy dimension 1, Fig. 2).
type Granularity int8

const (
	// PointWise constraints refer to individual data points.
	PointWise Granularity = iota
	// WindowTime constraints consider points selected by a time window.
	WindowTime
	// WindowIndex constraints consider points selected by an index
	// (tuple-count) window.
	WindowIndex
	// WindowGlobal constraints consider the whole series.
	WindowGlobal
)

func (g Granularity) String() string {
	switch g {
	case PointWise:
		return "point-wise"
	case WindowTime:
		return "windowed in time"
	case WindowIndex:
		return "windowed in tuples"
	case WindowGlobal:
		return "global window"
	}
	return "unknown"
}

// Windowed reports whether the granularity selects more than one point.
func (g Granularity) Windowed() bool { return g != PointWise }

// Orderedness captures whether a constraint consumes its window as an
// ordered sequence or as a set (taxonomy dimension 2, Fig. 2).
type Orderedness int8

const (
	// Set constraints are independent of point ordering.
	Set Orderedness = iota
	// SequenceTime constraints depend on the time-derived ordering.
	SequenceTime
	// SequenceIndex constraints depend on the index-derived ordering.
	SequenceIndex
)

func (o Orderedness) String() string {
	switch o {
	case Set:
		return "set"
	case SequenceTime:
		return "sequence (time)"
	case SequenceIndex:
		return "sequence (index)"
	}
	return "unknown"
}

// Ordered reports whether the constraint relies on point ordering.
func (o Orderedness) Ordered() bool { return o != Set }

// KernelOp identifies a template's predicate. Every Table IV template
// (and the §IV-C generalizations behind it) maps to one op; KernelNone
// marks a user constraint, which is its Fn.
type KernelOp uint8

const (
	// KernelNone means the constraint is no template: Fn is its
	// predicate.
	KernelNone KernelOp = iota
	// KernelRange is a <= x <= b on every value.
	KernelRange
	// KernelGreaterThan is x > A on every value.
	KernelGreaterThan
	// KernelNonNegative is x >= 0 on every value.
	KernelNonNegative
	// KernelFractionInRange requires at least fraction C of the values
	// in [A, B].
	KernelFractionInRange
	// KernelMonotone is x_i < x_{i+1} (Strict) or x_i <= x_{i+1}.
	KernelMonotone
	// KernelMaxDelta is max(x) - min(x) < A.
	KernelMaxDelta
	// KernelCountAtLeast is |x| >= |y| on the window cardinalities.
	KernelCountAtLeast
	// KernelStdNonZero is std(x) != 0.
	KernelStdNonZero
	// KernelLowerMeanDelta compares mean absolute first differences.
	KernelLowerMeanDelta
	// KernelCorrAbove is Pearson corr(x, y) > A.
	KernelCorrAbove
	// KernelCorrBelow is |Pearson corr(x, y)| < A.
	KernelCorrBelow
	// KernelRSquaredAbove is R²(x, y) > A.
	KernelRSquaredAbove
	// KernelKSBelow bounds the two-sample KS statistic by A.
	KernelKSBelow
	// KernelKLBelow bounds the histogram KL divergence by A.
	KernelKLBelow
)

// KernelSpec is a template constraint: the operation plus its numeric
// parameters. It is the template's whole definition — the constructors
// leave Fn nil — and Constraint.Eval scores it; the evaluator scores its
// rows with the kernel alone when the windows are provably finite (see
// internal/core/kernel.go).
type KernelSpec struct {
	Op KernelOp
	// Strict selects the strict variant of KernelMonotone.
	Strict bool
	// Bins configures the KernelKLBelow histogram, 1..MaxKLBins.
	Bins int32
	// A, B, C parameterize the op: KernelRange uses [A, B];
	// KernelGreaterThan, KernelMaxDelta, the correlation/R² thresholds
	// and the KS/KL bounds use A; KernelFractionInRange uses [A, B]
	// with minimum fraction C.
	A, B, C float64
}

// MaxKLBins bounds KernelSpec.Bins.
const MaxKLBins = 4096

// Constraint is a sanity constraint φᵏ: (V*)ᵏ → {⊤, ⊥} together with its
// taxonomy classification (paper Def. 1). The predicate is exactly one of
// Spec, for a template, or Fn, for a user constraint: template
// constructors set Spec and leave Fn nil, so call Eval, not Fn. Fn
// receives the k value sequences of a window tuple and must be
// deterministic and free of side effects; γ calls it on resampled
// realizations of the window.
type Constraint struct {
	Name        string
	Description string
	Granularity Granularity
	Orderedness Orderedness
	Arity       int
	Fn          func(vals [][]float64) bool
	Spec        KernelSpec
}

// Validate checks structural well-formedness of the constraint.
func (c Constraint) Validate() error {
	if (c.Fn != nil) == (c.Spec.Op != KernelNone) {
		return fmt.Errorf("core: constraint %q needs exactly one of a kernel spec and a function", c.Name)
	}
	if int(c.Spec.Op) >= len(templates) {
		return fmt.Errorf("core: constraint %q has unknown kernel op %d", c.Name, c.Spec.Op)
	}
	// A histogram of no bins scores NaN, and every bin is allocated for
	// every row scored, so the bin count is bounded on both sides.
	if c.Spec.Op == KernelKLBelow && (c.Spec.Bins < 1 || c.Spec.Bins > MaxKLBins) {
		return fmt.Errorf("core: constraint %q has %d histogram bins, want 1..%d", c.Name, c.Spec.Bins, MaxKLBins)
	}
	if c.Arity < 1 {
		return fmt.Errorf("core: constraint %q has arity %d", c.Name, c.Arity)
	}
	if c.Granularity == PointWise && c.Orderedness.Ordered() {
		return fmt.Errorf("core: point-wise constraint %q cannot be ordered", c.Name)
	}
	return nil
}

// Strategy returns the resampling strategy implied by the taxonomy
// position of the constraint (paper §IV-B).
func (c Constraint) Strategy() resample.Strategy {
	return resample.ForConstraint(c.Granularity == PointWise, c.Orderedness.Ordered())
}

// Eval reports whether the realization vals satisfies the constraint: a
// template through its spec, a user constraint through Fn, whose result
// is taken as-is.
func (c Constraint) Eval(vals [][]float64) bool {
	if c.Spec.Op != KernelNone {
		return c.Spec.holds(vals)
	}
	return c.Fn(vals)
}

// Outcome is the three-valued result of a sanity check evaluation:
// satisfied ⊤, violated ⊥, or inconclusive ⊣ (paper §IV-B).
type Outcome int8

const (
	// Inconclusive means the evidence did not reach the credibility
	// level before the sampling budget was exhausted (⊣).
	Inconclusive Outcome = iota
	// Satisfied means the constraint holds with the required
	// credibility (⊤).
	Satisfied
	// Violated means the constraint fails with the required
	// credibility (⊥).
	Violated
)

func (o Outcome) String() string {
	switch o {
	case Satisfied:
		return "⊤"
	case Violated:
		return "⊥"
	case Inconclusive:
		return "⊣"
	}
	return "?"
}

// Conclusive reports whether the outcome is ⊤ or ⊥.
func (o Outcome) Conclusive() bool { return o != Inconclusive }

// finite reports whether all values of all sequences are finite, the
// guard by which templates reject NaN/Inf-poisoned windows. v-v is
// exactly 0 for a finite v and NaN for a NaN or an infinity: one
// comparison per value where IsNaN || IsInf makes three.
func finite(vals ...[]float64) bool {
	for _, vs := range vals {
		for _, v := range vs {
			if v-v != 0 {
				return false
			}
		}
	}
	return true
}
