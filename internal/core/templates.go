package core

import "fmt"

// This file implements the constraint templates of paper §IV-C plus the
// concrete check constraints of Table IV (S-1..S-5, A-1..A-4). A template
// is its KernelSpec and nothing else; Constraint.Eval scores it
// (KernelSpec.holds in kernel.go). Every template that reads values
// rejects windows containing non-finite ones: NaN or ±Inf in a data
// product is itself a sanity violation.

// Range returns a unary point-wise constraint a <= x <= b (template
// "numeric ranges"; checks S-1 and A-1 of Table IV).
func Range(a, b float64) Constraint {
	return Constraint{
		Name:        fmt.Sprintf("range[%g,%g]", a, b),
		Description: fmt.Sprintf("value in plausible range [%g, %g]", a, b),
		Granularity: PointWise,
		Orderedness: Set,
		Arity:       1,
		Spec:        KernelSpec{Op: KernelRange, A: a, B: b},
	}
}

// GreaterThan returns a unary point-wise constraint x > t (check S-4,
// "usage > 0.5 in alerts").
func GreaterThan(t float64) Constraint {
	return Constraint{
		Name:        fmt.Sprintf("gt[%g]", t),
		Description: fmt.Sprintf("value > %g", t),
		Granularity: PointWise,
		Orderedness: Set,
		Arity:       1,
		Spec:        KernelSpec{Op: KernelGreaterThan, A: t},
	}
}

// NonNegative is the common numeric-range special case x >= 0.
func NonNegative() Constraint {
	return Constraint{
		Name:        "non-negative",
		Description: "value >= 0",
		Granularity: PointWise,
		Orderedness: Set,
		Arity:       1,
		Spec:        KernelSpec{Op: KernelNonNegative},
	}
}

// FractionInRange returns a unary windowed set constraint requiring at
// least frac of the window's values to fall into [a, b] (template:
// "when normalizing a data series, the expectation may be that a large
// fraction of data points falls into the unit interval").
func FractionInRange(a, b, frac float64) Constraint {
	return Constraint{
		Name:        fmt.Sprintf("fraction[%g,%g]>=%g", a, b, frac),
		Description: fmt.Sprintf("fraction of values in [%g, %g] at least %g", a, b, frac),
		Granularity: WindowTime,
		Orderedness: Set,
		Arity:       1,
		Spec:        KernelSpec{Op: KernelFractionInRange, A: a, B: b, C: frac},
	}
}

// MonotonicIncrease returns a unary windowed sequence constraint
// x_i < x_{i+1} (strict) or x_i <= x_{i+1} (non-strict) — template
// "monotonic trends"; check S-2 uses the strict variant over tuples.
func MonotonicIncrease(strict bool) Constraint {
	op := "<="
	if strict {
		op = "<"
	}
	return Constraint{
		Name:        "monotonic-increase" + op,
		Description: fmt.Sprintf("x_i %s x_{i+1} over the window", op),
		Granularity: WindowIndex,
		Orderedness: SequenceIndex,
		Arity:       1,
		Spec:        KernelSpec{Op: KernelMonotone, Strict: strict},
	}
}

// MaxDelta returns a unary windowed set constraint
// (max(x) − min(x)) < a (check S-5, "max delta in household usage").
func MaxDelta(a float64) Constraint {
	return Constraint{
		Name:        fmt.Sprintf("max-delta[%g]", a),
		Description: fmt.Sprintf("max(x) - min(x) < %g over the window", a),
		Granularity: WindowTime,
		Orderedness: Set,
		Arity:       1,
		Spec:        KernelSpec{Op: KernelMaxDelta, A: a},
	}
}

// CountAtLeast returns a binary windowed set constraint |x| >= |y| on the
// window cardinalities (check S-3, "plug count >= household count"). It
// is the one Table IV constraint that inspects window sizes rather than
// values, so sparsity acts on it directly.
func CountAtLeast() Constraint {
	return Constraint{
		Name:        "count-at-least",
		Description: "|x| >= |y|: first window has at least as many points",
		Granularity: WindowTime,
		Orderedness: Set,
		Arity:       2,
		Spec:        KernelSpec{Op: KernelCountAtLeast},
	}
}

// StdNonZero returns a unary windowed set constraint std(x) != 0
// (check A-2, "input pipeline did not freeze").
func StdNonZero() Constraint {
	return Constraint{
		Name:        "std-nonzero",
		Description: "std(x) != 0: the window is not frozen at a constant",
		Granularity: WindowIndex,
		Orderedness: Set,
		Arity:       1,
		Spec:        KernelSpec{Op: KernelStdNonZero},
	}
}

// LowerMeanDelta returns a binary windowed sequence constraint requiring
// the mean first difference of x to stay below that of y (check A-3,
// "lower delta on average": (x_i − x_{i−1}) < (y_i − y_{i−1})).
func LowerMeanDelta() Constraint {
	return Constraint{
		Name:        "lower-mean-delta",
		Description: "mean step of x below mean step of y",
		Granularity: WindowTime,
		Orderedness: SequenceIndex,
		Arity:       2,
		Spec:        KernelSpec{Op: KernelLowerMeanDelta},
	}
}

// CorrelationAbove returns a binary windowed sequence constraint
// corr(x, y) > t using Pearson correlation (template "linear
// correlations"; check A-4 with t = 0.2).
func CorrelationAbove(t float64) Constraint {
	return Constraint{
		Name:        fmt.Sprintf("corr>[%g]", t),
		Description: fmt.Sprintf("Pearson corr(x, y) > %g", t),
		Granularity: WindowTime,
		Orderedness: SequenceIndex,
		Arity:       2,
		Spec:        KernelSpec{Op: KernelCorrAbove, A: t},
	}
}

// CorrelationBelow returns a binary windowed sequence constraint
// |corr(x, y)| < t, expressing that two unrelated series must not be
// correlated (template "linear correlations").
func CorrelationBelow(t float64) Constraint {
	return Constraint{
		Name:        fmt.Sprintf("abscorr<[%g]", t),
		Description: fmt.Sprintf("|Pearson corr(x, y)| < %g", t),
		Granularity: WindowTime,
		Orderedness: SequenceIndex,
		Arity:       2,
		Spec:        KernelSpec{Op: KernelCorrBelow, A: t},
	}
}

// RSquaredAbove returns a binary windowed sequence constraint
// R²(obs, pred) > t (template "explained variances").
func RSquaredAbove(t float64) Constraint {
	return Constraint{
		Name:        fmt.Sprintf("r2>[%g]", t),
		Description: fmt.Sprintf("coefficient of determination above %g", t),
		Granularity: WindowTime,
		Orderedness: SequenceIndex,
		Arity:       2,
		Spec:        KernelSpec{Op: KernelRSquaredAbove, A: t},
	}
}

// KSDistanceBelow returns a binary windowed set constraint requiring the
// two-sample Kolmogorov–Smirnov statistic of the windows to stay below t
// (template "equal distributions").
func KSDistanceBelow(t float64) Constraint {
	return Constraint{
		Name:        fmt.Sprintf("ks<[%g]", t),
		Description: fmt.Sprintf("KS distance of window distributions below %g", t),
		Granularity: WindowTime,
		Orderedness: Set,
		Arity:       2,
		Spec:        KernelSpec{Op: KernelKSBelow, A: t},
	}
}

// KLDivergenceBelow returns a binary windowed set constraint on the
// Kullback–Leibler divergence of window histograms (template "equal
// distributions", alternative metric).
func KLDivergenceBelow(t float64, bins int) Constraint {
	return Constraint{
		Name:        fmt.Sprintf("kl<[%g]", t),
		Description: fmt.Sprintf("KL divergence of window distributions below %g", t),
		Granularity: WindowTime,
		Orderedness: Set,
		Arity:       2,
		Spec:        KernelSpec{Op: KernelKLBelow, A: t, Bins: int32(bins)},
	}
}
