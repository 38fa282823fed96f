package core

import (
	"fmt"

	"sound/internal/stat"
)

// This file implements the constraint templates of paper §IV-C plus the
// concrete check constraints of Table IV (S-1..S-5, A-1..A-4). Every
// template rejects windows containing non-finite values: NaN or ±Inf in
// a data product is itself a sanity violation.

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
		Fn: func(vals [][]float64) bool {
			if !finite(vals[0]) {
				return false
			}
			for _, v := range vals[0] {
				if v < a || v > b {
					return false
				}
			}
			return true
		},
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
		Fn: func(vals [][]float64) bool {
			if !finite(vals[0]) {
				return false
			}
			for _, v := range vals[0] {
				if !(v > t) {
					return false
				}
			}
			return true
		},
	}
}

// NonNegative is the common numeric-range special case x >= 0.
func NonNegative() Constraint {
	c := GreaterThan(0)
	c.Name = "non-negative"
	c.Description = "value >= 0"
	c.Spec = KernelSpec{Op: KernelNonNegative}
	c.Fn = func(vals [][]float64) bool {
		if !finite(vals[0]) {
			return false
		}
		for _, v := range vals[0] {
			if v < 0 {
				return false
			}
		}
		return true
	}
	return c
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
		Fn: func(vals [][]float64) bool {
			vs := vals[0]
			if len(vs) == 0 || !finite(vs) {
				return false
			}
			return float64(countIn(vs, a, b))/float64(len(vs)) >= frac
		},
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
		Fn: func(vals [][]float64) bool {
			vs := vals[0]
			if !finite(vs) {
				return false
			}
			for i := 1; i < len(vs); i++ {
				if strict && !(vs[i-1] < vs[i]) {
					return false
				}
				if !strict && !(vs[i-1] <= vs[i]) {
					return false
				}
			}
			return true
		},
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
		Fn: func(vals [][]float64) bool {
			vs := vals[0]
			if len(vs) == 0 || !finite(vs) {
				return false
			}
			lo, hi := extremes(vs)
			return hi-lo < a
		},
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
		Fn: func(vals [][]float64) bool {
			return len(vals[0]) >= len(vals[1])
		},
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
		Fn: func(vals [][]float64) bool {
			vs := vals[0]
			if len(vs) < 2 || !finite(vs) {
				return false
			}
			return stat.Variance(vs) != 0
		},
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
		Fn: func(vals [][]float64) bool {
			x, y := vals[0], vals[1]
			if len(x) < 2 || len(y) < 2 || !finite(x, y) {
				return false
			}
			return meanAbsDelta(x) < meanAbsDelta(y)
		},
	}
}

func meanAbsDelta(vs []float64) float64 {
	sum := 0.0
	for i := 1; i < len(vs); i++ {
		d := vs[i] - vs[i-1]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / float64(len(vs)-1)
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
		Fn: func(vals [][]float64) bool {
			r := stat.Pearson(vals[0], vals[1])
			return r > t // NaN fails, as intended
		},
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
		Fn: func(vals [][]float64) bool {
			r := stat.Pearson(vals[0], vals[1])
			if r < 0 {
				r = -r
			}
			return r < t // NaN fails
		},
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
		Fn: func(vals [][]float64) bool {
			return stat.RSquared(vals[0], vals[1]) > t
		},
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
		Fn: func(vals [][]float64) bool {
			if len(vals[0]) == 0 || len(vals[1]) == 0 || !finite(vals[0], vals[1]) {
				return false
			}
			return stat.KSTest2Samp(vals[0], vals[1]).Statistic < t
		},
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
		Fn: func(vals [][]float64) bool {
			if len(vals[0]) == 0 || len(vals[1]) == 0 || !finite(vals[0], vals[1]) {
				return false
			}
			d := stat.KLDivergence(vals[0], vals[1], bins)
			return d < t // NaN fails
		},
	}
}
