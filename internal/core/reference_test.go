package core

import (
	"fmt"

	"sound/internal/stat"
)

// referenceFn is the oracle for every template's scoring: the template's
// predicate as one closure on the spec's parameters, guard and length
// tests first, written apart from kernelSat and KernelSpec.holds (countIn
// and extremes have their own oracles in rowstat_test.go), so the
// kernel, row-statistic and Eval parity tests compare two separately
// written forms. forceClosure wraps it as a user constraint.
func referenceFn(sp KernelSpec) func(vals [][]float64) bool {
	a, b, t := sp.A, sp.B, sp.A
	switch sp.Op {
	case KernelRange:
		return func(vals [][]float64) bool {
			if !finite(vals[0]) {
				return false
			}
			for _, v := range vals[0] {
				if v < a || v > b {
					return false
				}
			}
			return true
		}
	case KernelGreaterThan:
		return func(vals [][]float64) bool {
			if !finite(vals[0]) {
				return false
			}
			for _, v := range vals[0] {
				if !(v > t) {
					return false
				}
			}
			return true
		}
	case KernelNonNegative:
		return func(vals [][]float64) bool {
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
	case KernelFractionInRange:
		frac := sp.C
		return func(vals [][]float64) bool {
			vs := vals[0]
			if len(vs) == 0 || !finite(vs) {
				return false
			}
			return float64(countIn(vs, a, b))/float64(len(vs)) >= frac
		}
	case KernelMonotone:
		strict := sp.Strict
		return func(vals [][]float64) bool {
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
		}
	case KernelMaxDelta:
		return func(vals [][]float64) bool {
			vs := vals[0]
			if len(vs) == 0 || !finite(vs) {
				return false
			}
			lo, hi := extremes(vs)
			return hi-lo < a
		}
	case KernelCountAtLeast:
		return func(vals [][]float64) bool {
			return len(vals[0]) >= len(vals[1])
		}
	case KernelStdNonZero:
		return func(vals [][]float64) bool {
			vs := vals[0]
			if len(vs) < 2 || !finite(vs) {
				return false
			}
			return stat.Variance(vs) != 0
		}
	case KernelLowerMeanDelta:
		return func(vals [][]float64) bool {
			x, y := vals[0], vals[1]
			if len(x) < 2 || len(y) < 2 || !finite(x, y) {
				return false
			}
			return meanAbsDelta(x) < meanAbsDelta(y)
		}
	case KernelCorrAbove:
		return func(vals [][]float64) bool {
			r := stat.Pearson(vals[0], vals[1])
			return r > t // NaN fails, as intended
		}
	case KernelCorrBelow:
		return func(vals [][]float64) bool {
			r := stat.Pearson(vals[0], vals[1])
			if r < 0 {
				r = -r
			}
			return r < t // NaN fails
		}
	case KernelRSquaredAbove:
		return func(vals [][]float64) bool {
			return stat.RSquared(vals[0], vals[1]) > t
		}
	case KernelKSBelow:
		return func(vals [][]float64) bool {
			if len(vals[0]) == 0 || len(vals[1]) == 0 || !finite(vals[0], vals[1]) {
				return false
			}
			return stat.KSTest2Samp(vals[0], vals[1]).Statistic < t
		}
	case KernelKLBelow:
		bins := int(sp.Bins)
		return func(vals [][]float64) bool {
			if len(vals[0]) == 0 || len(vals[1]) == 0 || !finite(vals[0], vals[1]) {
				return false
			}
			d := stat.KLDivergence(vals[0], vals[1], bins)
			return d < t // NaN fails
		}
	}
	panic(fmt.Sprintf("referenceFn: no template op %d", sp.Op))
}

// referenceSat scores c on vals through its reference closure when c is
// a template, and through Fn when it is a user constraint.
func referenceSat(c *Constraint, vals [][]float64) bool {
	if c.Spec.Op != KernelNone {
		return referenceFn(c.Spec)(vals)
	}
	return c.Fn(vals)
}
