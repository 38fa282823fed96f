package core

// This file implements the shared row statistics of the multiplexed
// evaluator (group.go): five Table IV templates read a drawn row only
// through its extremes or through one in-range count, so a lane computes
// each such statistic once per sample and every member consuming it
// tests its own thresholds in O(1) instead of re-scanning the row.

// rowStat is one statistic of a drawn row: its (min, max), or the number
// of its values inside [a, b].
type rowStat struct {
	count bool
	a, b  float64
	// users is how many undecided members of the current window read the
	// statistic; shared is whether it was scanned for the current sample,
	// which takes two users — a lone one keeps kernelSat's early exit.
	users  int
	shared bool

	min, max float64
	in       int
}

// statSlot returns the index in stats of the statistic sp's predicate
// reduces to, appending it on first use, or -1 when the op needs the row
// itself. Fraction members share a count only at equal bounds (a NaN
// bound equals nothing, so such a member keeps a slot of its own).
func statSlot(stats *[]rowStat, sp *KernelSpec) int {
	var want rowStat
	switch sp.Op {
	case KernelRange, KernelGreaterThan, KernelNonNegative, KernelMaxDelta:
	case KernelFractionInRange:
		want = rowStat{count: true, a: sp.A, b: sp.B}
	default:
		return -1
	}
	for i, st := range *stats {
		if st.count == want.count && st.a == want.a && st.b == want.b {
			return i
		}
	}
	*stats = append(*stats, want)
	return len(*stats) - 1
}

// scan computes the statistic of one non-empty row. The extremes keep
// the first of tied values, as stat.Min and stat.Max do.
func (st *rowStat) scan(row []float64) {
	if st.count {
		in := 0
		for _, v := range row {
			if v >= st.a && v <= st.b {
				in++
			}
		}
		st.in = in
		return
	}
	lo, hi := row[0], row[0]
	for _, v := range row[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	st.min, st.max = lo, hi
}

// sat is kernelSat(sp, row) read off the scanned statistic of a finite
// row of n > 0 values. Each form negates the kernel's own per-value
// failure test applied to the extreme that fails first, so NaN and
// infinite thresholds compare exactly as they do value by value.
func (st *rowStat) sat(sp *KernelSpec, n int) bool {
	switch sp.Op {
	case KernelRange:
		return !(st.min < sp.A || st.max > sp.B)
	case KernelGreaterThan:
		return st.min > sp.A
	case KernelNonNegative:
		return !(st.min < 0)
	case KernelMaxDelta:
		return st.max-st.min < sp.A
	}
	return float64(st.in)/float64(n) >= sp.C
}
