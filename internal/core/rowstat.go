package core

import "math"

// This file implements the two row reductions of the scoring loops — the
// in-range count and the (min, max) pair — and the shared row statistic of
// the multiplexed evaluator (group.go) built on the second: max-delta
// members read a drawn row only through its extremes, so a lane computes
// them once per sample and every member consuming them tests its own
// threshold in O(1) instead of re-scanning the row.

// orderedKey maps the bit pattern of a float64 to a uint64 whose unsigned
// order is the numeric order of the floats: −Inf < … < −0 < +0 < … < +Inf,
// with every NaN outside [−Inf, +Inf].
func orderedKey(bits uint64) uint64 {
	return bits ^ (uint64(int64(bits)>>63) | 1<<63)
}

// b2i is 1 for true and 0 for false; it compiles to a SETcc, not a jump.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// countIn returns how many values v of row satisfy a <= v <= b, as the
// two float comparisons decide it. Alg. 1 samples deepest on the windows
// whose values straddle a bound, where that test is a coin flip per value,
// so the loop carries no data-dependent jump: a <= v <= b on floats is
// key(v)−key(a) <= key(b)−key(a) on their ordered keys, one unsigned
// comparison added as a 0/1. A zero bound is moved to the zero that admits
// both (a to −0, b to +0), because the float comparison treats the two as
// equal and the keys do not. No value needs special care: infinities order
// like any other value and a NaN's key lies outside every
// [key(a), key(b)].
func countIn(row []float64, a, b float64) int {
	if !(a <= b) {
		// Crossed or NaN bounds admit nothing.
		return 0
	}
	if a == 0 {
		a = math.Copysign(0, -1)
	}
	if b == 0 {
		b = 0 // +0, whichever zero it was
	}
	ka := orderedKey(math.Float64bits(a))
	span := orderedKey(math.Float64bits(b)) - ka
	in := 0
	for _, v := range row {
		in += b2i(orderedKey(math.Float64bits(v))-ka <= span)
	}
	return in
}

// extremes returns the (min, max) of a non-empty row in one pass,
// keeping the first of tied values as stat.Min and stat.Max do.
func extremes(row []float64) (lo, hi float64) {
	lo, hi = row[0], row[0]
	for _, v := range row[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// rowStat is the one statistic of a drawn row that members share: its
// (min, max). Only max-delta members read it — the level templates that
// also reduce to the extremes are decided without rows wherever sharing
// would be sound (level.go).
type rowStat struct {
	// users is how many undecided members of the current window read the
	// statistic; shared is whether it was scanned for the current sample,
	// which takes two users — a lone one keeps kernelSat's single call.
	users  int
	shared bool

	min, max float64
}

// statSlot returns the index in stats of the statistic sp's predicate
// reduces to, appending it on first use, or -1 when the op needs the row
// itself.
func statSlot(stats *[]rowStat, sp *KernelSpec) int {
	if sp.Op != KernelMaxDelta {
		return -1
	}
	if len(*stats) == 0 {
		*stats = append(*stats, rowStat{})
	}
	return 0
}

// scan computes the statistic of one non-empty row.
func (st *rowStat) scan(row []float64) {
	st.min, st.max = extremes(row)
}

// sat is kernelSat(sp, row) for a max-delta spec read off the scanned
// statistic of a finite non-empty row.
func (st *rowStat) sat(sp *KernelSpec) bool {
	return st.max-st.min < sp.A
}
