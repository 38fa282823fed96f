package core

import (
	"math"
	"testing"

	"sound/internal/stat"
)

// statSat scores row for c the way evaluateLane does when c's statistic
// is shared: resolve the slot, scan once, test the thresholds.
func statSat(t *testing.T, c *Constraint, row []float64) bool {
	t.Helper()
	var stats []rowStat
	slot := statSlot(&stats, &c.Spec)
	if slot < 0 {
		t.Fatalf("%s: op %d does not reduce to a row statistic", c.Name, c.Spec.Op)
	}
	stats[slot].scan(row)
	return stats[slot].sat(&c.Spec, len(row))
}

// TestRowStatParity is the equivalence the shared-statistic path rests
// on: for every reducible op, on finite non-empty rows, the O(1) test on
// the scanned statistic, the early-exit kernel and the reference closure
// return the same boolean — on single-point rows, ties, signed zeros, and
// thresholds that are NaN, infinite, or exactly a value of the row.
func TestRowStatParity(t *testing.T) {
	negZero := math.Copysign(0, -1)
	rows := [][]float64{
		{3}, {0}, {negZero},
		{0, negZero}, {negZero, 0}, {negZero, 0, negZero},
		{1, 1, 1},
		{2, 5, 5, 2},
		{-1, 0, 1},
		{5, 3, 9, 3, 9},
		{-2.5, -7, -2.5},
		{1e300, -1e300, 0},
		{math.SmallestNonzeroFloat64, 0, -math.SmallestNonzeroFloat64},
	}
	for _, row := range rows {
		// The extremes are stat.Min/stat.Max to the bit: the first of tied
		// values wins, so a row of mixed zeros keeps the sign they keep.
		st := rowStat{}
		st.scan(row)
		if math.Float64bits(st.min) != math.Float64bits(stat.Min(row)) ||
			math.Float64bits(st.max) != math.Float64bits(stat.Max(row)) {
			t.Errorf("row %v: scanned (%v, %v), stat.Min/Max (%v, %v)", row, st.min, st.max, stat.Min(row), stat.Max(row))
		}

		thresholds := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, negZero, 4, -4}
		for _, v := range row {
			thresholds = append(thresholds, v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
		}
		thresholds = append(thresholds, stat.Max(row)-stat.Min(row))
		fractions := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 1, 0.5}
		for in := 0; in <= len(row); in++ {
			f := float64(in) / float64(len(row))
			fractions = append(fractions, f, math.Nextafter(f, 2), math.Nextafter(f, -1))
		}
		var cons []Constraint
		cons = append(cons, NonNegative())
		for _, a := range thresholds {
			cons = append(cons, GreaterThan(a), MaxDelta(a))
			for _, b := range thresholds {
				cons = append(cons, Range(a, b))
				for _, f := range fractions {
					cons = append(cons, FractionInRange(a, b, f))
				}
			}
		}
		vals := [][]float64{row}
		for i := range cons {
			c := &cons[i]
			viaStat, viaKernel, viaFn := statSat(t, c, row), kernelSat(&c.Spec, vals), c.Fn(vals)
			if viaStat != viaKernel || viaKernel != viaFn {
				t.Errorf("row %v %s %+v: statistic %v, kernel %v, closure %v", row, c.Name, c.Spec, viaStat, viaKernel, viaFn)
			}
		}
	}
}

// TestStatSlot pins which members share a scan: every extremes op maps
// to the one (min, max) slot, fractions share a count only at equal
// bounds, and ops that need the row itself get no slot.
func TestStatSlot(t *testing.T) {
	var stats []rowStat
	slot := func(c Constraint) int { return statSlot(&stats, &c.Spec) }
	mm := slot(Range(0, 5))
	for _, c := range []Constraint{GreaterThan(3), NonNegative(), MaxDelta(2), Range(-1, 1)} {
		if got := slot(c); got != mm {
			t.Errorf("%s: slot %d, want the (min, max) slot %d", c.Name, got, mm)
		}
	}
	f := slot(FractionInRange(0, 100, 0.5))
	if f == mm || slot(FractionInRange(0, 100, 0.9)) != f {
		t.Errorf("fractions over one range must share one count slot distinct from (min, max)")
	}
	if slot(FractionInRange(0, 98, 0.5)) == f {
		t.Errorf("fractions over different ranges must not share a count")
	}
	if a, b := slot(FractionInRange(math.NaN(), 1, 0.5)), slot(FractionInRange(math.NaN(), 1, 0.5)); a == b {
		t.Errorf("NaN bounds equal nothing: slots %d and %d must differ", a, b)
	}
	for _, c := range []Constraint{MonotonicIncrease(true), StdNonZero(), CountAtLeast(), CorrelationAbove(0.2), forceClosure(Range(0, 1))} {
		if got := slot(c); got != -1 {
			t.Errorf("%s: slot %d, want -1", c.Name, got)
		}
	}
}
