package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"sound/internal/rng"
	"sound/internal/stat"
)

// countInRef is the oracle for countIn: the comparison every
// FractionInRange scoring form is defined by, value by value.
func countInRef(row []float64, a, b float64) int {
	in := 0
	for _, v := range row {
		if v >= a && v <= b {
			in++
		}
	}
	return in
}

// TestCountIn pins countIn to the oracle where the ordered-key form could
// differ from the float comparison: signed zeros in the row and as either
// bound, subnormals, the largest finite values, values equal to a bound
// and its float neighbours, a == b, crossed, infinite and NaN bounds — at
// row lengths around every unroll width a compiler might pick. Non-finite
// row values are outside the scoring loops' precondition but compare the
// same way, so they ride along.
func TestCountIn(t *testing.T) {
	negZero := math.Copysign(0, -1)
	inf := math.Inf(1)
	sub := math.SmallestNonzeroFloat64
	bounds := []float64{negZero, 0, sub, -sub, 1, -1, 100, math.Nextafter(100, inf), math.Nextafter(100, -inf),
		math.MaxFloat64, -math.MaxFloat64, inf, -inf, math.NaN()}
	var pool []float64
	for _, b := range bounds {
		pool = append(pool, b, math.Nextafter(b, inf), math.Nextafter(b, -inf))
	}
	pool = append(pool, 0x1p-1022, -0x1p-1022, 50, -50, math.Float64frombits(0xfff8000000000001))
	for _, n := range []int{0, 1, 3, 4, 5, 64, 1080} {
		// Two rows per length, walking the pool from different offsets, so
		// short rows still see every special value across the bound pairs.
		for off := 0; off < 2; off++ {
			row := make([]float64, n)
			for i := range row {
				row[i] = pool[(i*7+off*11)%len(pool)]
			}
			for _, a := range bounds {
				for _, b := range bounds {
					if got, want := countIn(row, a, b), countInRef(row, a, b); got != want {
						t.Errorf("n=%d off=%d [%v, %v]: countIn %d, oracle %d", n, off, a, b, got, want)
					}
				}
			}
		}
	}
	// Every pool value alone against every bound pair: a one-value row
	// names the value that breaks.
	for _, v := range pool {
		for _, a := range bounds {
			for _, b := range bounds {
				if got, want := countIn([]float64{v}, a, b), countInRef([]float64{v}, a, b); got != want {
					t.Errorf("value %v (%#x) in [%v, %v]: countIn %d, oracle %d", v, math.Float64bits(v), a, b, got, want)
				}
			}
		}
	}
}

// FuzzCountIn reads the row and the bounds as raw float64 bit patterns —
// NaN payloads, infinities and signed zeros included — and requires the
// oracle's count.
func FuzzCountIn(f *testing.F) {
	le := func(vs ...float64) []byte {
		var out []byte
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	f.Add(le(1, 2, 3), 1.0, 3.0)
	f.Add(le(0, math.Copysign(0, -1), math.SmallestNonzeroFloat64), math.Copysign(0, -1), 0.0)
	f.Add(le(math.Inf(1), math.NaN(), -math.MaxFloat64), math.Inf(-1), math.Inf(1))
	f.Add(le(5, 5, 5), 5.0, 5.0)
	f.Add(le(1, 2), 2.0, 1.0)
	f.Fuzz(func(t *testing.T, raw []byte, a, b float64) {
		row := make([]float64, len(raw)/8)
		for i := range row {
			row[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		if got, want := countIn(row, a, b), countInRef(row, a, b); got != want {
			t.Errorf("row %v in [%v, %v]: countIn %d, oracle %d", row, a, b, got, want)
		}
	})
}

// TestExtremes requires extremes to be (stat.Min, stat.Max) to the bit:
// the first of tied values wins, so mixed zeros keep the sign those keep.
func TestExtremes(t *testing.T) {
	negZero := math.Copysign(0, -1)
	rows := [][]float64{
		{3}, {negZero}, {0, negZero}, {negZero, 0}, {negZero, 0, negZero}, {1, 0, negZero, 1}, {1, negZero, 0, 1},
		{2, 5, 5, 2}, {5, 3, 9, 3, 9}, {9, 8, 7, 6}, {6, 7, 8, 9},
		{math.MaxFloat64, -math.MaxFloat64, 0}, {math.SmallestNonzeroFloat64, 0, -math.SmallestNonzeroFloat64},
	}
	long := make([]float64, 1080)
	for i := range long {
		long[i] = float64((i*7919)%541) - 270
	}
	rows = append(rows, long)
	for _, row := range rows {
		lo, hi := extremes(row)
		if math.Float64bits(lo) != math.Float64bits(stat.Min(row)) || math.Float64bits(hi) != math.Float64bits(stat.Max(row)) {
			t.Errorf("row %v: extremes (%v, %v), stat.Min/Max (%v, %v)", row, lo, hi, stat.Min(row), stat.Max(row))
		}
	}
}

// statSat scores row for c the way evaluateLane does when c's statistic
// is shared: resolve the slot, scan once, test the threshold.
func statSat(t *testing.T, c *Constraint, row []float64) bool {
	t.Helper()
	var stats []rowStat
	slot := statSlot(&stats, &c.Spec)
	if slot < 0 {
		t.Fatalf("%s: op %d does not reduce to a row statistic", c.Name, c.Spec.Op)
	}
	stats[slot].scan(row)
	return stats[slot].sat(&c.Spec)
}

// TestRowStatParity is the equivalence the scoring forms rest on: on
// finite non-empty rows the early-exit kernel and the reference closure
// return the same boolean for every level template and for max-delta, and
// so does max-delta's O(1) test on the scanned statistic — on single-point
// rows, ties, signed zeros, and thresholds that are NaN, infinite, or
// exactly a value of the row.
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
			viaKernel, viaFn := kernelSat(&c.Spec, vals), referenceFn(c.Spec)(vals)
			viaStat := viaKernel
			if c.Spec.Op == KernelMaxDelta {
				viaStat = statSat(t, c, row)
			}
			if viaStat != viaKernel || viaKernel != viaFn {
				t.Errorf("row %v %s %+v: statistic %v, kernel %v, closure %v", row, c.Name, c.Spec, viaStat, viaKernel, viaFn)
			}
		}
	}
}

// TestStatSlot pins which members share a scan: every max-delta maps to
// the one (min, max) slot, and every other op — the level templates, which
// a lane decides without rows wherever a shared statistic would be sound,
// and the ops that need the row itself — gets none.
func TestStatSlot(t *testing.T) {
	var stats []rowStat
	slot := func(c Constraint) int { return statSlot(&stats, &c.Spec) }
	mm := slot(MaxDelta(2))
	if mm != 0 || slot(MaxDelta(math.NaN())) != mm || len(stats) != 1 {
		t.Errorf("max-delta members must share the one (min, max) slot")
	}
	for _, c := range []Constraint{Range(0, 5), GreaterThan(3), NonNegative(), FractionInRange(0, 100, 0.5),
		MonotonicIncrease(true), StdNonZero(), CountAtLeast(), CorrelationAbove(0.2), forceClosure(MaxDelta(1))} {
		if got := slot(c); got != -1 {
			t.Errorf("%s: slot %d, want -1", c.Name, got)
		}
	}
}

// benchRows draws 256 rows of n values N(mean, 3): enough distinct rows
// that a branch predictor cannot memorize one row's comparison outcomes.
func benchRows(n int, mean float64) [][]float64 {
	r := rng.New(1)
	rows := make([][]float64, 256)
	for i := range rows {
		rows[i] = make([]float64, n)
		for j := range rows[i] {
			rows[i][j] = mean + 3*r.NormFloat64()
		}
	}
	return rows
}

// BenchmarkCountIn times the in-range count alone against the bounds
// [0, 100] — the short-circuit oracle (the loop every scoring form ran
// before countIn) beside countIn, on rows whose values sit on the upper
// bound and rows well inside it (DESIGN.md §4l, "the scans").
func BenchmarkCountIn(b *testing.B) {
	forms := []struct {
		name string
		fn   func([]float64, float64, float64) int
	}{{"oracle", countInRef}, {"countIn", countIn}}
	for _, n := range []int{60, 1080} {
		for _, kind := range []struct {
			name string
			mean float64
		}{{"borderline", 100}, {"clear", 50}} {
			rows := benchRows(n, kind.mean)
			for _, f := range forms {
				b.Run(fmt.Sprintf("%s/%s/n%d", f.name, kind.name, n), func(b *testing.B) {
					in := 0
					for i := 0; i < b.N; i++ {
						in += f.fn(rows[i%len(rows)], 0, 100)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/value")
					b.ReportMetric(float64(in)/float64(b.N*n), "in/value")
				})
			}
		}
	}
}

// BenchmarkExtremes times the (min, max) pair: stat.Max then stat.Min, the
// two passes KernelMaxDelta made, beside the single-pass extremes.
func BenchmarkExtremes(b *testing.B) {
	forms := []struct {
		name string
		fn   func([]float64) (float64, float64)
	}{
		{"twopass", func(row []float64) (float64, float64) { return stat.Min(row), stat.Max(row) }},
		{"extremes", extremes},
	}
	for _, n := range []int{60, 1080} {
		rows := benchRows(n, 100)
		for _, f := range forms {
			b.Run(fmt.Sprintf("%s/n%d", f.name, n), func(b *testing.B) {
				var spread float64
				for i := 0; i < b.N; i++ {
					lo, hi := f.fn(rows[i%len(rows)])
					spread += hi - lo
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/value")
				b.ReportMetric(spread/float64(b.N), "spread/row")
			})
		}
	}
}
