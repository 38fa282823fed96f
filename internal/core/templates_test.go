package core

import (
	"math"
	"testing"

	"sound/internal/rng"
)

func v(vals ...float64) [][]float64 { return [][]float64{vals} }

func v2(a, b []float64) [][]float64 { return [][]float64{a, b} }

// TestFinite pins finite to its definition, no NaN and no infinity, on
// the values where its v-v form could differ: the largest magnitudes
// (whose difference must not overflow), subnormals and signed zeros.
func TestFinite(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, x := range []float64{0, negZero, 1, -1, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022,
		math.NaN(), math.Float64frombits(0xfff8000000000001), math.Inf(1), math.Inf(-1)} {
		want := !math.IsNaN(x) && !math.IsInf(x, 0)
		for _, row := range [][]float64{{x}, {1, 2, x}, {x, 1, 2}} {
			if got := finite(row); got != want {
				t.Errorf("finite(%v) = %v, want %v", row, got, want)
			}
			if got := finite([]float64{1}, row); got != want {
				t.Errorf("finite([1], %v) = %v, want %v", row, got, want)
			}
		}
	}
	if !finite() || !finite(nil, []float64{}) {
		t.Error("no values must count as finite")
	}
}

func TestRangeConstraint(t *testing.T) {
	c := Range(0, 10)
	if !c.Fn(v(0, 5, 10)) {
		t.Error("boundary values rejected")
	}
	if c.Fn(v(5, 11)) {
		t.Error("out-of-range accepted")
	}
	if c.Fn(v(math.NaN())) {
		t.Error("NaN accepted")
	}
	if c.Fn(v(math.Inf(1))) {
		t.Error("Inf accepted")
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
}

func TestGreaterThanConstraint(t *testing.T) {
	c := GreaterThan(0.5)
	if !c.Fn(v(0.6, 0.9)) {
		t.Error("valid rejected")
	}
	if c.Fn(v(0.5)) {
		t.Error("boundary should fail strict >")
	}
	if c.Fn(v(math.NaN())) {
		t.Error("NaN accepted")
	}
}

func TestNonNegative(t *testing.T) {
	c := NonNegative()
	if !c.Fn(v(0, 1, 2)) {
		t.Error("zero rejected")
	}
	if c.Fn(v(-0.001)) {
		t.Error("negative accepted")
	}
}

func TestFractionInRange(t *testing.T) {
	c := FractionInRange(0, 1, 0.8)
	if !c.Fn(v(0.1, 0.5, 0.9, 0.99, 5)) { // 4/5 = 0.8
		t.Error("exactly-at-fraction rejected")
	}
	if c.Fn(v(0.1, 5, 6, 7, 8)) {
		t.Error("low fraction accepted")
	}
	if c.Fn(v()) {
		t.Error("empty window accepted")
	}
}

func TestMonotonicIncrease(t *testing.T) {
	strict := MonotonicIncrease(true)
	if !strict.Fn(v(1, 2, 3)) {
		t.Error("increasing rejected")
	}
	if strict.Fn(v(1, 2, 2)) {
		t.Error("plateau accepted by strict")
	}
	loose := MonotonicIncrease(false)
	if !loose.Fn(v(1, 2, 2)) {
		t.Error("plateau rejected by non-strict")
	}
	if loose.Fn(v(1, 2, 1.5)) {
		t.Error("decrease accepted")
	}
	if !loose.Fn(v(7)) {
		t.Error("singleton should satisfy monotonicity")
	}
}

func TestMaxDelta(t *testing.T) {
	c := MaxDelta(5)
	if !c.Fn(v(1, 3, 5)) {
		t.Error("small delta rejected")
	}
	if c.Fn(v(1, 7)) {
		t.Error("large delta accepted")
	}
	if c.Fn(v()) {
		t.Error("empty window accepted")
	}
}

func TestCountAtLeast(t *testing.T) {
	c := CountAtLeast()
	if !c.Fn(v2([]float64{1, 2, 3}, []float64{1, 2})) {
		t.Error("|x|>=|y| rejected")
	}
	if c.Fn(v2([]float64{1}, []float64{1, 2})) {
		t.Error("|x|<|y| accepted")
	}
	if c.Arity != 2 {
		t.Error("arity should be 2")
	}
}

func TestStdNonZero(t *testing.T) {
	c := StdNonZero()
	if !c.Fn(v(1, 2, 3)) {
		t.Error("varying window rejected")
	}
	if c.Fn(v(4, 4, 4)) {
		t.Error("frozen window accepted")
	}
	if c.Fn(v(4)) {
		t.Error("singleton window accepted (no variance evidence)")
	}
}

func TestLowerMeanDelta(t *testing.T) {
	c := LowerMeanDelta()
	smooth := []float64{1, 1.1, 1.2, 1.3}
	rough := []float64{1, 3, 0, 4}
	if !c.Fn(v2(smooth, rough)) {
		t.Error("smooth-vs-rough rejected")
	}
	if c.Fn(v2(rough, smooth)) {
		t.Error("rough-vs-smooth accepted")
	}
	if c.Fn(v2([]float64{1}, rough)) {
		t.Error("too-short window accepted")
	}
}

func TestCorrelationAbove(t *testing.T) {
	c := CorrelationAbove(0.2)
	x := []float64{1, 2, 3, 4, 5}
	if !c.Fn(v2(x, []float64{2, 4, 6, 8, 10})) {
		t.Error("correlated rejected")
	}
	if c.Fn(v2(x, []float64{5, 1, 4, 2, 3})) {
		t.Error("uncorrelated accepted")
	}
	if c.Fn(v2(x, []float64{1, 1, 1, 1, 1})) {
		t.Error("zero-variance (NaN corr) accepted")
	}
}

func TestCorrelationBelow(t *testing.T) {
	c := CorrelationBelow(0.5)
	x := []float64{1, 2, 3, 4, 5}
	if c.Fn(v2(x, []float64{2, 4, 6, 8, 10})) {
		t.Error("perfectly correlated accepted by anti-correlation check")
	}
	if c.Fn(v2(x, []float64{-1, -2, -3, -4, -5})) {
		t.Error("perfect anticorrelation accepted (absolute value)")
	}
}

func TestRSquaredAbove(t *testing.T) {
	c := RSquaredAbove(0.8)
	obs := []float64{1, 2, 3, 4, 5}
	if !c.Fn(v2(obs, []float64{1.1, 1.9, 3.1, 3.9, 5.1})) {
		t.Error("good prediction rejected")
	}
	if c.Fn(v2(obs, []float64{5, 4, 3, 2, 1})) {
		t.Error("bad prediction accepted")
	}
}

func TestKSDistanceBelow(t *testing.T) {
	c := KSDistanceBelow(0.5)
	x := []float64{1, 2, 3, 4, 5}
	if !c.Fn(v2(x, []float64{1.1, 2.1, 3.1, 4.1, 5.1})) {
		t.Error("similar distributions rejected")
	}
	if c.Fn(v2(x, []float64{100, 101, 102, 103, 104})) {
		t.Error("disjoint distributions accepted")
	}
	if c.Fn(v2(nil, x)) {
		t.Error("empty window accepted")
	}
}

func TestKLDivergenceBelow(t *testing.T) {
	r := rng.New(1)
	x := make([]float64, 300)
	y := make([]float64, 300)
	z := make([]float64, 300)
	for i := range x {
		x[i] = r.NormFloat64()
		y[i] = r.NormFloat64()
		z[i] = r.NormFloat64() + 5
	}
	c := KLDivergenceBelow(0.5, 15)
	if !c.Fn(v2(x, y)) {
		t.Error("same distribution rejected")
	}
	if c.Fn(v2(x, z)) {
		t.Error("shifted distribution accepted")
	}
}

func TestAllTemplatesValidate(t *testing.T) {
	for _, c := range []Constraint{
		Range(0, 1), GreaterThan(0), NonNegative(), FractionInRange(0, 1, 0.9),
		MonotonicIncrease(true), MaxDelta(1), CountAtLeast(), StdNonZero(),
		LowerMeanDelta(), CorrelationAbove(0.2), CorrelationBelow(0.5),
		RSquaredAbove(0), KSDistanceBelow(0.3), KLDivergenceBelow(1, 10),
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
		if c.Name == "" || c.Description == "" {
			t.Errorf("template missing name/description: %+v", c)
		}
	}
}

func TestTemplateStrategies(t *testing.T) {
	if Range(0, 1).Strategy().String() != "point" {
		t.Error("point-wise template should resample point-wise")
	}
	if MaxDelta(1).Strategy().String() != "set" {
		t.Error("set template should bootstrap")
	}
	if CorrelationAbove(0).Strategy().String() != "sequence" {
		t.Error("sequence template should block-bootstrap")
	}
}
