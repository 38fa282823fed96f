package stat

import (
	"math"
	"testing"
	"testing/quick"
)

func close(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestLogBetaKnownValues(t *testing.T) {
	// B(1,1)=1, B(2,3)=1/12, B(0.5,0.5)=π
	cases := []struct{ a, b, want float64 }{
		{1, 1, 0},
		{2, 3, math.Log(1.0 / 12.0)},
		{0.5, 0.5, math.Log(math.Pi)},
		{5, 5, math.Log(1.0 / 630.0)},
	}
	for _, c := range cases {
		if got := LogBeta(c.a, c.b); !close(got, c.want, 1e-12) {
			t.Errorf("LogBeta(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestRegIncBetaClosedForms(t *testing.T) {
	// I_x(1,1) = x; I_x(1,b) = 1-(1-x)^b; I_x(a,1) = x^a.
	for _, x := range []float64{0.01, 0.2, 0.5, 0.8, 0.99} {
		if got := RegIncBeta(x, 1, 1); !close(got, x, 1e-12) {
			t.Errorf("I_%v(1,1) = %v", x, got)
		}
		if got := RegIncBeta(x, 1, 3); !close(got, 1-math.Pow(1-x, 3), 1e-10) {
			t.Errorf("I_%v(1,3) = %v", x, got)
		}
		if got := RegIncBeta(x, 4, 1); !close(got, math.Pow(x, 4), 1e-10) {
			t.Errorf("I_%v(4,1) = %v", x, got)
		}
	}
}

func TestRegIncBetaReferenceValues(t *testing.T) {
	// Reference values computed with scipy.special.betainc.
	cases := []struct{ x, a, b, want float64 }{
		{0.5, 2, 2, 0.5},
		{0.3, 2, 5, 0.579825},
		{0.7, 5, 2, 0.420175}, // symmetry of the previous
		{0.5, 10, 10, 0.5},
		{0.1, 0.5, 0.5, 0.20483276469913347},
		{0.9, 0.5, 0.5, 0.7951672353008665},
		// Exact via the binomial identity I_x(a,b) = P(Bin(a+b-1, x) >= a):
		{0.25, 3, 7, 0.3993225097656250},   // P(Bin(9,0.25) >= 3)
		{0.95, 50, 2, 0.26930741346846944}, // P(Bin(51,0.95) >= 50)
	}
	for _, c := range cases {
		if got := RegIncBeta(c.x, c.a, c.b); !close(got, c.want, 1e-6) {
			t.Errorf("I_%v(%v,%v) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}
}

func TestRegIncBetaBoundsAndDomain(t *testing.T) {
	if got := RegIncBeta(0, 2, 3); got != 0 {
		t.Errorf("I_0 = %v", got)
	}
	if got := RegIncBeta(1, 2, 3); got != 1 {
		t.Errorf("I_1 = %v", got)
	}
	if got := RegIncBeta(0.5, -1, 2); !math.IsNaN(got) {
		t.Errorf("negative a gave %v, want NaN", got)
	}
	if got := RegIncBeta(math.NaN(), 2, 2); !math.IsNaN(got) {
		t.Errorf("NaN x gave %v", got)
	}
}

func TestRegIncBetaSymmetry(t *testing.T) {
	// Property: I_x(a,b) = 1 - I_{1-x}(b,a).
	f := func(x, a, b float64) bool {
		x = math.Mod(math.Abs(x), 1)
		a = math.Mod(math.Abs(a), 20) + 0.1
		b = math.Mod(math.Abs(b), 20) + 0.1
		lhs := RegIncBeta(x, a, b)
		rhs := 1 - RegIncBeta(1-x, b, a)
		return close(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRegIncBetaMonotone(t *testing.T) {
	for _, ab := range [][2]float64{{1, 1}, {2, 5}, {0.5, 0.5}, {30, 7}} {
		prev := -1.0
		for x := 0.0; x <= 1.0001; x += 0.01 {
			got := RegIncBeta(math.Min(x, 1), ab[0], ab[1])
			if got < prev-1e-12 {
				t.Fatalf("I_x(%v,%v) not monotone at x=%v: %v < %v", ab[0], ab[1], x, got, prev)
			}
			prev = got
		}
	}
}

func TestInvRegIncBetaInverse(t *testing.T) {
	// Property: RegIncBeta(InvRegIncBeta(p, a, b), a, b) ≈ p.
	f := func(p, a, b float64) bool {
		p = math.Mod(math.Abs(p), 1)
		a = math.Mod(math.Abs(a), 30) + 0.2
		b = math.Mod(math.Abs(b), 30) + 0.2
		x := InvRegIncBeta(p, a, b)
		if x < 0 || x > 1 {
			return false
		}
		return close(RegIncBeta(x, a, b), p, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// invRegIncBetaPerStep is InvRegIncBeta as first written: ln B(a, b) is
// recomputed twice per Newton step, once inside RegIncBeta and once for
// the pdf. The hoisted version must return the same bits.
func invRegIncBetaPerStep(p, a, b float64) float64 {
	switch {
	case math.IsNaN(p) || a <= 0 || b <= 0:
		return math.NaN()
	case p <= 0:
		return 0
	case p >= 1:
		return 1
	}
	x := a / (a + b)
	lo, hi := 0.0, 1.0
	for i := 0; i < 500; i++ {
		f := RegIncBeta(x, a, b) - p
		if f > 0 {
			hi = x
		} else {
			lo = x
		}
		pdf := math.Exp((a-1)*math.Log(x) + (b-1)*math.Log1p(-x) - LogBeta(a, b))
		var nx float64
		if pdf > 0 && !math.IsInf(pdf, 0) {
			nx = x - f/pdf
		}
		if !(nx > lo && nx < hi) {
			nx = (lo + hi) / 2
		}
		scale := math.Min(nx, 1-nx)
		if math.Abs(nx-x) < 1e-14*scale+1e-300 {
			return nx
		}
		x = nx
	}
	return x
}

// TestInvRegIncBetaHoistMatchesPerStep checks the LogBeta hoist bit for
// bit: the decision-table posteriors, a ≪ 1 against b ≫ 1 and the
// reverse, and shapes whose starting mean a/(a+b) rounds to 1 or 0 (the
// x ≥ 1 and x ≤ 0 cases regIncBeta must keep), at the credible-interval
// tails and extreme levels, plus random shapes.
func TestInvRegIncBetaHoistMatchesPerStep(t *testing.T) {
	same := func(p, a, b float64) bool {
		got, want := InvRegIncBeta(p, a, b), invRegIncBetaPerStep(p, a, b)
		return math.Float64bits(got) == math.Float64bits(want) || (math.IsNaN(got) && math.IsNaN(want))
	}
	shapes := [][2]float64{
		{1e-3, 1e3}, {1e-6, 1e6}, {0.01, 500}, {1e3, 1e-3}, {500, 0.01},
		{1e17, 1}, {1e20, 0.5}, {1, 1e17}, {0.5, 0.5}, {2, 3}, {7, 1},
	}
	for s := 0; s <= 1000; s += 37 {
		shapes = append(shapes, [2]float64{1 + float64(s), 1 + float64(1000-s)})
	}
	ps := []float64{1e-300, 1e-10, 0.0005, 0.005, 0.025, 0.05, 0.25, 0.5, 0.75, 0.95, 0.975, 0.995, 0.9995, 1 - 1e-10}
	for _, ab := range shapes {
		for _, p := range ps {
			if !same(p, ab[0], ab[1]) {
				t.Errorf("InvRegIncBeta(%g, %g, %g) = %v, per-step LogBeta gives %v",
					p, ab[0], ab[1], InvRegIncBeta(p, ab[0], ab[1]), invRegIncBetaPerStep(p, ab[0], ab[1]))
			}
		}
	}
	f := func(p, a, b float64) bool {
		return same(math.Mod(math.Abs(p), 1), math.Mod(math.Abs(a), 300)+1e-4, math.Mod(math.Abs(b), 300)+1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestInvRegIncBetaEdges(t *testing.T) {
	if got := InvRegIncBeta(0, 2, 2); got != 0 {
		t.Errorf("quantile(0) = %v", got)
	}
	if got := InvRegIncBeta(1, 2, 2); got != 1 {
		t.Errorf("quantile(1) = %v", got)
	}
	if got := InvRegIncBeta(0.5, 3, 3); !close(got, 0.5, 1e-10) {
		t.Errorf("median of symmetric Beta = %v", got)
	}
}

func TestErfInvRoundTrip(t *testing.T) {
	for _, x := range []float64{-0.999, -0.9, -0.5, -0.1, 0, 0.1, 0.5, 0.9, 0.999} {
		if got := math.Erf(ErfInv(x)); !close(got, x, 1e-9) {
			t.Errorf("erf(erfinv(%v)) = %v", x, got)
		}
	}
	if !math.IsInf(ErfInv(1), 1) || !math.IsInf(ErfInv(-1), -1) {
		t.Error("ErfInv(±1) should be ±Inf")
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.95, 1.6448536269514722},
		{0.025, -1.959963984540054},
	}
	for _, c := range cases {
		if got := NormalQuantile(c.p); !close(got, c.want, 1e-8) {
			t.Errorf("NormalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestNormalCDFQuantileInverse(t *testing.T) {
	f := func(p float64) bool {
		p = math.Mod(math.Abs(p), 0.998) + 0.001
		return close(NormalCDF(NormalQuantile(p)), p, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
