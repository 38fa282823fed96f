package stat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sound/internal/rng"
)

func TestMannWhitneySameDistribution(t *testing.T) {
	r := rng.New(41)
	rejected := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		x := make([]float64, 40)
		y := make([]float64, 40)
		for j := range x {
			x[j] = r.NormFloat64()
			y[j] = r.NormFloat64()
		}
		if MannWhitneyU(x, y).PValue < 0.05 {
			rejected++
		}
	}
	if frac := float64(rejected) / trials; frac > 0.09 {
		t.Errorf("type-I error rate = %v, want ~0.05", frac)
	}
}

func TestMannWhitneyShiftDetected(t *testing.T) {
	r := rng.New(43)
	rejected := 0
	const trials = 100
	for i := 0; i < trials; i++ {
		x := make([]float64, 50)
		y := make([]float64, 50)
		for j := range x {
			x[j] = r.NormFloat64()
			y[j] = r.NormFloat64() + 1
		}
		if MannWhitneyU(x, y).PValue < 0.05 {
			rejected++
		}
	}
	if frac := float64(rejected) / trials; frac < 0.95 {
		t.Errorf("power = %v for a 1σ shift", frac)
	}
}

func TestMannWhitneyEdgeCases(t *testing.T) {
	if got := MannWhitneyU(nil, []float64{1}).PValue; got != 1 {
		t.Errorf("empty input p = %v", got)
	}
	// All tied values: no evidence.
	same := []float64{5, 5, 5}
	if got := MannWhitneyU(same, same).PValue; got != 1 {
		t.Errorf("all-tied p = %v", got)
	}
}

func TestMannWhitneyUStatisticRange(t *testing.T) {
	// Property: 0 <= U <= n*m, and p in [0, 1].
	f := func(a, b []float64) bool {
		x := sanitize(a)
		y := sanitize(b)
		res := MannWhitneyU(x, y)
		if len(x) == 0 || len(y) == 0 {
			return res.PValue == 1
		}
		nm := float64(len(x) * len(y))
		return res.U >= -1e-9 && res.U <= nm+1e-9 && res.PValue >= 0 && res.PValue <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func sanitize(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, v := range xs {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			out = append(out, v)
		}
	}
	return out
}

func TestMannWhitneySymmetry(t *testing.T) {
	x := []float64{1, 3, 5, 7, 9, 11, 13, 15}
	y := []float64{2, 4, 6, 8, 10, 12, 14, 16}
	a := MannWhitneyU(x, y)
	b := MannWhitneyU(y, x)
	if math.Abs(a.PValue-b.PValue) > 1e-12 {
		t.Errorf("p-values not symmetric: %v vs %v", a.PValue, b.PValue)
	}
	// U1 + U2 = n*m.
	if math.Abs(a.U+b.U-64) > 1e-9 {
		t.Errorf("U1 + U2 = %v, want 64", a.U+b.U)
	}
}

func TestWasserstein1KnownValues(t *testing.T) {
	// Point masses at 0 and at d have distance d.
	if got := Wasserstein1([]float64{0}, []float64{3}); !close(got, 3, 1e-12) {
		t.Errorf("point masses: %v", got)
	}
	// Identical samples: 0.
	x := []float64{1, 2, 5, 9}
	if got := Wasserstein1(x, x); got != 0 {
		t.Errorf("identical: %v", got)
	}
	// Shifting a sample by d moves the distance by exactly d.
	shifted := []float64{3, 4, 7, 11}
	if got := Wasserstein1(x, shifted); !close(got, 2, 1e-12) {
		t.Errorf("shift: %v", got)
	}
	// Uniform{0,1} vs Uniform{0,1} as samples with different sizes.
	if got := Wasserstein1([]float64{0, 1}, []float64{0, 0.5, 1}); got < 0 {
		t.Errorf("negative distance %v", got)
	}
	// Samples spanning ±MaxFloat64: the gap between the breakpoints
	// overflows to +Inf. Where the CDFs agree across it the segment has
	// no mass and the distance is 0, not 0·Inf = NaN; where they differ
	// it is +Inf in both directions.
	const huge = math.MaxFloat64
	for _, tc := range []struct {
		name string
		x, y []float64
		want float64
	}{
		{"overflow, equal samples", []float64{-huge, huge}, []float64{-huge, huge}, 0},
		{"overflow, equal CDFs", []float64{-huge, huge}, []float64{-huge, -huge, huge, huge}, 0},
		{"overflow, one side heavier", []float64{-huge, huge}, []float64{-huge, huge, huge}, math.Inf(1)},
	} {
		if got := Wasserstein1(tc.x, tc.y); got != tc.want {
			t.Errorf("%s: %v, want %v", tc.name, got, tc.want)
		}
		if got := Wasserstein1(tc.y, tc.x); got != tc.want {
			t.Errorf("%s (reversed): %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestWasserstein1Properties(t *testing.T) {
	f := func(a, b []float64) bool {
		x := sanitize(a)
		y := sanitize(b)
		if len(x) == 0 || len(y) == 0 {
			return math.IsNaN(Wasserstein1(x, y))
		}
		d := Wasserstein1(x, y)
		rev := Wasserstein1(y, x)
		// Values near ±MaxFloat64 overflow the CDF integral to +Inf;
		// both directions must then agree on +Inf.
		if math.IsInf(d, 1) || math.IsInf(rev, 1) {
			return math.IsInf(d, 1) && math.IsInf(rev, 1)
		}
		// Non-negativity and symmetry.
		return d >= -1e-12 && close(d, rev, 1e-9*(1+d))
	}
	// A fixed source makes a failure reproducible; the overflow inputs a
	// time-seeded run used to stumble on (~1 in 100) are table cases in
	// TestWasserstein1KnownValues.
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestWasserstein1TranslationInvariance(t *testing.T) {
	// Property: W(x+c, y+c) = W(x, y).
	f := func(a []float64, c float64) bool {
		x := sanitize(a)
		if len(x) < 2 || math.IsNaN(c) || math.IsInf(c, 0) {
			return true
		}
		c = math.Mod(c, 1000)
		y := make([]float64, len(x))
		for i, v := range x {
			y[i] = v/2 + 1 // some other sample derived from x
			_ = v
		}
		base := Wasserstein1(x, y)
		xs := make([]float64, len(x))
		ys := make([]float64, len(y))
		for i := range x {
			xs[i] = x[i] + c
			ys[i] = y[i] + c
		}
		if math.IsInf(base, 0) || math.IsNaN(base) {
			return true
		}
		return close(Wasserstein1(xs, ys), base, 1e-6*(1+math.Abs(base)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
