package stat

import (
	"math"
	"testing"

	"sound/internal/rng"
)

func ar1(n int, phi float64, seed uint64) []float64 {
	r := rng.New(seed)
	xs := make([]float64, n)
	for i := 1; i < n; i++ {
		xs[i] = phi*xs[i-1] + r.NormFloat64()
	}
	return xs
}

func TestACFWhiteNoise(t *testing.T) {
	xs := ar1(5000, 0, 1)
	acf := ACF(xs, 10)
	if acf[0] != 1 {
		t.Fatalf("ACF(0) = %v", acf[0])
	}
	for lag := 1; lag <= 10; lag++ {
		if math.Abs(acf[lag]) > 0.05 {
			t.Errorf("white-noise ACF(%d) = %v", lag, acf[lag])
		}
	}
}

func TestACFAR1(t *testing.T) {
	phi := 0.8
	xs := ar1(20000, phi, 2)
	acf := ACF(xs, 5)
	for lag := 1; lag <= 5; lag++ {
		want := math.Pow(phi, float64(lag))
		if math.Abs(acf[lag]-want) > 0.05 {
			t.Errorf("AR(1) ACF(%d) = %v, want ~%v", lag, acf[lag], want)
		}
	}
}

func TestACFDegenerate(t *testing.T) {
	if ACF([]float64{1}, 3) != nil {
		t.Error("singleton should yield nil")
	}
	if ACF([]float64{2, 2, 2}, 2) != nil {
		t.Error("constant series should yield nil")
	}
	if got := ACF([]float64{1, 2, 3}, 10); len(got) != 3 {
		t.Errorf("maxLag clamping: len = %d", len(got))
	}
}

func TestDecorrelationLength(t *testing.T) {
	white := ar1(2000, 0, 3)
	if got := DecorrelationLength(white, 20); got != 1 {
		t.Errorf("white noise decorrelation length = %d", got)
	}
	sticky := ar1(2000, 0.9, 4)
	if got := DecorrelationLength(sticky, 50); got < 10 {
		t.Errorf("AR(0.9) decorrelation length = %d, want >= 10", got)
	}
	if got := DecorrelationLength([]float64{5, 5}, 10); got != 1 {
		t.Errorf("degenerate input length = %d", got)
	}
}

func TestChiSquaredSurvivalKnownValues(t *testing.T) {
	// Reference values: P(X > x) for χ²(k).
	cases := []struct{ x, k, want float64 }{
		{0, 5, 1},
		{1, 1, 0.3173105078629141},     // 2*(1-Φ(1))
		{3.841458820694124, 1, 0.05},   // 95th percentile of χ²(1)
		{5.991464547107979, 2, 0.05},   // χ²(2): survival = exp(-x/2)
		{2, 2, math.Exp(-1)},           // exp(-x/2) for k=2
		{18.307038053275146, 10, 0.05}, // 95th percentile of χ²(10)
	}
	for _, c := range cases {
		if got := ChiSquaredSurvival(c.x, c.k); !close(got, c.want, 1e-9) {
			t.Errorf("ChiSq(%v, %v) = %v, want %v", c.x, c.k, got, c.want)
		}
	}
}

func TestRegLowerGammaProperties(t *testing.T) {
	// P(a, x) is a CDF in x: monotone from 0 toward 1.
	for _, a := range []float64{0.5, 1, 3, 10} {
		prev := -1.0
		for x := 0.0; x < 40; x += 0.5 {
			p := RegLowerGamma(a, x)
			if p < prev-1e-12 {
				t.Fatalf("P(%v, %v) not monotone", a, x)
			}
			if p < 0 || p > 1+1e-12 {
				t.Fatalf("P(%v, %v) = %v out of range", a, x, p)
			}
			prev = p
		}
		if p := RegLowerGamma(a, 500); !close(p, 1, 1e-9) {
			t.Errorf("P(%v, 500) = %v", a, p)
		}
	}
	// Exponential special case: P(1, x) = 1 - e^{-x}.
	for _, x := range []float64{0.1, 1, 5} {
		if got := RegLowerGamma(1, x); !close(got, 1-math.Exp(-x), 1e-12) {
			t.Errorf("P(1, %v) = %v", x, got)
		}
	}
	if !math.IsNaN(RegLowerGamma(-1, 2)) {
		t.Error("negative shape accepted")
	}
}
