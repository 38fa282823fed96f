package stat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFlatPriorIsUniform(t *testing.T) {
	d := Beta{Alpha: 1, Beta: 1}
	if d.Mean() != 0.5 {
		t.Errorf("mean = %v", d.Mean())
	}
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if !close(d.CDF(x), x, 1e-12) {
			t.Errorf("CDF(%v) = %v, want %v", x, d.CDF(x), x)
		}
	}
}

func TestBetaMoments(t *testing.T) {
	d := Beta{Alpha: 2, Beta: 6}
	if !close(d.Mean(), 0.25, 1e-12) {
		t.Errorf("mean = %v", d.Mean())
	}
}

func TestCredibleIntervalProperties(t *testing.T) {
	d := Beta{Alpha: 81, Beta: 21}
	lo95, hi95 := d.CredibleInterval(0.95)
	lo99, hi99 := d.CredibleInterval(0.99)
	if !(lo95 < d.Mean() && d.Mean() < hi95) {
		t.Errorf("mean %v outside 95%% CI [%v, %v]", d.Mean(), lo95, hi95)
	}
	if !(lo99 <= lo95 && hi95 <= hi99) {
		t.Errorf("99%% CI [%v,%v] does not contain 95%% CI [%v,%v]", lo99, hi99, lo95, hi95)
	}
	// Mass check: CDF(hi) - CDF(lo) = c.
	if got := d.CDF(hi95) - d.CDF(lo95); !close(got, 0.95, 1e-8) {
		t.Errorf("CI mass = %v", got)
	}
}

func TestCredibleIntervalQuickNesting(t *testing.T) {
	// Property: for any posterior and c1 < c2, CI(c1) ⊆ CI(c2).
	f := func(succ, fail uint8, c1, c2 float64) bool {
		d := Beta{Alpha: 1 + float64(succ), Beta: 1 + float64(fail)}
		a := math.Mod(math.Abs(c1), 0.98) + 0.01
		b := math.Mod(math.Abs(c2), 0.98) + 0.01
		if a > b {
			a, b = b, a
		}
		lo1, hi1 := d.CredibleInterval(a)
		lo2, hi2 := d.CredibleInterval(b)
		return lo2 <= lo1+1e-12 && hi1 <= hi2+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCredibleIntervalDegenerateLevels(t *testing.T) {
	d := Beta{Alpha: 6, Beta: 6}
	lo, hi := d.CredibleInterval(1)
	if lo != 0 || hi != 1 {
		t.Errorf("c=1 CI = [%v,%v]", lo, hi)
	}
	lo, hi = d.CredibleInterval(0)
	if lo != hi {
		t.Errorf("c=0 CI = [%v,%v], want point", lo, hi)
	}
}

func TestBetaQuantileMatchesCDF(t *testing.T) {
	d := Beta{Alpha: 3, Beta: 8}
	for _, p := range []float64{0.025, 0.25, 0.5, 0.75, 0.975} {
		x := d.Quantile(p)
		if !close(d.CDF(x), p, 1e-9) {
			t.Errorf("CDF(Quantile(%v)) = %v", p, d.CDF(x))
		}
	}
}
