package stat

import (
	"math"
	"testing"
)

// FuzzRegIncBeta checks the incomplete beta function over arbitrary
// parameters: it must never panic, stay in [0, 1] on its domain, and
// respect the symmetry identity.
func FuzzRegIncBeta(f *testing.F) {
	f.Add(0.5, 2.0, 3.0)
	f.Add(0.0, 1.0, 1.0)
	f.Add(0.999, 100.0, 0.001)
	f.Add(0.5, 1e-6, 1e6)
	f.Add(1.4802973661668753e-16, 0.20136055510204082, 1.3333243333333333e+06) // 1 − x inexact
	f.Fuzz(func(t *testing.T, x, a, b float64) {
		got := RegIncBeta(x, a, b)
		if a <= 0 || b <= 0 || math.IsNaN(x) || math.IsNaN(a) || math.IsNaN(b) {
			if !math.IsNaN(got) {
				t.Fatalf("out-of-domain input gave %v", got)
			}
			return
		}
		if math.IsInf(a, 1) || math.IsInf(b, 1) {
			return // degenerate shapes: any finite answer acceptable
		}
		if x > 0 && x < 1 {
			if math.IsNaN(got) || got < -1e-9 || got > 1+1e-9 {
				t.Fatalf("I_%v(%v, %v) = %v outside [0,1]", x, a, b, got)
			}
			// The identity needs exact complements: 1 − x rounds below
			// x = 0.5, so compare at x' = 1 − y, y = fl(1 − x), which
			// Sterbenz's lemma makes exact (x' = x from x = 0.5 up).
			y := 1 - x
			lhs := RegIncBeta(1-y, a, b)
			sym := 1 - RegIncBeta(y, b, a)
			if math.Abs(lhs-sym) > 1e-6 {
				t.Fatalf("symmetry violated: %v vs %v (x=%v a=%v b=%v)", lhs, sym, 1-y, a, b)
			}
		}
	})
}

// FuzzSequentialBounds extends TestSequentialBoundsMatchSearchOracle to
// arbitrary priors α, β ∈ (0, 20], levels c ∈ (0, 1) and budgets n ≤ 200:
// the hinted one-sided search must equal the sort.Search oracle.
func FuzzSequentialBounds(f *testing.F) {
	f.Add(1.0, 1.0, 0.95, uint8(100))
	f.Add(0.5, 0.5, 0.99, uint8(200))
	f.Add(7.0, 1.0, 0.5, uint8(60))
	f.Add(19.9, 0.01, 0.999, uint8(37))
	f.Fuzz(func(t *testing.T, alpha, beta, c float64, n uint8) {
		if math.IsNaN(alpha) || math.IsNaN(beta) || math.IsNaN(c) ||
			math.IsInf(alpha, 0) || math.IsInf(beta, 0) || math.IsInf(c, 0) {
			return
		}
		// Fold onto (0, 20] as 20 − [0, 20), and onto [0, 1), skipping 0.
		tc := boundsCase{
			alpha: 20 - math.Mod(math.Abs(alpha), 20),
			beta:  20 - math.Mod(math.Abs(beta), 20),
			cred:  math.Mod(math.Abs(c), 1),
			n:     int(n) % 201,
		}
		if tc.cred == 0 {
			return
		}
		checkAgainstOracle(t, tc)
	})
}

// FuzzBetaQuantileInverse checks that the quantile inverts the CDF for
// arbitrary posterior shapes.
func FuzzBetaQuantileInverse(f *testing.F) {
	f.Add(0.025, 5.0, 7.0)
	f.Add(0.975, 1.0, 1.0)
	f.Add(0.5, 0.5, 0.5)
	f.Fuzz(func(t *testing.T, p, a, b float64) {
		if math.IsNaN(p) || math.IsNaN(a) || math.IsNaN(b) {
			return
		}
		p = math.Mod(math.Abs(p), 1)
		a = math.Mod(math.Abs(a), 500) + 0.05
		b = math.Mod(math.Abs(b), 500) + 0.05
		d := Beta{Alpha: a, Beta: b}
		x := d.Quantile(p)
		if x < 0 || x > 1 {
			t.Fatalf("quantile(%v) of Beta(%v,%v) = %v", p, a, b, x)
		}
		if p > 1e-6 && p < 1-1e-6 {
			// For extreme shapes the true quantile may not be
			// representable distinct from 0 or 1; the correct invariant
			// is that x brackets p to within one ulp:
			// CDF(x−ulp) ≤ p ≤ CDF(x+ulp), with numeric slack.
			lo := d.CDF(math.Nextafter(x, 0))
			hi := d.CDF(math.Nextafter(x, 1))
			if lo > p+1e-6 || hi < p-1e-6 {
				t.Fatalf("Quantile(%v) of Beta(%v,%v) = %v does not bracket p: CDF range [%v, %v]",
					p, a, b, x, lo, hi)
			}
		}
	})
}
