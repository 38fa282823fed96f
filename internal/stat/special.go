// Package stat is the statistics substrate of SOUND. Go's standard library
// has no statistical distributions, so everything needed by the paper —
// the Beta posterior with equal-tailed credible intervals (Alg. 1), the
// two-sample Kolmogorov–Smirnov test (change constraint, §V-C), Pearson
// correlation and the coefficient of determination (constraint templates,
// §IV-C), and supporting special functions — is implemented here against
// package math and validated by property tests.
package stat

import "math"

// LogBeta returns ln B(a, b) = ln Γ(a) + ln Γ(b) − ln Γ(a+b).
func LogBeta(a, b float64) float64 {
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	return la + lb - lab
}

// RegIncBeta returns the regularized incomplete beta function I_x(a, b)
// for a, b > 0 and x in [0, 1], using the continued-fraction expansion of
// Numerical Recipes (Lentz's method) with the symmetry transformation for
// fast convergence.
func RegIncBeta(x, a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) || a <= 0 || b <= 0 {
		return math.NaN()
	}
	return regIncBeta(x, a, b, LogBeta(a, b))
}

// regIncBeta is RegIncBeta for shapes already known to be positive, with
// lnB = LogBeta(a, b) supplied by the caller, so that InvRegIncBeta pays
// for the three log-gamma evaluations once per inversion instead of once
// per Newton step.
func regIncBeta(x, a, b, lnB float64) float64 {
	switch {
	case math.IsNaN(x):
		return math.NaN()
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	// ln of the prefactor x^a (1-x)^b / (a B(a,b)) without the leading a/b.
	lnFront := a*math.Log(x) + b*math.Log1p(-x) - lnB
	if x < (a+1)/(a+b+2) {
		return math.Exp(lnFront) * betaCF(x, a, b) / a
	}
	return 1 - math.Exp(lnFront)*betaCF(1-x, b, a)/b
}

// betaCF evaluates the continued fraction for the incomplete beta function
// by the modified Lentz method.
func betaCF(x, a, b float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-16
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		fm := float64(m)
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			return h
		}
	}
	return h // converged to working precision in practice
}

// InvRegIncBeta returns x such that I_x(a, b) = p, the quantile of the
// Beta(a, b) distribution, via bisection refined with Newton steps.
func InvRegIncBeta(p, a, b float64) float64 {
	switch {
	case math.IsNaN(p) || a <= 0 || b <= 0:
		return math.NaN()
	case p <= 0:
		return 0
	case p >= 1:
		return 1
	}
	// Initial guess: mean of the distribution.
	x := a / (a + b)
	lo, hi := 0.0, 1.0
	lnB := LogBeta(a, b)
	for i := 0; i < 500; i++ {
		f := regIncBeta(x, a, b, lnB) - p
		if f > 0 {
			hi = x
		} else {
			lo = x
		}
		// Newton step using the Beta pdf as derivative.
		pdf := math.Exp((a-1)*math.Log(x) + (b-1)*math.Log1p(-x) - lnB)
		var nx float64
		if pdf > 0 && !math.IsInf(pdf, 0) {
			nx = x - f/pdf
		}
		if !(nx > lo && nx < hi) {
			nx = (lo + hi) / 2
		}
		// Relative convergence: extreme shapes (a ≪ 1 with large b, or
		// vice versa) have quantiles arbitrarily close to 0 or 1, where
		// an absolute tolerance stops prematurely. The distance to the
		// nearer boundary is the natural scale.
		scale := math.Min(nx, 1-nx)
		if math.Abs(nx-x) < 1e-14*scale+1e-300 {
			return nx
		}
		x = nx
	}
	return x
}

// ErfInv returns the inverse error function, used for normal quantiles.
// Accuracy ~1e-9 via a rational approximation plus one Newton refinement.
func ErfInv(x float64) float64 {
	if x <= -1 {
		return math.Inf(-1)
	}
	if x >= 1 {
		return math.Inf(1)
	}
	// Winitzki-style initial approximation.
	const a = 0.147
	ln := math.Log1p(-x * x)
	t1 := 2/(math.Pi*a) + ln/2
	y := math.Copysign(math.Sqrt(math.Sqrt(t1*t1-ln/a)-t1), x)
	// Newton refinement on erf(y) - x = 0.
	for i := 0; i < 3; i++ {
		err := math.Erf(y) - x
		y -= err * math.Sqrt(math.Pi) / 2 * math.Exp(y*y)
	}
	return y
}
