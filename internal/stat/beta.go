package stat

import (
	"fmt"
	"math"
)

// Beta is the Beta(α, β) distribution on [0, 1]. SOUND uses it as the
// conjugate prior/posterior of the Bayesian binomial test in Alg. 1: the
// evaluation starts from the flat Beta(1, 1) prior and, after observing
// m satisfied and n violated constraint samples, holds the posterior
// Beta(α+m, β+n) over the satisfaction probability.
type Beta struct {
	Alpha, Beta float64
}

// NewBeta returns a Beta distribution, validating the parameters.
func NewBeta(alpha, beta float64) (Beta, error) {
	if !(alpha > 0) || !(beta > 0) {
		return Beta{}, fmt.Errorf("stat: Beta parameters must be positive, got (%g, %g)", alpha, beta)
	}
	return Beta{Alpha: alpha, Beta: beta}, nil
}

// FlatPrior is the uninformative Beta(1, 1) prior used by SOUND.
func FlatPrior() Beta { return Beta{Alpha: 1, Beta: 1} }

// Observe returns the posterior after observing successes and failures.
func (d Beta) Observe(successes, failures int) Beta {
	return Beta{Alpha: d.Alpha + float64(successes), Beta: d.Beta + float64(failures)}
}

// Mean returns α/(α+β).
func (d Beta) Mean() float64 { return d.Alpha / (d.Alpha + d.Beta) }

// Mode returns the mode for α, β > 1; for other shapes it returns the
// boundary with more mass.
func (d Beta) Mode() float64 {
	if d.Alpha > 1 && d.Beta > 1 {
		return (d.Alpha - 1) / (d.Alpha + d.Beta - 2)
	}
	if d.Alpha >= d.Beta {
		return 1
	}
	return 0
}

// Variance returns αβ / ((α+β)² (α+β+1)).
func (d Beta) Variance() float64 {
	s := d.Alpha + d.Beta
	return d.Alpha * d.Beta / (s * s * (s + 1))
}

// PDF returns the density at x.
func (d Beta) PDF(x float64) float64 {
	if x < 0 || x > 1 {
		return 0
	}
	if x == 0 {
		switch {
		case d.Alpha < 1:
			return math.Inf(1)
		case d.Alpha == 1:
			return d.Beta
		default:
			return 0
		}
	}
	if x == 1 {
		switch {
		case d.Beta < 1:
			return math.Inf(1)
		case d.Beta == 1:
			return d.Alpha
		default:
			return 0
		}
	}
	return math.Exp((d.Alpha-1)*math.Log(x) + (d.Beta-1)*math.Log1p(-x) - LogBeta(d.Alpha, d.Beta))
}

// CDF returns P(X <= x), the regularized incomplete beta I_x(α, β).
func (d Beta) CDF(x float64) float64 { return RegIncBeta(x, d.Alpha, d.Beta) }

// Quantile returns the p-quantile. The one-parameter families Beta(α, 1)
// and Beta(1, β) — the posterior shapes of runs of identical outcomes
// from a flat prior, the hot path of adaptive early stopping — use their
// closed forms p^(1/α) and 1−(1−p)^(1/β).
func (d Beta) Quantile(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	if d.Beta == 1 {
		return math.Pow(p, 1/d.Alpha)
	}
	if d.Alpha == 1 {
		return 1 - math.Pow(1-p, 1/d.Beta)
	}
	return InvRegIncBeta(p, d.Alpha, d.Beta)
}

// CredibleInterval returns the equal-tailed credible interval with
// credibility level c in (0, 1): the [(1−c)/2, (1+c)/2] quantile pair.
// This is the interval Alg. 1 compares against the neutral threshold 0.5.
func (d Beta) CredibleInterval(c float64) (lower, upper float64) {
	return d.credibleLower(c), d.credibleUpper(c)
}

// credibleLower is the lower end of CredibleInterval(c) alone, for
// callers that read one end and should not pay a quantile inversion for
// the other.
func (d Beta) credibleLower(c float64) float64 {
	if c <= 0 || c >= 1 {
		if c >= 1 {
			return 0
		}
		return d.Mean()
	}
	tail := (1 - c) / 2
	return d.Quantile(tail)
}

// credibleUpper is the upper end of CredibleInterval(c) alone.
func (d Beta) credibleUpper(c float64) float64 {
	if c <= 0 || c >= 1 {
		if c >= 1 {
			return 1
		}
		return d.Mean()
	}
	tail := (1 - c) / 2
	return d.Quantile(1 - tail)
}

// Sample draws a Beta variate using Jöhnk's method for small shapes and
// the ratio-of-gammas construction (Marsaglia–Tsang) otherwise.
// src must return standard uniform and standard normal variates.
func (d Beta) Sample(uniform func() float64, normal func() float64) float64 {
	x := sampleGamma(d.Alpha, uniform, normal)
	y := sampleGamma(d.Beta, uniform, normal)
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}

// sampleGamma draws a Gamma(shape, 1) variate by Marsaglia–Tsang, with
// the boost trick for shape < 1.
func sampleGamma(shape float64, uniform func() float64, normal func() float64) float64 {
	if shape < 1 {
		u := uniform()
		for u == 0 {
			u = uniform()
		}
		return sampleGamma(shape+1, uniform, normal) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = normal()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := uniform()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}
