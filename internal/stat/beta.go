package stat

import "math"

// Beta is the Beta(α, β) distribution on [0, 1]. SOUND uses it as the
// conjugate prior/posterior of the Bayesian binomial test in Alg. 1: the
// evaluation starts from the flat Beta(1, 1) prior and, after observing
// m satisfied and n violated constraint samples, holds the posterior
// Beta(α+m, β+n) over the satisfaction probability.
type Beta struct {
	Alpha, Beta float64
}

// Mean returns α/(α+β).
func (d Beta) Mean() float64 { return d.Alpha / (d.Alpha + d.Beta) }

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
