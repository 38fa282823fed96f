package stat

import "math"

// ACF returns the sample autocorrelation function of xs at lags
// 0..maxLag (inclusive), using the biased estimator normalized by the
// lag-0 autocovariance. Returns nil for inputs shorter than 2 or when
// the series has zero variance.
func ACF(xs []float64, maxLag int) []float64 {
	n := len(xs)
	if n < 2 || maxLag < 0 {
		return nil
	}
	if maxLag >= n {
		maxLag = n - 1
	}
	mean := Mean(xs)
	c0 := 0.0
	for _, x := range xs {
		d := x - mean
		c0 += d * d
	}
	if c0 == 0 {
		return nil
	}
	out := make([]float64, maxLag+1)
	out[0] = 1
	for lag := 1; lag <= maxLag; lag++ {
		c := 0.0
		for i := lag; i < n; i++ {
			c += (xs[i] - mean) * (xs[i-lag] - mean)
		}
		out[lag] = c / c0
	}
	return out
}

// DecorrelationLength returns the smallest lag at which the sample
// autocorrelation drops below the large-lag significance band
// ±z/√n (z for the two-sided 95% level), or maxLag+1 if it never does.
// It estimates how many consecutive points are effectively dependent —
// the quantity a block bootstrap must preserve per block.
func DecorrelationLength(xs []float64, maxLag int) int {
	acf := ACF(xs, maxLag)
	if acf == nil {
		return 1
	}
	band := 1.959963984540054 / math.Sqrt(float64(len(xs)))
	for lag := 1; lag < len(acf); lag++ {
		if math.Abs(acf[lag]) < band {
			return lag
		}
	}
	return maxLag + 1
}

// ChiSquaredSurvival returns P(X > x) for X ~ χ²(k), via the regularized
// upper incomplete gamma function Q(k/2, x/2) computed from the series /
// continued-fraction expansions of the incomplete gamma function.
func ChiSquaredSurvival(x, k float64) float64 {
	if x <= 0 {
		return 1
	}
	if k <= 0 {
		return 0
	}
	return 1 - RegLowerGamma(k/2, x/2)
}

// RegLowerGamma returns the regularized lower incomplete gamma function
// P(a, x) = γ(a, x)/Γ(a) via the power series for x < a+1 and the
// continued fraction for the complement otherwise (Numerical Recipes).
func RegLowerGamma(a, x float64) float64 {
	switch {
	case math.IsNaN(a) || math.IsNaN(x) || a <= 0 || x < 0:
		return math.NaN()
	case x == 0:
		return 0
	}
	lg, _ := math.Lgamma(a)
	if x < a+1 {
		// Series representation.
		ap := a
		sum := 1 / a
		del := sum
		for i := 0; i < 500; i++ {
			ap++
			del *= x / ap
			sum += del
			if math.Abs(del) < math.Abs(sum)*1e-15 {
				break
			}
		}
		return sum * math.Exp(-x+a*math.Log(x)-lg)
	}
	// Continued fraction for Q(a, x) by modified Lentz.
	const fpmin = 1e-300
	b := x + 1 - a
	c := 1 / fpmin
	d := 1 / b
	h := d
	for i := 1; i <= 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = b + an/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	q := math.Exp(-x+a*math.Log(x)-lg) * h
	return 1 - q
}
