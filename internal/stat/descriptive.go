package stat

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean, NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance (divide by n), NaN for empty
// input. SOUND constraint templates (e.g. A-2's std(x) != 0) operate on
// whole windows, so population moments are the natural choice.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// SampleVariance returns the unbiased sample variance (divide by n-1),
// NaN for inputs shorter than 2.
func SampleVariance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs)-1)
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum, NaN for empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum, NaN for empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the p-quantile (type-7 linear interpolation, the
// default of R and NumPy) of xs. xs need not be sorted. NaN for empty
// input or p outside [0, 1].
func Quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 || p < 0 || p > 1 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, p)
}

func quantileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	h := p * float64(n-1)
	i := int(math.Floor(h))
	if i >= n-1 {
		return sorted[n-1]
	}
	frac := h - float64(i)
	// Convex form avoids overflow when the two values have huge
	// opposite signs (|a-b| can exceed MaxFloat64).
	return (1-frac)*sorted[i] + frac*sorted[i+1]
}

// Median returns the 0.5-quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// MeanCI returns the mean of xs together with the half-width of its
// level-c confidence interval (used for the paper's "average and 95%
// confidence interval" plot annotations). With the small repetition
// counts of the experiments (3–5 runs) the Student-t quantile is used,
// not the normal approximation — at n = 5 the difference is a factor
// 2.78/1.96.
func MeanCI(xs []float64, c float64) (mean, halfWidth float64) {
	mean = Mean(xs)
	if len(xs) < 2 {
		return mean, math.NaN()
	}
	se := math.Sqrt(SampleVariance(xs) / float64(len(xs)))
	tq := StudentTQuantile((1+c)/2, float64(len(xs)-1))
	return mean, tq * se
}

// StudentTQuantile returns the p-quantile of Student's t distribution
// with nu degrees of freedom, via the inverse regularized incomplete
// beta function (the t CDF satisfies
// P(T <= t) = 1 − I_{ν/(ν+t²)}(ν/2, 1/2)/2 for t >= 0).
func StudentTQuantile(p, nu float64) float64 {
	if nu <= 0 || math.IsNaN(p) {
		return math.NaN()
	}
	if p == 0.5 {
		return 0
	}
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	sign := 1.0
	if p < 0.5 {
		sign = -1
		p = 1 - p
	}
	// For the upper half: 2(1-p) = I_x(ν/2, 1/2) with x = ν/(ν+t²).
	x := InvRegIncBeta(2*(1-p), nu/2, 0.5)
	if x <= 0 {
		return math.Inf(1) * sign
	}
	return sign * math.Sqrt(nu*(1-x)/x)
}

// NormalQuantile returns the p-quantile of the standard normal.
func NormalQuantile(p float64) float64 {
	return math.Sqrt2 * ErfInv(2*p-1)
}

// NormalCDF returns the standard normal CDF at x.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}
