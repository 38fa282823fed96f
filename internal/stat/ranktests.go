package stat

import (
	"math"
	"sort"
)

// MWUResult holds the outcome of a two-sample Mann–Whitney U test.
type MWUResult struct {
	U      float64 // U statistic of the first sample
	PValue float64 // two-sided p-value (normal approximation, tie-corrected)
}

// MannWhitneyU performs the two-sided Mann–Whitney U test (Wilcoxon
// rank-sum) on x and y: a non-parametric test for a location shift
// between two samples. SOUND offers it as an alternative change
// constraint to the default Kolmogorov–Smirnov test — it is more
// sensitive to median shifts and less sensitive to dispersion changes.
//
// The p-value uses the normal approximation with tie correction and
// continuity correction, accurate for n, m ≳ 8. Empty inputs yield
// PValue 1 (no evidence of change).
func MannWhitneyU(x, y []float64) MWUResult {
	n, m := len(x), len(y)
	if n == 0 || m == 0 {
		return MWUResult{U: 0, PValue: 1}
	}
	// Rank the pooled sample with mid-rank ties.
	pooled := make([]float64, 0, n+m)
	pooled = append(pooled, x...)
	pooled = append(pooled, y...)
	ranks := Ranks(pooled)

	// Rank sum of the first sample.
	var r1 float64
	for i := 0; i < n; i++ {
		r1 += ranks[i]
	}
	u1 := r1 - float64(n)*float64(n+1)/2

	// Tie correction factor.
	sorted := make([]float64, len(pooled))
	copy(sorted, pooled)
	sort.Float64s(sorted)
	tieSum := 0.0
	for i := 0; i < len(sorted); {
		j := i
		for j+1 < len(sorted) && sorted[j+1] == sorted[i] {
			j++
		}
		t := float64(j - i + 1)
		if t > 1 {
			tieSum += t*t*t - t
		}
		i = j + 1
	}
	N := float64(n + m)
	mu := float64(n) * float64(m) / 2
	sigma2 := float64(n) * float64(m) / 12 * ((N + 1) - tieSum/(N*(N-1)))
	if sigma2 <= 0 {
		// All values tied: no evidence of any difference.
		return MWUResult{U: u1, PValue: 1}
	}
	z := (math.Abs(u1-mu) - 0.5) / math.Sqrt(sigma2)
	if z < 0 {
		z = 0
	}
	p := 2 * (1 - NormalCDF(z))
	if p > 1 {
		p = 1
	}
	return MWUResult{U: u1, PValue: p}
}

// Wasserstein1 returns the first Wasserstein (earth mover's) distance
// between the empirical distributions of x and y: the integral of the
// absolute difference of their quantile functions. It is offered as a
// magnitude-aware change metric — unlike KS it grows with *how far* the
// distributions moved, not only whether they moved. NaN for empty input.
func Wasserstein1(x, y []float64) float64 {
	if len(x) == 0 || len(y) == 0 {
		return math.NaN()
	}
	xs := make([]float64, len(x))
	copy(xs, x)
	sort.Float64s(xs)
	ys := make([]float64, len(y))
	copy(ys, y)
	sort.Float64s(ys)

	// Merge the CDF breakpoints of both samples.
	n, m := len(xs), len(ys)
	i, j := 0, 0
	var dist float64
	prev := math.Min(xs[0], ys[0])
	for i < n || j < m {
		var cur float64
		switch {
		case i >= n:
			cur = ys[j]
		case j >= m:
			cur = xs[i]
		default:
			cur = math.Min(xs[i], ys[j])
		}
		fx := float64(i) / float64(n)
		fy := float64(j) / float64(m)
		// A segment where the CDFs agree carries no mass; skipping it
		// also keeps 0·(+Inf) = NaN out of the sum when cur − prev
		// overflows (samples spanning ±MaxFloat64).
		if w := math.Abs(fx - fy); w != 0 {
			dist += w * (cur - prev)
		}
		prev = cur
		for i < n && xs[i] == cur {
			i++
		}
		for j < m && ys[j] == cur {
			j++
		}
	}
	return dist
}
