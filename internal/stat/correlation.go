package stat

import "math"

// Pearson returns the Pearson correlation coefficient of the paired
// samples x and y. It returns NaN when the lengths differ, fewer than two
// pairs are given, or either sample has zero variance.
//
// It is the correlation measure of the "linear correlations" constraint
// template (paper §IV-C) and of check A-4.
func Pearson(x, y []float64) float64 {
	n := len(x)
	if n != len(y) || n < 2 {
		return math.NaN()
	}
	// Both passes run four independent partial sums so the serial
	// float-add latency chains overlap; Alg. 1 calls Pearson once per
	// resample, which makes it the hottest statistic in the evaluator.
	// The combine order differs from a left-to-right sum by ulps, which
	// the correlation contract absorbs (no caller compares r exactly).
	var m0, m1, m2, m3, w0, w1, w2, w3 float64
	i := 0
	for ; i+3 < n; i += 4 {
		m0 += x[i]
		m1 += x[i+1]
		m2 += x[i+2]
		m3 += x[i+3]
		w0 += y[i]
		w1 += y[i+1]
		w2 += y[i+2]
		w3 += y[i+3]
	}
	for ; i < n; i++ {
		m0 += x[i]
		w0 += y[i]
	}
	mx := ((m0 + m1) + (m2 + m3)) / float64(n)
	my := ((w0 + w1) + (w2 + w3)) / float64(n)
	var sxy0, sxy1, sxx0, sxx1, syy0, syy1 float64
	i = 0
	for ; i+1 < n; i += 2 {
		dx0, dy0 := x[i]-mx, y[i]-my
		dx1, dy1 := x[i+1]-mx, y[i+1]-my
		sxy0 += dx0 * dy0
		sxy1 += dx1 * dy1
		sxx0 += dx0 * dx0
		sxx1 += dx1 * dx1
		syy0 += dy0 * dy0
		syy1 += dy1 * dy1
	}
	if i < n {
		dx, dy := x[i]-mx, y[i]-my
		sxy0 += dx * dy
		sxx0 += dx * dx
		syy0 += dy * dy
	}
	sxy, sxx, syy := sxy0+sxy1, sxx0+sxx1, syy0+syy1
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// RSquared returns the coefficient of determination of predictions pred
// against ground truth obs:
//
//	R² = 1 − Σ(obs−pred)² / Σ(obs−mean(obs))²
//
// It implements the "explained variances" template (paper §IV-C). It
// returns NaN when lengths differ, the sample is empty, or the ground
// truth has zero variance (residual comparison is meaningless then).
// R² may be negative when predictions are worse than the mean predictor.
func RSquared(obs, pred []float64) float64 {
	n := len(obs)
	if n != len(pred) || n == 0 {
		return math.NaN()
	}
	m := Mean(obs)
	var ssRes, ssTot float64
	for i := 0; i < n; i++ {
		r := obs[i] - pred[i]
		d := obs[i] - m
		ssRes += r * r
		ssTot += d * d
	}
	if ssTot == 0 {
		return math.NaN()
	}
	return 1 - ssRes/ssTot
}

// Ranks returns 1-based ranks of xs with ties assigned mid-ranks.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// insertion-free sort of indices by value
	quickSortIdx(xs, idx)
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		mid := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = mid
		}
		i = j + 1
	}
	return ranks
}

func quickSortIdx(vals []float64, idx []int) {
	if len(idx) < 2 {
		return
	}
	// median-of-three pivot on values
	lo, hi := 0, len(idx)-1
	mid := lo + (hi-lo)/2
	if vals[idx[mid]] < vals[idx[lo]] {
		idx[mid], idx[lo] = idx[lo], idx[mid]
	}
	if vals[idx[hi]] < vals[idx[lo]] {
		idx[hi], idx[lo] = idx[lo], idx[hi]
	}
	if vals[idx[hi]] < vals[idx[mid]] {
		idx[hi], idx[mid] = idx[mid], idx[hi]
	}
	pivot := vals[idx[mid]]
	i, j := lo, hi
	for i <= j {
		for vals[idx[i]] < pivot {
			i++
		}
		for vals[idx[j]] > pivot {
			j--
		}
		if i <= j {
			idx[i], idx[j] = idx[j], idx[i]
			i++
			j--
		}
	}
	quickSortIdx(vals, idx[:j+1])
	quickSortIdx(vals, idx[i:])
}
