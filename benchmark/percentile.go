package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the sample rule: a percentile is reported only when at
// least this many samples lie beyond it, so p99 needs 1000 samples.
const minBeyond = 10

// percentile returns the q-th percentile (0 < q < 100) of sorted, by the
// nearest-rank rule. It refuses — rather than printing a number that is
// really one or two outliers — when fewer than minBeyond samples lie
// beyond the percentile.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	// The epsilon keeps q/100·n from landing a hair above a whole number
	// (99.9 % of 10000 is 9990, not 9990.000000000002).
	rank := int(math.Ceil(q/100*float64(n) - 1e-9))
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples (%d beyond it), have %d", q, int(math.Ceil(minBeyond*100/(100-q)-1e-9)), minBeyond, n)
	}
	return sorted[rank-1], nil
}

// tailLadder are the percentiles highestPercentile chooses from.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// highestPercentile reports the highest ladder percentile the sample
// supports, its value, and the sample count to print beside it.
func highestPercentile(sorted []float64) (q, value float64, n int, err error) {
	n = len(sorted)
	for i := len(tailLadder) - 1; i >= 0; i-- {
		if v, err := percentile(sorted, tailLadder[i]); err == nil {
			return tailLadder[i], v, n, nil
		}
	}
	return 0, 0, n, fmt.Errorf("%d samples support no percentile (p50 needs %d)", n, 2*minBeyond)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of an unsorted sample.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
