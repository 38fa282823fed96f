package stat

import (
	"fmt"
	"sort"
	"testing"
)

// sequentialBoundsSearch is SequentialBounds as first written: a fresh
// sort.Search over s ∈ [0, i] per threshold, every probe a full two-sided
// CredibleInterval. It is the oracle the CDF-probing walks must match
// threshold for threshold.
func sequentialBoundsSearch(alpha, beta, c float64, n int) (acceptAt, rejectAt []int) {
	acceptAt = make([]int, n+1)
	rejectAt = make([]int, n+1)
	acceptAt[0], rejectAt[0] = 1, -1
	for i := 1; i <= n; i++ {
		acceptAt[i] = sort.Search(i+1, func(s int) bool {
			lower, _ := Beta{Alpha: alpha + float64(s), Beta: beta + float64(i-s)}.CredibleInterval(c)
			return lower > 0.5
		})
		if acceptAt[i] > i {
			acceptAt[i] = i + 1 // sentinel: unreachable count
		}
		rejectAt[i] = sort.Search(i+1, func(s int) bool {
			_, upper := Beta{Alpha: alpha + float64(s), Beta: beta + float64(i-s)}.CredibleInterval(c)
			return !(upper < 0.5)
		}) - 1
	}
	return acceptAt, rejectAt
}

// boundsCase is one decision table's parameter set.
type boundsCase struct {
	alpha, beta, cred float64
	n                 int
}

func (tc boundsCase) String() string {
	return fmt.Sprintf("α=%g β=%g c=%g n=%d", tc.alpha, tc.beta, tc.cred, tc.n)
}

// boundsPriors are the priors the table tests share: flat, Jeffreys,
// mild, pessimistic and optimistic, and two near-degenerate ones that
// put almost all prior mass at one end.
var boundsPriors = [][2]float64{{1, 1}, {0.5, 0.5}, {2, 3}, {1, 5}, {7, 1}, {0.01, 19.9}, {19.9, 0.01}}

// largeTables are the N = 1000 tables of the benchmark's borderline
// workload, at every credibility down to 1 − 10⁻⁶, for the flat prior and
// the two near-degenerate ones.
func largeTables() []boundsCase {
	var cases []boundsCase
	for _, c := range []float64{0.8, 0.9, 0.95, 0.99, 0.999, 0.999999} {
		for _, pr := range [][2]float64{{1, 1}, {0.01, 19.9}, {19.9, 0.01}} {
			cases = append(cases, boundsCase{pr[0], pr[1], c, 1000})
		}
	}
	return cases
}

// boundsGrid is the parameter grid the parity and structure tests share:
// every budget × credibility × prior, plus largeTables.
func boundsGrid() []boundsCase {
	var grid []boundsCase
	for _, n := range []int{1, 2, 3, 10, 25, 60, 100, 200} {
		for _, c := range []float64{0.5, 0.8, 0.9, 0.95, 0.99, 0.999} {
			for _, pr := range boundsPriors {
				grid = append(grid, boundsCase{pr[0], pr[1], c, n})
			}
		}
	}
	return append(grid, largeTables()...)
}

// probes counts the probes the hinted walks of SequentialBounds make to
// find the thresholds accept and reject: row i's ⊤ walk probes every
// count from row i−1's threshold up to its own, and its ⊥ walk every count
// from one above row i−1's down to its own, a sentinel not included.
func probes(accept, reject []int) int {
	k := 0
	for i := 1; i < len(accept); i++ {
		a0, r0 := 0, 1
		if i > 1 {
			a0, r0 = accept[i-1], reject[i-1]+1
		}
		k += accept[i] - a0 + r0 - reject[i]
		if accept[i] <= i {
			k++
		}
		if reject[i] >= 0 {
			k++
		}
	}
	return k
}

// checkAgainstOracle reports the first threshold where SequentialBounds
// and the sort.Search oracle disagree, and returns how many probes the
// build made and how many of them fell back to the quantile comparison.
func checkAgainstOracle(t *testing.T, tc boundsCase) (probed, fallbacks int) {
	t.Helper()
	accept, reject, fallbacks := sequentialBounds(tc.alpha, tc.beta, tc.cred, tc.n)
	wantAccept, wantReject := sequentialBoundsSearch(tc.alpha, tc.beta, tc.cred, tc.n)
	if len(accept) != tc.n+1 || len(reject) != tc.n+1 {
		t.Fatalf("%v: table lengths %d/%d, want %d", tc, len(accept), len(reject), tc.n+1)
	}
	for i := 0; i <= tc.n; i++ {
		if accept[i] != wantAccept[i] || reject[i] != wantReject[i] {
			t.Fatalf("%v i=%d: thresholds (accept %d, reject %d), oracle (%d, %d)",
				tc, i, accept[i], reject[i], wantAccept[i], wantReject[i])
		}
	}
	return probes(accept, reject), fallbacks
}

// TestSequentialBoundsMatchSearchOracle pins the CDF-probing walks to the
// quantile-based sort.Search construction they replaced, threshold for
// threshold, over the whole grid, and logs how many probes fell back to
// a quantile comparison.
func TestSequentialBoundsMatchSearchOracle(t *testing.T) {
	var probed, fell int
	for _, tc := range boundsGrid() {
		p, f := checkAgainstOracle(t, tc)
		probed, fell = probed+p, fell+f
	}
	t.Logf("%d of %d probes fell back to the quantile comparison", fell, probed)
}

// TestSequentialBoundsMatchDirectRule checks that the precomputed
// thresholds reproduce the direct credible-interval rule: conclude ⊤ iff
// the interval's lower bound exceeds 0.5 and ⊥ iff its upper bound falls
// below 0.5. At n = 120 it visits every reachable (s, i) state; on
// largeTables it visits every row at the three counts on either side of
// each threshold, where a probe's rounding could move it. Several priors
// and credibilities cover symmetric, optimistic, pessimistic, diffuse and
// near-degenerate cases.
func TestSequentialBoundsMatchDirectRule(t *testing.T) {
	var cases []boundsCase
	for _, tc := range []struct {
		alpha, beta, cred float64
	}{
		{1, 1, 0.95},
		{1, 1, 0.99},
		{1, 1, 0.5},
		{2, 5, 0.95},
		{5, 2, 0.9},
		{0.5, 0.5, 0.95},
		{10, 10, 0.999},
		{0.01, 19.9, 0.95},
		{19.9, 0.01, 0.95},
	} {
		cases = append(cases, boundsCase{tc.alpha, tc.beta, tc.cred, 120})
	}
	cases = append(cases, largeTables()...)
	for _, tc := range cases {
		accept, reject := SequentialBounds(tc.alpha, tc.beta, tc.cred, tc.n)
		if len(accept) != tc.n+1 || len(reject) != tc.n+1 {
			t.Fatalf("%v: table lengths %d/%d, want %d", tc, len(accept), len(reject), tc.n+1)
		}
		if accept[0] != 1 || reject[0] != -1 {
			t.Errorf("%v: index 0 = (%d, %d), want sentinels (1, -1)", tc, accept[0], reject[0])
		}
		for i := 1; i <= tc.n; i++ {
			for s := 0; s <= i; s++ {
				near := s-accept[i] >= -3 && s-accept[i] < 3 || s-reject[i] > -3 && s-reject[i] <= 3
				if tc.n > 120 && !near {
					continue
				}
				lower, upper := Beta{Alpha: tc.alpha + float64(s), Beta: tc.beta + float64(i-s)}.CredibleInterval(tc.cred)
				wantAccept := lower > 0.5
				wantReject := upper < 0.5
				if got := s >= accept[i]; got != wantAccept {
					t.Fatalf("%v s=%d i=%d: table accept=%v, direct rule=%v (lower=%g)", tc, s, i, got, wantAccept, lower)
				}
				if got := s <= reject[i]; got != wantReject {
					t.Fatalf("%v s=%d i=%d: table reject=%v, direct rule=%v (upper=%g)", tc, s, i, got, wantReject, upper)
				}
			}
		}
	}
}

// TestSequentialBoundsMonotone verifies, over the whole grid, the
// structural properties the evaluator's terminal-CI shortcut and the
// hinted searches rely on: thresholds never move by more than one per
// sample, and the accept/reject regions never overlap. Row 0 holds
// sentinels, not thresholds of the rule — a strong prior can conclude at
// the first sample whatever it shows — so moves are checked from row 1
// to row 2 on.
func TestSequentialBoundsMonotone(t *testing.T) {
	for _, tc := range boundsGrid() {
		accept, reject := SequentialBounds(tc.alpha, tc.beta, tc.cred, tc.n)
		for i := 1; i <= tc.n; i++ {
			if reject[i] >= accept[i] {
				t.Errorf("%v: overlapping decisions at i=%d: reject=%d accept=%d", tc, i, reject[i], accept[i])
			}
			if i == 1 {
				continue
			}
			if d := accept[i] - accept[i-1]; d < 0 || d > 1 {
				t.Errorf("%v: acceptAt moved by %d at i=%d", tc, d, i)
			}
			if d := reject[i] - reject[i-1]; d < 0 || d > 1 {
				t.Errorf("%v: rejectAt moved by %d at i=%d", tc, d, i)
			}
		}
	}
}
