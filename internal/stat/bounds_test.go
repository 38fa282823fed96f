package stat

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

// sequentialBoundsSearch is SequentialBounds as first written: a fresh
// sort.Search over s ∈ [0, i] per threshold, every probe a full two-sided
// CredibleInterval. It is the oracle the hinted one-sided search must
// match threshold for threshold.
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

// boundsGrid is the parameter grid the parity and structure tests share:
// every budget × credibility × prior, plus the N = 1000 tables of the
// benchmark's borderline workload at the flat prior.
func boundsGrid() []boundsCase {
	var grid []boundsCase
	for _, n := range []int{1, 2, 3, 10, 25, 60, 100, 200} {
		for _, c := range []float64{0.5, 0.8, 0.9, 0.95, 0.99, 0.999} {
			for _, pr := range [][2]float64{{1, 1}, {0.5, 0.5}, {2, 3}, {1, 5}, {7, 1}} {
				grid = append(grid, boundsCase{pr[0], pr[1], c, n})
			}
		}
	}
	return append(grid, boundsCase{1, 1, 0.95, 1000}, boundsCase{1, 1, 0.99, 1000})
}

// checkAgainstOracle reports the first threshold where SequentialBounds
// and the sort.Search oracle disagree, and the first terminal interval
// that differs from CredibleInterval at its boundary count.
func checkAgainstOracle(t *testing.T, tc boundsCase) {
	t.Helper()
	accept, reject, acceptCI, rejectCI := SequentialBounds(tc.alpha, tc.beta, tc.cred, tc.n)
	wantAccept, wantReject := sequentialBoundsSearch(tc.alpha, tc.beta, tc.cred, tc.n)
	if len(accept) != tc.n+1 || len(reject) != tc.n+1 || len(acceptCI) != tc.n+1 || len(rejectCI) != tc.n+1 {
		t.Fatalf("%v: table lengths %d/%d/%d/%d, want %d", tc, len(accept), len(reject), len(acceptCI), len(rejectCI), tc.n+1)
	}
	ci := func(s, i int) [2]float64 {
		lo, hi := Beta{Alpha: tc.alpha + float64(s), Beta: tc.beta + float64(i-s)}.CredibleInterval(tc.cred)
		return [2]float64{lo, hi}
	}
	same := func(a, b [2]float64) bool {
		return math.Float64bits(a[0]) == math.Float64bits(b[0]) && math.Float64bits(a[1]) == math.Float64bits(b[1])
	}
	for i := 0; i <= tc.n; i++ {
		if accept[i] != wantAccept[i] || reject[i] != wantReject[i] {
			t.Fatalf("%v i=%d: thresholds (accept %d, reject %d), oracle (%d, %d)",
				tc, i, accept[i], reject[i], wantAccept[i], wantReject[i])
		}
		var want [2]float64
		if i > 0 && accept[i] <= i {
			want = ci(accept[i], i)
		}
		if !same(acceptCI[i], want) {
			t.Fatalf("%v i=%d: acceptCI %v, CredibleInterval at s=%d %v", tc, i, acceptCI[i], accept[i], want)
		}
		want = [2]float64{}
		if i > 0 && reject[i] >= 0 {
			want = ci(reject[i], i)
		}
		if !same(rejectCI[i], want) {
			t.Fatalf("%v i=%d: rejectCI %v, CredibleInterval at s=%d %v", tc, i, rejectCI[i], reject[i], want)
		}
	}
}

// TestSequentialBoundsMatchSearchOracle pins the hinted one-sided search
// to the sort.Search construction it replaced, threshold for threshold,
// and its terminal intervals to CredibleInterval bit for bit, over the
// whole grid.
func TestSequentialBoundsMatchSearchOracle(t *testing.T) {
	for _, tc := range boundsGrid() {
		checkAgainstOracle(t, tc)
	}
}

// TestSequentialBoundsMatchDirectRule checks, exhaustively over every
// reachable (s, i) state with i ≤ n, that the precomputed thresholds
// reproduce the direct credible-interval rule: conclude ⊤ iff the
// interval's lower bound exceeds 0.5 and ⊥ iff its upper bound falls
// below 0.5. Several priors and credibilities cover symmetric,
// optimistic, pessimistic, and diffuse cases.
func TestSequentialBoundsMatchDirectRule(t *testing.T) {
	cases := []struct {
		alpha, beta, cred float64
	}{
		{1, 1, 0.95},
		{1, 1, 0.99},
		{1, 1, 0.5},
		{2, 5, 0.95},
		{5, 2, 0.9},
		{0.5, 0.5, 0.95},
		{10, 10, 0.999},
	}
	const n = 120
	for _, tc := range cases {
		accept, reject, _, _ := SequentialBounds(tc.alpha, tc.beta, tc.cred, n)
		if len(accept) != n+1 || len(reject) != n+1 {
			t.Fatalf("α=%g β=%g c=%g: table lengths %d/%d, want %d", tc.alpha, tc.beta, tc.cred, len(accept), len(reject), n+1)
		}
		if accept[0] != 1 || reject[0] != -1 {
			t.Errorf("α=%g β=%g c=%g: index 0 = (%d, %d), want sentinels (1, -1)", tc.alpha, tc.beta, tc.cred, accept[0], reject[0])
		}
		for i := 1; i <= n; i++ {
			for s := 0; s <= i; s++ {
				lower, upper := Beta{Alpha: tc.alpha + float64(s), Beta: tc.beta + float64(i-s)}.CredibleInterval(tc.cred)
				wantAccept := lower > 0.5
				wantReject := upper < 0.5
				if got := s >= accept[i]; got != wantAccept {
					t.Fatalf("α=%g β=%g c=%g s=%d i=%d: table accept=%v, direct rule=%v (lower=%g)",
						tc.alpha, tc.beta, tc.cred, s, i, got, wantAccept, lower)
				}
				if got := s <= reject[i]; got != wantReject {
					t.Fatalf("α=%g β=%g c=%g s=%d i=%d: table reject=%v, direct rule=%v (upper=%g)",
						tc.alpha, tc.beta, tc.cred, s, i, got, wantReject, upper)
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
		accept, reject, _, _ := SequentialBounds(tc.alpha, tc.beta, tc.cred, tc.n)
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
