package stat

// SequentialBounds precomputes the decision boundaries of SOUND's
// sequential credible-interval rule (paper Alg. 1) for a Beta(alpha,
// beta) prior, credibility level c, and sample budget n.
//
// After i samples with s satisfied, Alg. 1 concludes ⊤ when the lower
// bound of the equal-tailed credible interval of Beta(alpha+s,
// beta+i−s) exceeds 0.5 and ⊥ when the upper bound falls below 0.5.
// Both interval endpoints are strictly increasing in s for fixed i (one
// more success makes the posterior stochastically larger), so each
// decision region is a half-line in s and the whole rule collapses to
// two integer thresholds per i:
//
//	conclude ⊤  iff  s ≥ acceptAt[i]
//	conclude ⊥  iff  s ≤ rejectAt[i]
//
// acceptAt[i] is i+1 and rejectAt[i] is −1 when no count can conclude
// at i. Index 0 carries those sentinels too: Alg. 1 never decides
// before the first sample. acceptCI[i] and rejectCI[i] are the credible
// intervals at the boundary counts (acceptAt[i], i) and (rejectAt[i], i),
// the intervals an evaluation stopping on a boundary reports; they stay
// zero where the boundary is a sentinel.
//
// From one sample to the next the thresholds move by at most one: a
// failure only lowers the posterior, so acceptAt never falls and a
// success lifts rejectAt by at most one count. Row i's ⊤ search therefore
// climbs from row i−1's threshold and its ⊥ search descends from one
// above row i−1's (row 1 starts from the extremes), each stopping at the
// first count where its predicate flips — one or two quantile inversions
// per threshold instead of the ≈ log₂ i of a fresh binary search. A probe
// evaluates only the interval end its predicate reads, and each walk
// stops on a probe at the boundary count itself, so that probe's end is
// half of the boundary's terminal interval; only the other half costs a
// further inversion.
//
// The probes compute exactly the ends CredibleInterval returns, so the
// table reproduces the direct rule's decisions and intervals bit for bit.
func SequentialBounds(alpha, beta, c float64, n int) (acceptAt, rejectAt []int, acceptCI, rejectCI [][2]float64) {
	acceptAt = make([]int, n+1)
	rejectAt = make([]int, n+1)
	acceptCI = make([][2]float64, n+1)
	rejectCI = make([][2]float64, n+1)
	acceptAt[0], rejectAt[0] = 1, -1
	a, r := 0, 1 // where row 1's walks start
	for i := 1; i <= n; i++ {
		post := func(s int) Beta { return Beta{Alpha: alpha + float64(s), Beta: beta + float64(i-s)} }
		var lower float64
		for ; a <= i; a++ {
			if lower = post(a).credibleLower(c); lower > 0.5 {
				break
			}
		}
		acceptAt[i] = a // i+1, the sentinel, when no count accepts
		if a <= i {
			acceptCI[i] = [2]float64{lower, post(a).credibleUpper(c)}
		}
		var upper float64
		for ; r >= 0; r-- {
			if upper = post(r).credibleUpper(c); upper < 0.5 {
				break
			}
		}
		rejectAt[i] = r // −1, the sentinel, when no count rejects
		if r >= 0 {
			rejectCI[i] = [2]float64{post(r).credibleLower(c), upper}
		}
		r++
	}
	return acceptAt, rejectAt, acceptCI, rejectCI
}
