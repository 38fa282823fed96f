package stat

import "math"

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
// before the first sample.
//
// From one sample to the next the thresholds move by at most one: a
// failure only lowers the posterior, so acceptAt never falls and a
// success lifts rejectAt by at most one count. Row i's ⊤ search therefore
// climbs from row i−1's threshold and its ⊥ search descends from one
// above row i−1's (row 1 starts from the extremes), each stopping at the
// first count where its predicate flips: one or two probes per threshold
// instead of the ≈ log₂ i of a fresh binary search. A probe reads one
// tail mass at ½ and inverts no quantile outside a narrow band (see
// accepts), so the table costs O(n) incomplete-beta evaluations. The
// terminal intervals an evaluation reports are not part of the table:
// the caller computes each from Beta.CredibleInterval when it is first
// read.
func SequentialBounds(alpha, beta, c float64, n int) (acceptAt, rejectAt []int) {
	acceptAt, rejectAt, _ = sequentialBounds(alpha, beta, c, n)
	return acceptAt, rejectAt
}

// sequentialBounds is SequentialBounds that also reports how many probes
// fell back to the quantile comparison.
func sequentialBounds(alpha, beta, c float64, n int) (acceptAt, rejectAt []int, fallbacks int) {
	acceptAt = make([]int, n+1)
	rejectAt = make([]int, n+1)
	acceptAt[0], rejectAt[0] = 1, -1
	p := probe{c: c, tail: (1 - c) / 2}
	a, r := 0, 1 // where row 1's walks start
	for i := 1; i <= n; i++ {
		post := func(s int) Beta { return Beta{Alpha: alpha + float64(s), Beta: beta + float64(i-s)} }
		for a <= i && !p.accepts(post(a)) {
			a++
		}
		acceptAt[i] = a // i+1, the sentinel, when no count accepts
		for r >= 0 && !p.rejects(post(r)) {
			r--
		}
		rejectAt[i] = r // −1, the sentinel, when no count rejects
		r++
	}
	return acceptAt, rejectAt, p.fallbacks
}

// probeRel and probeAbs size the band around t = (1−c)/2 inside which a
// probe falls back to the quantile comparison; see accepts.
const (
	probeRel = 1e-9
	probeAbs = 1e-14
)

// probe decides Alg. 1's two predicates at one posterior for credibility
// c, counting the decisions that needed a quantile inversion.
type probe struct {
	c, tail   float64
	fallbacks int
}

// accepts reports whether CredibleInterval(c)'s lower end exceeds ½. The
// lower end is the t-quantile, t = (1−c)/2, and the CDF F is continuous
// and increasing, so it exceeds ½ iff F(½) = I_½(a, b) < t: one
// incomplete-beta evaluation instead of a quantile inversion.
//
// The table must reproduce the quantile comparison bit for bit, and the
// two sides of that equivalence round differently, so F(½) decides only
// outside the band |F(½) − t| ≤ t·probeRel·(1 + (a+b)/5000) + probeAbs.
// Both sides evaluate regIncBeta on the same shapes, and its largest
// errors shift both alike: LogBeta(a, b) is the same value in both, and
// the continued fraction's truncation is smooth in x. What differs:
//   - the prefactor a·ln x + b·ln(1−x), formed at ½ and at the quantile:
//     a few ulps of (a+b)·ln 2, ≲ 3e-16·(a+b) relative to F;
//   - the quantile's stopping rule, a last step below 5e-15 near ½: a
//     bisecting last step may leave x that far off the root, and F′/F ≤
//     2(a+b) in the tail at ½, so ≲ 1e-14·(a+b) relative; the closed
//     forms of Beta(a, 1) and Beta(1, b) stay within a few ulps of x,
//     ≲ 4e-16·(a+b);
//   - the ulps of 1 lost where a value is formed as 1 − y (the p = 1 − t
//     the upper end inverts, regIncBeta's reflected branch, the Beta(1, b)
//     closed form): ≤ 7e-16 absolute together.
//
// The band's relative part, 1e-9 + 2e-13·(a+b), exceeds the relative sum
// eighteenfold at every shape scale, and probeAbs the absolute sum
// fourteenfold. With no band at all, the two decisions agreed on every
// probe near the thresholds of tables up to N = 10⁷; with it, a few of
// the ≈ 3 000 probes of an N = 1000 table invert a quantile.
//
// The small tail is read directly, never as 1 − F, whose complement
// loses relative accuracy exactly where t is small. A credibility
// outside (0, 1), where CredibleInterval inverts nothing, and shapes
// regIncBeta refuses (NaN) fall through to the comparison too.
func (p *probe) accepts(d Beta) bool {
	if below, clear := p.below(RegIncBeta(0.5, d.Alpha, d.Beta), d); clear {
		return below
	}
	p.fallbacks++
	return d.credibleLower(p.c) > 0.5
}

// rejects reports whether CredibleInterval(c)'s upper end falls below ½:
// by I_x(a, b) = 1 − I_{1−x}(b, a), iff the upper tail I_½(b, a) < t,
// decided as in accepts.
func (p *probe) rejects(d Beta) bool {
	if below, clear := p.below(RegIncBeta(0.5, d.Beta, d.Alpha), d); clear {
		return below
	}
	p.fallbacks++
	return d.credibleUpper(p.c) < 0.5
}

// below reports whether the tail mass f of posterior d lies below t, and
// whether f lies clear of the band, where that answer is the quantile
// comparison's (see accepts).
func (p *probe) below(f float64, d Beta) (below, clear bool) {
	band := p.tail*probeRel*(1+(d.Alpha+d.Beta)/5000) + probeAbs
	return f < p.tail, p.c > 0 && p.c < 1 && math.Abs(f-p.tail) > band
}
