package core

import (
	"sync"
	"sync/atomic"

	"sound/internal/stat"
)

// decisionBounds holds the precomputed sequential-decision thresholds of
// Alg. 1 for one parameter set (see stat.SequentialBounds): after i
// samples with s satisfied, the evaluator concludes ⊤ iff
// s ≥ acceptAt[i] and ⊥ iff s ≤ rejectAt[i]. This turns the per-sample
// decision rule from a Beta quantile bisection into two integer
// comparisons.
type decisionBounds struct {
	acceptAt, rejectAt []int
	// Terminal credible intervals, precomputed so concluding a window
	// needs no quantile work at all. With CheckInterval = 1 the satisfied
	// count sits exactly on the boundary when the rule first fires, so
	// acceptCI[i]/rejectCI[i] cover early stops and exhaustCI[s] covers
	// running out of budget at sample N; larger check intervals or a
	// burn-in can overshoot the boundary and fall back to a direct
	// computation. Entries at sentinel boundaries stay zero and are never
	// read.
	acceptCI, rejectCI, exhaustCI [][2]float64
	// priorLower/priorUpper is the prior's credible interval, reported
	// for windows with no data.
	priorLower, priorUpper float64
}

// decide applies the decision rule of Alg. 1 after idx samples with cs
// satisfied: Inconclusive when idx is not a scheduled check (inside the
// MinSamples burn-in, or off the CheckInterval grid and not the budget
// edge) or the count sits strictly between the two boundaries. Every
// sampling loop — scalar, block and shared — decides through this one
// test, so they cannot disagree on where a trajectory stops.
func (b *decisionBounds) decide(cs, idx, minS, ci, maxS int) Outcome {
	if idx < minS || (ci != 1 && idx%ci != 0 && idx != maxS) {
		return Inconclusive
	}
	if cs >= b.acceptAt[idx] {
		return Satisfied
	}
	if cs <= b.rejectAt[idx] {
		return Violated
	}
	return Inconclusive
}

// replayConstant runs the decision schedule for a constraint whose
// verdict sat is the same on every sample (point resampling of an
// all-certain window draws the raw values each time and consumes no
// randomness): the sampling loop at O(1) per sample. It returns the
// outcome, the stopping index and the satisfied count there.
func (b *decisionBounds) replayConstant(sat bool, minS, ci, maxS int) (o Outcome, samples, cs int) {
	for samples < maxS && o == Inconclusive {
		samples++
		if sat {
			cs = samples
		}
		o = b.decide(cs, samples, minS, ci, maxS)
	}
	return o, samples, cs
}

// nextDecision returns the earliest scheduled check index j in (i, maxS]
// at which the decision rule could still fire given cs satisfied of the
// first i samples: accepting requires cs + (j-i) >= acceptAt[j] even if
// every remaining draw satisfies the constraint, rejecting requires
// cs <= rejectAt[j] even if none does. A return of 0 means no future
// check can conclude. Both slack bounds are monotone along the actual
// trajectory — advancing (cs, i) by real draws never makes an
// undecidable check decidable — so callers that hit 0 may exhaust the
// sampling budget without re-scanning, and the block evaluator
// (kernel.go) may draw straight to j knowing no interior check of the
// scalar loop could have fired.
func (b *decisionBounds) nextDecision(cs, i, minS, ci, maxS int) int {
	j := i + 1
	if j < minS {
		j = minS
	}
	if j > maxS {
		return 0
	}
	if ci > 1 {
		// Scheduled checks are the multiples of ci plus maxS itself, so
		// step straight between them instead of scanning every index —
		// with a coarse interval (e.g. a fixed-budget ci = maxS) the
		// scan cost would otherwise rival the draws it schedules.
		k := j + (ci - 1) - (j+ci-1)%ci
		for ; k <= maxS; k += ci {
			if cs+(k-i) >= b.acceptAt[k] || cs <= b.rejectAt[k] {
				return k
			}
		}
		if maxS%ci != 0 {
			if cs+(maxS-i) >= b.acceptAt[maxS] || cs <= b.rejectAt[maxS] {
				return maxS
			}
		}
		return 0
	}
	for ; j <= maxS; j++ {
		if cs+(j-i) >= b.acceptAt[j] || cs <= b.rejectAt[j] {
			return j
		}
	}
	return 0
}

// The boundary table depends only on (prior, credibility, N), so it is
// shared process-wide: sequential evaluators, EvaluateAllParallel
// workers, and stream checkers with the same Params all reuse one table.
type boundsKey struct {
	alpha, beta, cred float64
	maxSamples        int
}

var (
	boundsCache sync.Map // boundsKey → *decisionBounds
	boundsCount atomic.Int64
)

// boundsCacheLimit bounds cache growth for adversarial parameter churn;
// real deployments use a handful of parameter sets.
const boundsCacheLimit = 1024

// boundsFor returns the shared decision table for normalized params,
// computing and caching it on first use. Concurrent first uses may
// compute the table redundantly; the result is identical either way.
func boundsFor(p Params) *decisionBounds {
	key := boundsKey{alpha: p.PriorAlpha, beta: p.PriorBeta, cred: p.Credibility, maxSamples: p.MaxSamples}
	if v, ok := boundsCache.Load(key); ok {
		return v.(*decisionBounds)
	}
	accept, reject := stat.SequentialBounds(p.PriorAlpha, p.PriorBeta, p.Credibility, p.MaxSamples)
	b := &decisionBounds{
		acceptAt:  accept,
		rejectAt:  reject,
		acceptCI:  make([][2]float64, p.MaxSamples+1),
		rejectCI:  make([][2]float64, p.MaxSamples+1),
		exhaustCI: make([][2]float64, p.MaxSamples+1),
	}
	ci := func(s, i int) [2]float64 {
		lo, hi := stat.Beta{Alpha: p.PriorAlpha + float64(s), Beta: p.PriorBeta + float64(i-s)}.CredibleInterval(p.Credibility)
		return [2]float64{lo, hi}
	}
	b.priorLower, b.priorUpper = stat.Beta{Alpha: p.PriorAlpha, Beta: p.PriorBeta}.CredibleInterval(p.Credibility)
	for i := 1; i <= p.MaxSamples; i++ {
		if accept[i] <= i {
			b.acceptCI[i] = ci(accept[i], i)
		}
		if reject[i] >= 0 {
			b.rejectCI[i] = ci(reject[i], i)
		}
	}
	for s := 0; s <= p.MaxSamples; s++ {
		b.exhaustCI[s] = ci(s, p.MaxSamples)
	}
	if boundsCount.Load() >= boundsCacheLimit {
		return b
	}
	if v, loaded := boundsCache.LoadOrStore(key, b); loaded {
		return v.(*decisionBounds)
	}
	boundsCount.Add(1)
	return b
}
