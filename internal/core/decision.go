package core

import (
	"math"
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
	// Terminal credible intervals, each computed the first time finish
	// reads it. With CheckInterval = 1 the satisfied count sits exactly on
	// the boundary when the rule first fires, so acceptCI[i]/rejectCI[i],
	// the intervals at (acceptAt[i], i) and (rejectAt[i], i), cover early
	// stops, and exhaustCI covers running out of budget at sample N;
	// larger check intervals or a burn-in can overshoot the boundary and
	// fall back to a direct computation. exhaustCI[k] is the interval at
	// count rejectAt[N]+1+k: only the counts strictly between the two
	// thresholds at N, the ones an Inconclusive stop at N can hold, have an
	// entry. Entries at sentinel boundaries are never read.
	acceptCI, rejectCI, exhaustCI []lazyCI
	// fill serializes first fills, so that a filled entry is written once.
	fill sync.Mutex
	// alpha, beta, cred are the prior and credibility the intervals are
	// computed at.
	alpha, beta, cred float64
	// priorLower/priorUpper is the prior's credible interval, reported
	// for windows with no data.
	priorLower, priorUpper float64
}

// lazyCI is one terminal credible interval, valid once ready is set.
type lazyCI struct {
	ready  atomic.Bool
	lo, hi float64
}

// acceptInterval, rejectInterval and exhaustInterval return the terminal
// intervals finish reports: at the ⊤ and ⊥ boundaries after n samples,
// and at count s after the budget's last sample n = N, with s strictly
// between that sample's thresholds.
func (b *decisionBounds) acceptInterval(n int) (lower, upper float64) {
	return b.interval(&b.acceptCI[n], b.acceptAt[n], n)
}

func (b *decisionBounds) rejectInterval(n int) (lower, upper float64) {
	return b.interval(&b.rejectCI[n], b.rejectAt[n], n)
}

func (b *decisionBounds) exhaustInterval(s, n int) (lower, upper float64) {
	return b.interval(&b.exhaustCI[s-b.rejectAt[n]-1], s, n)
}

// interval returns entry e, the credible interval of the posterior after
// s satisfied of n samples. A filled entry costs one atomic load; the
// first read computes it with Beta.CredibleInterval, so every reader sees
// the bits a direct computation gives. Concurrent first reads may each
// compute it, and only the first to take the lock stores it.
func (b *decisionBounds) interval(e *lazyCI, s, n int) (lower, upper float64) {
	if e.ready.Load() {
		return e.lo, e.hi
	}
	lower, upper = stat.Beta{Alpha: b.alpha + float64(s), Beta: b.beta + float64(n-s)}.CredibleInterval(b.cred)
	b.fill.Lock()
	if !e.ready.Load() {
		e.lo, e.hi = lower, upper
		e.ready.Store(true)
	}
	b.fill.Unlock()
	return lower, upper
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
// shared process-wide: batch workers, stream checkers and analyzers
// with the same Params all reuse one table. The float fields are keyed
// by their bits: a key of plain memory hashes in one pass, where float
// fields are hashed field by field on every CompilePlan.
type boundsKey struct {
	alpha, beta, cred uint64
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
// building and caching it on first use. Concurrent first uses may build
// the table redundantly; the result is identical either way.
func boundsFor(p Params) *decisionBounds {
	key := boundsKey{alpha: math.Float64bits(p.PriorAlpha), beta: math.Float64bits(p.PriorBeta),
		cred: math.Float64bits(p.Credibility), maxSamples: p.MaxSamples}
	if v, ok := boundsCache.Load(key); ok {
		return v.(*decisionBounds)
	}
	b := newDecisionBounds(p)
	if boundsCount.Load() >= boundsCacheLimit {
		return b
	}
	if v, loaded := boundsCache.LoadOrStore(key, b); loaded {
		return v.(*decisionBounds)
	}
	boundsCount.Add(1)
	return b
}

// newDecisionBounds builds the decision table for normalized params: the
// thresholds and the prior's interval, with every terminal interval left
// for its first read.
func newDecisionBounds(p Params) *decisionBounds {
	n := p.MaxSamples
	b := &decisionBounds{
		acceptCI: make([]lazyCI, n+1),
		rejectCI: make([]lazyCI, n+1),
		alpha:    p.PriorAlpha,
		beta:     p.PriorBeta,
		cred:     p.Credibility,
	}
	b.acceptAt, b.rejectAt = stat.SequentialBounds(p.PriorAlpha, p.PriorBeta, p.Credibility, n)
	b.priorLower, b.priorUpper = stat.Beta{Alpha: p.PriorAlpha, Beta: p.PriorBeta}.CredibleInterval(p.Credibility)
	// finish reads exhaustCI only for an Inconclusive stop at N, and the
	// check at N always runs, so the count lies strictly between the
	// thresholds.
	b.exhaustCI = make([]lazyCI, b.acceptAt[n]-b.rejectAt[n]-1)
	return b
}

// oc returns Alg. 1's exact operating characteristic on a window whose
// samples each satisfy the constraint independently with probability p:
// the probabilities of ⊤, ⊥ and ⊣ and the expected number of samples
// drawn. It is one forward pass over (samples n, satisfied k): each step
// moves mass to (n, k+1) with weight p and to (n, k) with weight 1 − p,
// then absorbs every cell decide concludes at — the schedule is decide's
// own, never restated — and what is left after sample maxS is ⊣.
func (b *decisionBounds) oc(p float64, minS, ci, maxS int) (sat, viol, inc, samples float64) {
	mass := make([]float64, maxS+1)
	mass[0] = 1
	for n := 1; n <= maxS; n++ {
		for k := n; k >= 0; k-- {
			m := (1 - p) * mass[k]
			if k > 0 {
				m += p * mass[k-1]
			}
			mass[k] = m
		}
		for k := 0; k <= n; k++ {
			switch b.decide(k, n, minS, ci, maxS) {
			case Satisfied:
				sat += mass[k]
			case Violated:
				viol += mass[k]
			default:
				continue
			}
			samples += float64(n) * mass[k]
			mass[k] = 0
		}
	}
	for _, m := range mass {
		inc += m
	}
	return sat, viol, inc, samples + float64(maxS)*inc
}

// OutcomeLaw is the exact law of one Alg. 1 run: the probability of each
// outcome and the expected number of samples drawn.
type OutcomeLaw struct {
	Satisfied, Violated, Inconclusive float64
	Samples                           float64
}

// OperatingCharacteristic returns the exact OutcomeLaw of Alg. 1 under
// params (normalized first) on a window whose sample bits are independent
// Bernoulli(p): the law every evaluation path — drawn rows or a collapsed
// closed form — realizes on such a window.
func OperatingCharacteristic(params Params, p float64) (OutcomeLaw, error) {
	pn, err := params.Normalized()
	if err != nil {
		return OutcomeLaw{}, err
	}
	var l OutcomeLaw
	l.Satisfied, l.Violated, l.Inconclusive, l.Samples = boundsFor(pn).oc(p, pn.MinSamples, pn.CheckInterval, pn.MaxSamples)
	return l, nil
}
