package core

import (
	"math"

	"sound/internal/resample"
)

// This file collapses the level templates of a stream lane. Alg. 1 reads
// one bit per sample, and for range, gt, nonneg and fraction on a unary
// window that bit is Bernoulli(p) with p in closed form under the
// resampling model (resample/cdf.go): with pᵢ the probability that point
// i's perturbed value lies in the template's level set,
//
//	point lane (each point perturbed once)         p = Π pᵢ
//	set lane, all values in the set (n i.i.d.      p = p̄ⁿ,  p̄ = mean pᵢ
//	  bootstrap picks, each then perturbed)
//	set lane, fraction ≥ C                         p = P(Bin(n, p̄) ≥ kmin)
//
// so a collapsed member's sample-s bit is u_s < p on the lane's uniform
// stream and no row is drawn for it (group.go). What Alg. 1 then does with
// the bits — decide, MinSamples, CheckInterval, ⊣ at N — is unchanged, and
// so is the joint law of (Outcome, Samples, SatisfiedCount).

// levelSet returns the set of values a level template's per-value test
// admits, when its sample bit has the closed form above on a lane of the
// given strategy. ok is false for every other op; for NaN or crossed
// bounds, which admit nothing and are left to the kernels; for a sequence
// lane, whose bootstrap keeps blocks of points together; and for a fraction
// over independently perturbed points (a point lane), a Poisson binomial.
func levelSet(sp *KernelSpec, strat resample.Strategy) (iv resample.Interval, ok bool) {
	switch sp.Op {
	case KernelRange:
		iv = resample.Interval{A: sp.A, B: sp.B}
	case KernelFractionInRange:
		if strat == resample.Point {
			return iv, false
		}
		iv = resample.Interval{A: sp.A, B: sp.B}
	case KernelGreaterThan:
		iv = resample.Interval{A: sp.A, B: math.Inf(1), OpenA: true}
	case KernelNonNegative:
		iv = resample.Interval{A: 0, B: math.Inf(1)}
	default:
		return iv, false
	}
	return iv, strat != resample.Sequence && iv.A <= iv.B
}

// bracketSlack widens every table bracket: the bracket and the exact value
// are different float computations of nested quantities (lgamma alone
// carries ~10⁻¹² relative error at n in the thousands), so they may cross
// by rounding. A uniform lands inside the slack once in 10⁹ samples, and
// then merely pays for the exact value.
const bracketSlack = 1e-9

// bracketP returns [pLo, pHi] ∋ p for a member with spec sp on an n-point
// window of a lane with strategy strat, from the table bracket of its level
// set. With q = Σ qᵢ (qᵢ = 1 − pᵢ) both Π (1 − qᵢ) and (1 − q/n)ⁿ lie in
// [1 − q, e^(−q)], the product also below 1 − max qᵢ; a fraction's binomial
// tail is monotone in p̄ = 1 − q/n. An upper sum of 0 means every point lies
// inside the set and tailCut·σ clear of its ends: every qᵢ is exactly 0, as
// the integral will also find, and p needs no bracket.
func bracketP(b resample.MissBound, sp *KernelSpec, strat resample.Strategy, n int) (pLo, pHi float64) {
	if b.Hi == 0 {
		p := exactP(sp, strat, n, 0, 1)
		return p, p
	}
	if sp.Op == KernelFractionInRange {
		k := kmin(n, sp.C)
		pLo = binomTail(n, k, 1-b.Hi/float64(n))
		pHi = binomTail(n, k, 1-b.Lo/float64(n))
	} else {
		pLo, pHi = 1-b.Hi, math.Exp(-b.Lo)
		if strat == resample.Point {
			pHi = min(pHi, 1-b.Top)
		}
	}
	return max(0, pLo-bracketSlack), min(1, pHi+bracketSlack)
}

// exactP maps an integrated level set — Σ qᵢ and Π (1 − qᵢ), from
// Resampler.Miss — to the member's satisfaction probability.
func exactP(sp *KernelSpec, strat resample.Strategy, n int, missSum, hitAll float64) float64 {
	if strat == resample.Point {
		return hitAll
	}
	mean := min(1, max(0, 1-missSum/float64(n)))
	if sp.Op == KernelFractionInRange {
		return binomTail(n, kmin(n, sp.C), mean)
	}
	return math.Pow(mean, float64(n))
}

// levelExact is the exact integral of one level set over the current
// window, computed (with erfc) the first time a member's uniform falls
// inside its bracket.
type levelExact struct {
	done            bool
	missSum, hitAll float64
}

// kmin is the smallest count k in [0, n] that the fraction template
// accepts, n+1 when none is: the template tests float64(k)/float64(n) >= c
// in floating point, which is monotone in k, so the ceiling of c·n is
// corrected by that very test.
func kmin(n int, c float64) int {
	if !(c <= 1) {
		return n + 1 // NaN included
	}
	if c <= 0 {
		return 0
	}
	k := min(n, int(math.Ceil(c*float64(n))))
	for k > 0 && float64(k-1)/float64(n) >= c {
		k--
	}
	for k <= n && !(float64(k)/float64(n) >= c) {
		k++
	}
	return k
}

// binomTail returns P(K ≥ k) for K ~ Binomial(n, p). It sums the side of k
// that holds less mass, starting at the term next to k — which lies beyond
// the mode on that side, so the terms only shrink — and stops once they no
// longer register.
func binomTail(n, k int, p float64) float64 {
	switch {
	case k <= 0:
		return 1
	case k > n || !(p > 0):
		return 0
	case p >= 1:
		return 1
	}
	upper := float64(k) > float64(n)*p
	from, step := k-1, -1
	if upper {
		from, step = k, 1
	}
	lg := func(x int) float64 { v, _ := math.Lgamma(float64(x + 1)); return v }
	term := math.Exp(lg(n) - lg(from) - lg(n-from) + float64(from)*math.Log(p) + float64(n-from)*math.Log1p(-p))
	odds := p / (1 - p)
	sum := 0.0
	for j := from; j >= 0 && j <= n; j += step {
		sum += term
		if term <= sum*0x1p-60 {
			break
		}
		if upper {
			term *= float64(n-j) / float64(j+1) * odds
		} else {
			term *= float64(j) / float64(n-j+1) / odds
		}
	}
	if upper {
		return min(1, sum)
	}
	return max(0, 1-sum)
}
