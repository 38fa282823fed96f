package core

import (
	"sound/internal/resample"
	"sound/internal/stat"
)

// This file implements the single-check block loop of Alg. 1 — what a
// PlanGroup lane with one row-scoring member runs — and the compiled
// constraint kernels that score its rows.
//
// The loop draws blocks of K samples with resample.DrawBlock and
// scores them row by row. A template constraint is its declarative
// KernelSpec, and its Fn is nil: call Constraint.Eval. Its predicate is
// written once, in kernelSat, and KernelSpec.holds prefixes it with the
// op's finiteness guard to make Eval. When every primed window is
// provably finite under perturbation (resample.Resampler.WindowSafe,
// read from the window's own points at prime time) the guard cannot
// fail, so a row is scored by kernelSat alone; user constraints
// (Spec.Op == KernelNone) and windows that cannot be proven finite are
// scored by Eval on the same rows. Both
// forms return the same boolean for every row, so the satisfied verdicts
// — and therefore the sampled trajectory, the stopping index, and the
// posterior — do not depend on which one ran. The test oracle
// referenceFn (reference_test.go) restates every template's predicate
// apart from kernelSat.

// kernelBlockValues caps how many float64 values one drawn block may
// hold across all windows, bounding a lane's resident sample
// matrix regardless of window length and MaxSamples.
const kernelBlockValues = 4096

// kernelSat reports whether one resample realization satisfies the
// template sp. Precondition: every window of vals the op reads is finite
// (KernelSpec.holds checks it; on a provably finite window, see
// resample.Resampler.WindowSafe, the evaluator may skip that check).
func kernelSat(sp *KernelSpec, vals [][]float64) bool {
	switch sp.Op {
	case KernelRange:
		for _, v := range vals[0] {
			if v < sp.A || v > sp.B {
				return false
			}
		}
		return true
	case KernelGreaterThan:
		for _, v := range vals[0] {
			if !(v > sp.A) {
				return false
			}
		}
		return true
	case KernelNonNegative:
		for _, v := range vals[0] {
			if v < 0 {
				return false
			}
		}
		return true
	case KernelFractionInRange:
		vs := vals[0]
		if len(vs) == 0 {
			return false
		}
		return float64(countIn(vs, sp.A, sp.B))/float64(len(vs)) >= sp.C
	case KernelMonotone:
		vs := vals[0]
		if sp.Strict {
			for i := 1; i < len(vs); i++ {
				if !(vs[i-1] < vs[i]) {
					return false
				}
			}
			return true
		}
		for i := 1; i < len(vs); i++ {
			if !(vs[i-1] <= vs[i]) {
				return false
			}
		}
		return true
	case KernelMaxDelta:
		vs := vals[0]
		if len(vs) == 0 {
			return false
		}
		lo, hi := extremes(vs)
		return hi-lo < sp.A
	case KernelCountAtLeast:
		return len(vals[0]) >= len(vals[1])
	case KernelStdNonZero:
		vs := vals[0]
		if len(vs) < 2 {
			return false
		}
		return stat.Variance(vs) != 0
	case KernelLowerMeanDelta:
		x, y := vals[0], vals[1]
		if len(x) < 2 || len(y) < 2 {
			return false
		}
		return meanAbsDelta(x) < meanAbsDelta(y)
	case KernelCorrAbove:
		return stat.Pearson(vals[0], vals[1]) > sp.A
	case KernelCorrBelow:
		r := stat.Pearson(vals[0], vals[1])
		if r < 0 {
			r = -r
		}
		return r < sp.A
	case KernelRSquaredAbove:
		return stat.RSquared(vals[0], vals[1]) > sp.A
	case KernelKSBelow:
		if len(vals[0]) == 0 || len(vals[1]) == 0 {
			return false
		}
		return stat.KSTest2Samp(vals[0], vals[1]).Statistic < sp.A
	case KernelKLBelow:
		if len(vals[0]) == 0 || len(vals[1]) == 0 {
			return false
		}
		return stat.KLDivergence(vals[0], vals[1], int(sp.Bins)) < sp.A
	}
	return false
}

// holds is the template sp as a predicate on any row: the finiteness
// guard of its op, then kernelSat. The count ignores values; the
// correlation and R² ops take their statistic as it comes, and a NaN
// statistic fails every threshold.
func (sp *KernelSpec) holds(vals [][]float64) bool {
	switch sp.Op {
	case KernelCountAtLeast, KernelCorrAbove, KernelCorrBelow, KernelRSquaredAbove:
	case KernelLowerMeanDelta, KernelKSBelow, KernelKLBelow:
		if !finite(vals[0], vals[1]) {
			return false
		}
	default:
		if !finite(vals[0]) {
			return false
		}
	}
	return kernelSat(sp, vals)
}

// meanAbsDelta is the mean absolute first difference of a row of at
// least two values.
func meanAbsDelta(vs []float64) float64 {
	sum := 0.0
	for i := 1; i < len(vs); i++ {
		d := vs[i] - vs[i-1]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / float64(len(vs)-1)
}

// kernelReady reports whether all k primed window slots are provably
// finite under perturbation, the precondition for the kernel path.
func kernelReady(rs *resample.Resampler, k int) bool {
	for wi := 0; wi < k; wi++ {
		if !rs.WindowSafe(wi) {
			return false
		}
	}
	return true
}

// rowVals returns the nw-slot row-header scratch.
func (g *PlanGroup) rowVals(nw int) [][]float64 {
	if cap(g.kvals) < nw {
		g.kvals = make([][]float64, nw)
	}
	return g.kvals[:nw]
}

// scoreBlock scores every sample of the current block and returns how many
// satisfied the constraint — the block's contribution to countSatisfied.
// Each row goes through the kernel alone when kernel is set (the caller
// checked its precondition) and through Constraint.Eval otherwise.
func (g *PlanGroup) scoreBlock(c *Constraint, kernel bool, k int) int {
	vals := g.rowVals(len(g.blk.Data))
	sat := 0
	for s := 0; s < k; s++ {
		for wi := range vals {
			vals[wi] = g.blk.Row(wi, s)
		}
		var ok bool
		if kernel {
			ok = kernelSat(&c.Spec, vals)
		} else {
			ok = c.Eval(vals)
		}
		if ok {
			sat++
		}
	}
	return sat
}

// evaluateBlocks is the sampling loop of Alg. 1 for a single check on a
// primed resampler: instead of drawing one sample and consulting the
// boundary table per iteration, it asks the table for the earliest future
// check at which a conclusion is still possible
// (decisionBounds.nextDecision), draws all samples up to that edge as dense
// blocks, adds each block's satisfied count to the running count, and tests
// the two integer thresholds once per block edge. Because nextDecision
// bounds the trajectory from above and below, no interior check of the
// per-sample loop could have fired, and the check at the edge sees exactly
// the count that loop would see — the stopping index, outcome, and
// posterior are identical, while the randomness consumed is exactly one
// Draw per sample in the same order (resample.DrawBlock). The per-sample
// loop itself lives on as the oracle in eval_test.go.
func (g *PlanGroup) evaluateBlocks(res *Result, c *Constraint, rs *resample.Resampler, w WindowTuple) {
	maxS, minS, ci := g.params.MaxSamples, g.params.MinSamples, g.params.CheckInterval
	kernel := c.Spec.Op != KernelNone && kernelReady(rs, len(w.Windows))
	chunk := blockChunk(w, maxS)
	cs, i := 0, 0
	for i < maxS && res.Outcome == Inconclusive {
		j := g.bounds.nextDecision(cs, i, minS, ci, maxS)
		edge := j
		if edge == 0 {
			// No future check can conclude; exhaust the budget.
			edge = maxS
		}
		for i < edge {
			k := edge - i
			if k > chunk {
				k = chunk
			}
			rs.DrawBlock(w.Windows, k, &g.blk)
			cs += g.scoreBlock(c, kernel, k)
			i += k
		}
		if j == 0 {
			break
		}
		res.Outcome = g.bounds.decide(cs, j, minS, ci, maxS)
	}
	res.Samples = i
	g.finish(res, cs)
}

// replayCertain is Alg. 1 on a point-resampled all-certain window: every
// draw returns the raw values and consumes no randomness, so the
// constraint verdict is the same for all N samples — evaluate it once and
// replay the decision schedule on the boundary table.
func (g *PlanGroup) replayCertain(res *Result, sat bool) {
	var cs int
	res.Outcome, res.Samples, cs = g.bounds.replayConstant(sat,
		g.params.MinSamples, g.params.CheckInterval, g.params.MaxSamples)
	g.finish(res, cs)
}

// blockChunk returns how many samples of the window tuple one drawn
// block may hold under the kernelBlockValues cap (at least one, at most
// the sample budget).
func blockChunk(w WindowTuple, maxS int) int {
	total := 0
	for _, win := range w.Windows {
		total += len(win)
	}
	if total == 0 {
		return maxS
	}
	return max(1, min(maxS, kernelBlockValues/total))
}
