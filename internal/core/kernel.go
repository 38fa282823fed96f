package core

import (
	"sound/internal/resample"
	"sound/internal/stat"
)

// This file implements the single-check block loop of Alg. 1 and the
// compiled constraint kernels that score its rows.
//
// The evaluator draws blocks of K samples with resample.DrawBlock and
// scores them row by row. A template constraint carries its declarative
// KernelSpec next to the reference closure: when every primed window is
// provably finite under perturbation (resample.Resampler.WindowSafe,
// classified once per extraction) a row is scored by kernelSat, which
// mirrors the closure's arithmetic exactly minus the per-draw finite()
// scan the safety proof makes redundant. Constraints with user-supplied
// functions (Spec.Op == KernelNone) and windows that cannot be proven
// finite are scored by the closure on the same rows, so the kernel is a
// pure optimization of the scoring form, not a second loop: the satisfied
// verdicts — and therefore the sampled trajectory, the stopping index, and
// the posterior — are bit-identical by construction, pinned by the
// kernel-vs-closure property and fuzz tests.

// kernelBlockValues caps how many float64 values one drawn block may
// hold across all windows, bounding the evaluator's resident sample
// matrix regardless of window length and MaxSamples.
const kernelBlockValues = 4096

// kernelSat reports whether one resample realization satisfies the
// compiled spec. Precondition: every window of vals is provably finite
// (all raw values and every perturbed draw, see Extraction.Safe), which
// is what lets the finite() scans of the template closures be skipped;
// every other operation matches the closure for the same spec
// operation-for-operation, so the returned boolean is bit-identical to
// Constraint.Fn on the same values.
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

// blockLoop is the single-check sampling loop of Alg. 1 with everything
// it needs besides a primed resampler: the normalized parameters, their
// shared precomputed decision table, and reused scratch. Evaluator runs it
// on its own continuing streams, PlanGroup on a lane's window-derived
// stream when the lane has one member; both embed it.
type blockLoop struct {
	params Params
	bounds *decisionBounds
	// memo memoizes credible intervals by observation counts: the
	// posterior depends only on (satisfied, violated), and point checks
	// revisit the same counts for every window.
	memo ciMemo
	// blk and kvals are the reused scratch: the dense sample matrix and
	// the per-window row headers of the sample being scored.
	blk   resample.Block
	kvals [][]float64
}

// rowVals returns the nw-slot row-header scratch.
func (l *blockLoop) rowVals(nw int) [][]float64 {
	if cap(l.kvals) < nw {
		l.kvals = make([][]float64, nw)
	}
	return l.kvals[:nw]
}

// scoreBlock scores every sample of the current block and returns how many
// satisfied the constraint — the block's contribution to countSatisfied.
// Each row goes through the compiled kernel when kernel is set (the caller
// checked its precondition) and through the constraint's closure otherwise.
func (l *blockLoop) scoreBlock(c *Constraint, kernel bool, k int) int {
	vals := l.rowVals(len(l.blk.Data))
	sat := 0
	for s := 0; s < k; s++ {
		for wi := range vals {
			vals[wi] = l.blk.Row(wi, s)
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
// Draw per sample in the same order (resample.DrawBlock), so every later
// window sees an unchanged stream. The per-sample loop itself lives on as
// the oracle in eval_test.go.
func (l *blockLoop) evaluateBlocks(res *Result, c *Constraint, rs *resample.Resampler, w WindowTuple) {
	maxS, minS, ci := l.params.MaxSamples, l.params.MinSamples, l.params.CheckInterval
	kernel := c.Spec.Op != KernelNone && kernelReady(rs, len(w.Windows))
	chunk := blockChunk(w, maxS)
	cs, i := 0, 0
	for i < maxS && res.Outcome == Inconclusive {
		j := l.bounds.nextDecision(cs, i, minS, ci, maxS)
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
			rs.DrawBlock(w.Windows, k, &l.blk)
			cs += l.scoreBlock(c, kernel, k)
			i += k
		}
		if j == 0 {
			break
		}
		res.Outcome = l.bounds.decide(cs, j, minS, ci, maxS)
	}
	res.Samples = i
	l.finish(res, cs)
}

// replayCertain is Alg. 1 on a point-resampled all-certain window: every
// draw returns the raw values and consumes no randomness, so the
// constraint verdict is the same for all N samples — evaluate it once and
// replay the decision schedule on the boundary table.
func (l *blockLoop) replayCertain(res *Result, sat bool) {
	var cs int
	res.Outcome, res.Samples, cs = l.bounds.replayConstant(sat,
		l.params.MinSamples, l.params.CheckInterval, l.params.MaxSamples)
	l.finish(res, cs)
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
