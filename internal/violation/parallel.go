package violation

import (
	"context"
	"runtime"
	"sync"

	"sound/internal/core"
	"sound/internal/pipeline"
)

// The parallel violation-analysis engine (paper §V-B at scale). The unit
// of work is one (change point, input window) pair — or one whole-tuple
// E6 assessment — not one change point: a single change point of a k-ary
// check fans out across k workers, so even a run with few change points
// saturates the pool. Determinism needs no coordination because every
// unit's random stream derives from (base seed, change point, window)
// alone (see Analyzer): any worker may process any unit in any order and
// the reports are bit-identical for every worker count, Explain's one
// worker included.

// explainUnit addresses one unit of explanation work: input window j of
// change point cp, or the whole-tuple E6 assessment when j == -1.
type explainUnit struct{ cp, j int }

// ExplainAll explains every change point with up to workers goroutines
// (0 selects GOMAXPROCS), using one pooled analyzer per worker —
// allocations stay O(workers + reports). Reports are bit-identical to
// calling Explain on each change point sequentially with an analyzer
// built from the same (params, seed). A cancelled context stops the
// workers between units and returns ctx.Err().
func ExplainAll(ctx context.Context, c core.Constraint, cps []ChangePoint, params core.Params, seed uint64, workers int) ([]Report, error) {
	base, err := NewAnalyzer(params, seed)
	if err != nil {
		return nil, err
	}
	return explainAll(ctx, c, cps, base, workers)
}

// explainAll fans the (change point × window) units out over base and
// pooled analyzers derived from it; with one worker it runs on base
// alone, on the calling goroutine.
func explainAll(ctx context.Context, c core.Constraint, cps []ChangePoint, base *Analyzer, workers int) ([]Report, error) {
	reports := make([]Report, len(cps))
	e6 := make([]bool, len(cps))
	n := 0
	for i, cp := range cps {
		reports[i] = Report{ChangePoint: cp, PerWindow: make([][]Explanation, len(cp.Neg.Windows))}
		n += len(cp.Neg.Windows)
	}
	ordered := c.Orderedness.Ordered()
	if ordered {
		n += len(cps)
	}
	units := make([]explainUnit, 0, n)
	for i, cp := range cps {
		if ordered {
			units = append(units, explainUnit{cp: i, j: -1})
		}
		for j := range cp.Neg.Windows {
			units = append(units, explainUnit{cp: i, j: j})
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(units) {
		workers = len(units)
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	// Worker 0 runs on the caller with base itself, the others on
	// goroutines with derived analyzers.
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go base.derive().explainUnits(&wg, c, reports, e6, units, w, workers, done)
	}
	base.explainUnits(nil, c, reports, e6, units, 0, workers, done)
	wg.Wait()
	if ctx != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	for i := range reports {
		reports[i] = assembleReport(reports[i], e6[i])
	}
	return reports, nil
}

// explainUnits runs units[first], units[first+stride], … on the
// analyzer: each window's explanations go into its report's PerWindow,
// each E6 verdict into e6. It stops between units once done is closed,
// and marks wg done, if given, when it returns. Its goroutines are
// started on it directly, not on a closure, so that Explain's one
// worker moves none of explainAll's locals to the heap.
func (a *Analyzer) explainUnits(wg *sync.WaitGroup, c core.Constraint, reports []Report, e6 []bool, units []explainUnit, first, stride int, done <-chan struct{}) {
	if wg != nil {
		defer wg.Done()
	}
	for u := first; u < len(units); u += stride {
		select {
		case <-done:
			return
		default:
		}
		unit := units[u]
		cp := &reports[unit.cp].ChangePoint
		if unit.j < 0 {
			// E6 is deterministic (no random stream): pure block-wise
			// evaluation of the violated tuple.
			e6[unit.cp] = E6Holds(c, cp.Neg)
			continue
		}
		reports[unit.cp].PerWindow[unit.j] = a.explainWindow(c, *cp, unit.j)
	}
}

// SummarizeParallel is the violation analysis of a result sequence with
// the explanation phase fanned out over up to workers goroutines
// (0 selects GOMAXPROCS). The analyzer seeds the worker pool; its
// mutable state is consumed. The summary — reports, explanation counts,
// upstream annotation, and change-evaluation count — is bit-identical
// to a sequential Analyzer.Explain pass over the change points for any
// worker count, because explanation streams derive from the change
// point, not the processing order, and the Alg. 2 drill-down runs in
// report order. A cancelled context aborts between units with ctx.Err()
// and leaks no goroutines.
func SummarizeParallel(ctx context.Context, ck core.Check, results []core.Result, a *Analyzer, p *pipeline.Pipeline, credibility float64, workers int) (*Summary, error) {
	s := &Summary{
		Check:             ck,
		ExplanationCounts: map[Explanation]int{},
		Annotated:         pipeline.Annotation{},
	}
	for _, r := range results {
		switch r.Outcome {
		case core.Satisfied:
			s.Satisfied++
		case core.Violated:
			s.Violated++
		default:
			s.Inconclusive++
		}
	}
	reports, err := explainAll(ctx, ck.Constraint, ChangePoints(results), a, workers)
	if err != nil {
		return nil, err
	}
	// The upstream drill-down stays sequential: its cost is a handful of
	// KS tests per E1 report, and running it in report order keeps the
	// annotation set and evaluation count independent of the workers.
	ua := NewUpstreamAnalysis(credibility)
	s.Reports = reports
	for _, rep := range reports {
		for _, e := range rep.Explanations {
			s.ExplanationCounts[e]++
		}
		if rep.Primary() == E1ValueChange && p != nil {
			for name := range ua.Annotate(p, ck, rep.ChangePoint) {
				s.Annotated.Add(name)
			}
		}
	}
	s.ChangeEvaluations = ua.Evaluations
	return s, nil
}
