// Package checker binds sanity checks to data series — offline against a
// pipeline DAG, or online as stream-engine operators — and computes the
// outcome-accuracy metrics the paper reports in Table V.
//
// Two evaluation modes correspond to the paper's systems: SOUND (the
// quality-aware evaluation of Alg. 1) and BASE_CHECK (the naive
// evaluation that applies the constraint function to raw values).
package checker

import (
	"context"
	"fmt"
	"strings"

	"sound/internal/core"
	"sound/internal/pipeline"
	"sound/internal/series"
	"sound/internal/violation"
)

// Suite is a set of sanity checks bound to the series of a pipeline.
type Suite struct {
	Pipeline *pipeline.Pipeline
	Checks   []core.Check
}

// resolve fetches the k series a check refers to.
func (s *Suite) resolve(ck core.Check) ([]series.Series, error) {
	ss := make([]series.Series, len(ck.SeriesNames))
	for i, name := range ck.SeriesNames {
		data, ok := s.Pipeline.Series(name)
		if !ok {
			return nil, fmt.Errorf("checker: check %q references unknown series %q", ck.Name, name)
		}
		ss[i] = data
	}
	return ss, nil
}

// checkNames rejects duplicate check names. Results are keyed by name,
// so a duplicate would silently drop one check's results — an error the
// suite surfaces up front instead.
func (s *Suite) checkNames() error {
	seen := make(map[string]struct{}, len(s.Checks))
	for _, ck := range s.Checks {
		if _, dup := seen[ck.Name]; dup {
			return fmt.Errorf("checker: duplicate check name %q", ck.Name)
		}
		seen[ck.Name] = struct{}{}
	}
	return nil
}

// compile validates the suite and compiles every check into an execution
// plan. Check i is seeded seed + i·0x9e37 so each check draws an
// independent random stream.
func (s *Suite) compile(params core.Params, seed uint64) ([]*core.CheckPlan, error) {
	if err := s.checkNames(); err != nil {
		return nil, err
	}
	plans := make([]*core.CheckPlan, len(s.Checks))
	for i, ck := range s.Checks {
		pl, err := core.CompilePlan(ck, params, seed+uint64(i)*0x9e37)
		if err != nil {
			return nil, err
		}
		plans[i] = pl
	}
	return plans, nil
}

// Run evaluates every check with SOUND (Alg. 1) and returns results keyed
// by check name.
func (s *Suite) Run(params core.Params, seed uint64) (map[string][]core.Result, error) {
	return s.RunContext(context.Background(), params, seed)
}

// RunContext is Run honoring ctx between windows: a cancelled context
// stops the suite and returns ctx.Err().
func (s *Suite) RunContext(ctx context.Context, params core.Params, seed uint64) (map[string][]core.Result, error) {
	return s.RunParallelContext(ctx, params, seed, 1)
}

// RunParallel evaluates every check with SOUND using a worker pool for
// the window evaluations (workers <= 0 selects GOMAXPROCS). Every window
// is seeded from the window itself (core.CheckPlan.RunParallel), so the
// results equal Run's at any worker count.
func (s *Suite) RunParallel(params core.Params, seed uint64, workers int) (map[string][]core.Result, error) {
	return s.RunParallelContext(context.Background(), params, seed, workers)
}

// RunParallelContext is RunParallel honoring ctx: cancellation stops the
// window workers between windows and returns ctx.Err().
func (s *Suite) RunParallelContext(ctx context.Context, params core.Params, seed uint64, workers int) (map[string][]core.Result, error) {
	plans, err := s.compile(params, seed)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]core.Result, len(plans))
	for _, pl := range plans {
		ss, err := s.resolve(pl.Check())
		if err != nil {
			return nil, err
		}
		res, err := pl.RunParallel(ctx, ss, workers)
		if err != nil {
			return nil, err
		}
		out[pl.Check().Name] = res
	}
	return out, nil
}

// RunE6Controlled evaluates every check with SOUND and applies the
// paper's §VI-C control for spurious violations of sequence checks:
// violated windows on which the constraint holds block-wise are
// reclassified as satisfied (condition E6).
func (s *Suite) RunE6Controlled(params core.Params, seed uint64) (map[string][]core.Result, error) {
	out, err := s.Run(params, seed)
	if err != nil {
		return nil, err
	}
	for _, ck := range s.Checks {
		out[ck.Name] = violation.ControlE6(ck.Constraint, out[ck.Name])
	}
	return out, nil
}

// RunNaive evaluates every check with BASE_CHECK semantics and returns
// outcomes keyed by check name. Window tuples match Run exactly, so the
// two result sets are index-aligned for accuracy computation.
func (s *Suite) RunNaive() (map[string][]core.Outcome, error) {
	if err := s.checkNames(); err != nil {
		return nil, err
	}
	out := make(map[string][]core.Outcome, len(s.Checks))
	for _, ck := range s.Checks {
		ss, err := s.resolve(ck)
		if err != nil {
			return nil, err
		}
		out[ck.Name] = core.EvaluateAllNaive(ck.Constraint, ck.Window, ss)
	}
	return out, nil
}

// Accuracy holds the Table V metrics for one check (or combined): how
// well BASE_CHECK's outcomes agree with SOUND's quality-aware outcomes,
// which serve as the reference.
type Accuracy struct {
	// SatisfiedAcc is the fraction of windows SOUND concluded ⊤ on which
	// the naive approach also reports ⊤.
	SatisfiedAcc float64
	// ViolatedAcc is the fraction of windows SOUND concluded ⊥ on which
	// the naive approach also reports ⊥.
	ViolatedAcc float64
	// InconclusiveRatio is the fraction of all windows where SOUND
	// returns ⊣ — cases the naive approach decides with false
	// confidence.
	InconclusiveRatio float64
	// Counts backing the ratios.
	NSatisfied, NViolated, NInconclusive, NTotal int
	nSatAgree, nViolAgree                        int
}

// CompareOutcomes computes the accuracy of naive outcomes against SOUND
// results. Both slices must be index-aligned (same window tuples); a
// length mismatch means the windows diverged and the comparison would be
// meaningless, so it is an error rather than a silent truncation.
func CompareOutcomes(sound []core.Result, naive []core.Outcome) (Accuracy, error) {
	var a Accuracy
	if len(sound) != len(naive) {
		return a, fmt.Errorf("checker: outcome slices are not index-aligned: %d SOUND results vs %d naive outcomes", len(sound), len(naive))
	}
	for i := range sound {
		a.NTotal++
		switch sound[i].Outcome {
		case core.Satisfied:
			a.NSatisfied++
			if naive[i] == core.Satisfied {
				a.nSatAgree++
			}
		case core.Violated:
			a.NViolated++
			if naive[i] == core.Violated {
				a.nViolAgree++
			}
		case core.Inconclusive:
			a.NInconclusive++
		}
	}
	a.finalize()
	return a, nil
}

// Merge combines accuracies across checks (for the "Combined" column).
func Merge(as ...Accuracy) Accuracy {
	var m Accuracy
	for _, a := range as {
		m.NSatisfied += a.NSatisfied
		m.NViolated += a.NViolated
		m.NInconclusive += a.NInconclusive
		m.NTotal += a.NTotal
		m.nSatAgree += a.nSatAgree
		m.nViolAgree += a.nViolAgree
	}
	m.finalize()
	return m
}

func (a *Accuracy) finalize() {
	if a.NSatisfied > 0 {
		a.SatisfiedAcc = float64(a.nSatAgree) / float64(a.NSatisfied)
	}
	if a.NViolated > 0 {
		a.ViolatedAcc = float64(a.nViolAgree) / float64(a.NViolated)
	}
	if a.NTotal > 0 {
		a.InconclusiveRatio = float64(a.NInconclusive) / float64(a.NTotal)
	}
}

// Confusion is the full 3×3 outcome matrix of SOUND (rows) vs the naive
// baseline (columns), a finer view than the Table V accuracies: it also
// shows *which way* the naive approach errs on inconclusive windows.
type Confusion struct {
	// M[s][n] counts windows with SOUND outcome s and naive outcome n,
	// indexed by outcomeIndex (⊤=0, ⊥=1, ⊣=2).
	M [3][3]int
}

func outcomeIndex(o core.Outcome) int {
	switch o {
	case core.Satisfied:
		return 0
	case core.Violated:
		return 1
	default:
		return 2
	}
}

// Confuse builds the confusion matrix from index-aligned results. Like
// CompareOutcomes, mismatched lengths are an error.
func Confuse(sound []core.Result, naive []core.Outcome) (Confusion, error) {
	var c Confusion
	if len(sound) != len(naive) {
		return c, fmt.Errorf("checker: outcome slices are not index-aligned: %d SOUND results vs %d naive outcomes", len(sound), len(naive))
	}
	for i := range sound {
		c.M[outcomeIndex(sound[i].Outcome)][outcomeIndex(naive[i])]++
	}
	return c, nil
}

// Total returns the number of counted windows.
func (c Confusion) Total() int {
	t := 0
	for _, row := range c.M {
		for _, v := range row {
			t += v
		}
	}
	return t
}

// Agreement returns the fraction of windows where both approaches give
// the same conclusive outcome, over SOUND-conclusive windows.
func (c Confusion) Agreement() float64 {
	agree := c.M[0][0] + c.M[1][1]
	conclusive := c.M[0][0] + c.M[0][1] + c.M[0][2] + c.M[1][0] + c.M[1][1] + c.M[1][2]
	if conclusive == 0 {
		return 0
	}
	return float64(agree) / float64(conclusive)
}

// String renders the matrix with outcome glyphs.
func (c Confusion) String() string {
	glyphs := []string{"⊤", "⊥", "⊣"}
	var b strings.Builder
	b.WriteString("SOUND\\naive     ⊤      ⊥      ⊣\n")
	for i, row := range c.M {
		fmt.Fprintf(&b, "%s        ", glyphs[i])
		for _, v := range row {
			fmt.Fprintf(&b, "%7d", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// OutcomeCounts tallies a result sequence.
type OutcomeCounts struct {
	Satisfied, Violated, Inconclusive int
}

// Count tallies SOUND outcomes.
func Count(results []core.Result) OutcomeCounts {
	var c OutcomeCounts
	for _, r := range results {
		switch r.Outcome {
		case core.Satisfied:
			c.Satisfied++
		case core.Violated:
			c.Violated++
		default:
			c.Inconclusive++
		}
	}
	return c
}

// Total returns the number of counted outcomes.
func (c OutcomeCounts) Total() int { return c.Satisfied + c.Violated + c.Inconclusive }
