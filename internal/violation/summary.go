package violation

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"sound/internal/core"
	"sound/internal/pipeline"
)

// Summary aggregates the violation analysis of a whole result sequence:
// all change points, their explanations, and (for value-change points)
// the upstream annotation. It is the report a user reads after a check
// run, before drilling into individual change points.
type Summary struct {
	Check core.Check
	// Outcomes tallies the result sequence.
	Satisfied, Violated, Inconclusive int
	// Reports holds one explanation report per change point, in order.
	Reports []Report
	// ExplanationCounts tallies confirmed explanations across reports.
	ExplanationCounts map[Explanation]int
	// Annotated is the union of Alg. 2 annotations over all
	// value-change points.
	Annotated pipeline.Annotation
	// ChangeEvaluations counts φ²_change evaluations spent.
	ChangeEvaluations int
}

// Summarize runs the full violation analysis over a result sequence:
// change-point detection, explanation assessment per change point, and —
// when the data values remain the only explanation — the upstream
// annotation of Alg. 2 in pipeline p (pass nil to skip the drill-down).
// It is SummarizeParallel at GOMAXPROCS workers, uncancellable, and
// panics on a constraint CompilePlan refuses.
func Summarize(ck core.Check, results []core.Result, a *Analyzer, p *pipeline.Pipeline, credibility float64) *Summary {
	// Without a cancellable context SummarizeParallel fails only on an
	// invalid constraint.
	s, err := SummarizeParallel(context.Background(), ck, results, a, p, credibility, 0)
	if err != nil {
		panic(err)
	}
	return s
}

// String renders the summary for terminal consumption.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "check %s: ⊤ %d  ⊥ %d  ⊣ %d  — %d change point(s)\n",
		s.Check.Name, s.Satisfied, s.Violated, s.Inconclusive, len(s.Reports))
	if len(s.Reports) == 0 {
		return b.String()
	}
	var keys []int
	for e := range s.ExplanationCounts {
		keys = append(keys, int(e))
	}
	sort.Ints(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  %v: %d\n", Explanation(k), s.ExplanationCounts[Explanation(k)])
	}
	if names := s.Annotated.Names(); len(names) > 0 {
		fmt.Fprintf(&b, "  annotated series (Alg. 2): %v\n", names)
	}
	if s.ChangeEvaluations > 0 {
		fmt.Fprintf(&b, "  change-constraint evaluations: %d\n", s.ChangeEvaluations)
	}
	return b.String()
}
