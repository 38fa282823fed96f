package sound

import (
	"context"

	"sound/internal/checker"
	"sound/internal/violation"
)

// Violation analysis (paper §V): change points in the outcome sequence,
// candidate explanations E1–E6, and upstream drill-down over the
// pipeline DAG.

// Explanation enumerates the root-cause candidates of paper Table III.
type Explanation = violation.Explanation

// Explanation values.
const (
	// E1ValueChange: the data values themselves changed.
	E1ValueChange = violation.E1ValueChange
	// E2HighSparsity: the violated window is an unrepresentatively
	// sparse sample.
	E2HighSparsity = violation.E2HighSparsity
	// E3LowSparsity: the violated window is denser, revealing structure
	// the sparse satisfied window could not show.
	E3LowSparsity = violation.E3LowSparsity
	// E4HighUncertainty: high value uncertainty produced the violation.
	E4HighUncertainty = violation.E4HighUncertainty
	// E5LowUncertainty: low value uncertainty revealed a difference that
	// was invisible before.
	E5LowUncertainty = violation.E5LowUncertainty
	// E6ResamplingFalsePositive: block-bootstrap resampling altered the
	// sequence structure.
	E6ResamplingFalsePositive = violation.E6ResamplingFalsePositive
)

// ChangePoint is an outcome flip between ⊤ and ⊥ (paper Def. 2).
type ChangePoint = violation.ChangePoint

// ChangePoints extracts all change points from evaluation results.
func ChangePoints(results []Result) []ChangePoint { return violation.ChangePoints(results) }

// ControlE6 reclassifies violated sequence-check results as satisfied
// when the block-bootstrap false-positive condition E6 holds
// (paper §VI-C).
func ControlE6(c Constraint, results []Result) []Result {
	return violation.ControlE6(c, results)
}

// Report is the outcome of analyzing one change point.
type Report = violation.Report

// Analyzer assesses explanations at change points via counterfactual
// what-if re-evaluation.
type Analyzer = violation.Analyzer

// NewAnalyzer returns an Analyzer with the given evaluation parameters.
// Its reports are a pure function of (params, seed, change point):
// explaining change points in any order yields identical reports.
func NewAnalyzer(params Params, seed uint64) (*Analyzer, error) {
	return violation.NewAnalyzer(params, seed)
}

// ExplainAll explains every change point with up to workers goroutines
// (0 = GOMAXPROCS) using pooled analyzers. Reports are bit-identical to
// a sequential Explain pass with an analyzer built from the same
// (params, seed), for every worker count.
func ExplainAll(ctx context.Context, c Constraint, cps []ChangePoint, params Params, seed uint64, workers int) ([]Report, error) {
	return violation.ExplainAll(ctx, c, cps, params, seed, workers)
}

// ChangeConstraint is the data-change test φ²_change of paper §V-C.
type ChangeConstraint = violation.ChangeConstraint

// KSChangeConstraint returns the default two-sample KS change constraint
// at significance alpha.
func KSChangeConstraint(alpha float64) ChangeConstraint {
	return violation.KSChangeConstraint(alpha)
}

// MWUChangeConstraint returns a Mann–Whitney-U change constraint at
// significance alpha (sensitive to median shifts).
func MWUChangeConstraint(alpha float64) ChangeConstraint {
	return violation.MWUChangeConstraint(alpha)
}

// WassersteinChangeConstraint returns a magnitude-aware change
// constraint flagging earth-mover's distances above threshold.
func WassersteinChangeConstraint(threshold float64) ChangeConstraint {
	return violation.WassersteinChangeConstraint(threshold)
}

// Summary aggregates the violation analysis of a whole result sequence.
type Summary = violation.Summary

// Summarize runs change-point detection, explanation assessment, and —
// given a pipeline — the Alg. 2 upstream drill-down over all change
// points of a result sequence.
func Summarize(ck Check, results []Result, a *Analyzer, p *Pipeline, credibility float64) *Summary {
	return violation.Summarize(ck, results, a, p, credibility)
}

// SummarizeParallel is Summarize with the explanation phase fanned out
// over up to workers goroutines (0 = GOMAXPROCS). The summary is
// bit-identical to the sequential Summarize for any worker count; a
// cancelled context aborts the analysis with ctx.Err().
func SummarizeParallel(ctx context.Context, ck Check, results []Result, a *Analyzer, p *Pipeline, credibility float64, workers int) (*Summary, error) {
	return violation.SummarizeParallel(ctx, ck, results, a, p, credibility, workers)
}

// UpstreamAnalysis implements paper Alg. 2: annotation of the pipeline
// DAG with local and upstream series whose data changed across a change
// point.
type UpstreamAnalysis = violation.UpstreamAnalysis

// NewUpstreamAnalysis returns an upstream analysis with the default KS
// change constraint at α = 1 − credibility.
func NewUpstreamAnalysis(credibility float64) *UpstreamAnalysis {
	return violation.NewUpstreamAnalysis(credibility)
}

// Suite binds a set of checks to the series of a pipeline and runs them
// with SOUND or BASE_CHECK semantics.
type Suite = checker.Suite

// Accuracy holds naive-vs-SOUND outcome agreement metrics (paper
// Table V).
type Accuracy = checker.Accuracy

// CompareOutcomes computes the accuracy of naive outcomes against SOUND
// results on identical windows. It errors when the slices are not
// index-aligned.
func CompareOutcomes(sound []Result, naive []Outcome) (Accuracy, error) {
	return checker.CompareOutcomes(sound, naive)
}
