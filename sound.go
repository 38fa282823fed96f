// Package sound is a Go implementation of SOUND — sanity checking of
// processing pipelines for uncertain and sparse data series (Stolte et
// al., ICDE 2025).
//
// SOUND evaluates user-defined sanity constraints over data series while
// explicitly modelling two data-quality issues: per-point value
// uncertainty (asymmetric normal error bars) and temporal sparsity. Each
// check is decided by a Bayesian statistical test over quality-aware
// resamples of the checked window and returns one of three outcomes:
// satisfied (⊤), violated (⊥), or — when the evidence does not reach the
// required credibility — inconclusive (⊣).
//
// The package is a facade over the implementation packages; the typical
// flow is:
//
//	data, _ := sound.NewSeries(ts, vs, sigUp, sigDown)
//	check := sound.Check{
//	    Name:        "plausible-range",
//	    Constraint:  sound.Range(0, 100),
//	    SeriesNames: []string{"load"},
//	    Window:      sound.PointWindow{},
//	}
//	eval, _ := sound.NewEvaluator(sound.DefaultParams(), 42)
//	results, _ := check.Run(eval, []sound.Series{data})
//
// Violation analysis (change points, explanations E1–E6, upstream
// drill-down) lives behind ChangePoints, NewAnalyzer, and
// NewUpstreamAnalysis.
//
// Online checking runs the same compiled plans on one kind of stream
// operator: checks register with a Mux (NewMux), and Mux.Factory makes
// the operators, driven by the loop that owns them: a `soundserve`
// shard hands its operator frames, `soundcheck -stream` calls Process
// per CSV event, and the dataflow engine (internal/stream: a goroutine
// per node worker, bounded channels of fixed-size frames, DESIGN.md §4j)
// runs the stream apps behind `soundbench -exp fig4`–`fig6` with their
// checks as side branches. Every stream operator seeds a window's draws from
// the window itself — check class, route key, window coordinate — so
// an online verdict does not depend on worker or shard count, batch
// size, or which other checks are registered (DESIGN.md §4l). The batch
// entry points (Check.Run, CheckPlan.Run and RunParallel, Suite) seed
// each window the same way, at the key "" of a tag route: a batch
// verdict is the verdict `soundcheck -stream` prints for the same check
// and series, at any worker count.
package sound

import (
	"io"

	"sound/internal/core"
	"sound/internal/pipeline"
	"sound/internal/series"
)

// Point is a data point p = (t, v, σ↑, σ↓): a timestamp, a value, and
// the standard deviations of its upward and downward uncertainty.
type Point = series.Point

// Series is a time-ordered sequence of data points.
type Series = series.Series

// NewSeries builds a series from parallel slices; sigUp/sigDown may be
// nil for certain data.
func NewSeries(t, v, sigUp, sigDown []float64) (Series, error) {
	return series.New(t, v, sigUp, sigDown)
}

// FromValues builds a certain series with index timestamps.
func FromValues(v ...float64) Series { return series.FromValues(v...) }

// ReadCSV reads a series in t,v,sig_up,sig_down layout.
func ReadCSV(r io.Reader) (Series, error) { return series.ReadCSV(r) }

// WriteCSV writes a series in t,v,sig_up,sig_down layout.
func WriteCSV(w io.Writer, s Series) error { return series.WriteCSV(w, s) }

// MergeSeries combines multiple series into one time-ordered series.
func MergeSeries(ss ...Series) Series { return series.Merge(ss...) }

// Regularize resamples a series onto a regular grid with spacing dt,
// omitting grid points inside gaps longer than maxGap (honest holes).
func Regularize(s Series, dt, maxGap float64) Series { return series.Regularize(s, dt, maxGap) }

// DiffSeries returns the first-difference series with uncertainties
// combined in quadrature.
func DiffSeries(s Series) Series { return series.Diff(s) }

// CumulativeSeries returns the running sum of a series' values.
func CumulativeSeries(s Series) Series { return series.Cumulative(s) }

// Outcome is the three-valued result of a sanity check evaluation.
type Outcome = core.Outcome

// Outcome values.
const (
	Inconclusive = core.Inconclusive // ⊣
	Satisfied    = core.Satisfied    // ⊤
	Violated     = core.Violated     // ⊥
)

// Constraint is a sanity constraint φᵏ with its taxonomy classification.
type Constraint = core.Constraint

// Taxonomy dimensions (paper Fig. 2).
type (
	// Granularity selects the data points a constraint applies to.
	Granularity = core.Granularity
	// Orderedness distinguishes sequence from set constraints.
	Orderedness = core.Orderedness
)

// Granularity values.
const (
	PointWise    = core.PointWise
	WindowTime   = core.WindowTime
	WindowIndex  = core.WindowIndex
	WindowGlobal = core.WindowGlobal
)

// Orderedness values.
const (
	Set           = core.Set
	SequenceTime  = core.SequenceTime
	SequenceIndex = core.SequenceIndex
)

// Windowing functions ψ.
type (
	// Windower maps k series to a sequence of k-tuples of windows.
	Windower = core.Windower
	// WindowTuple is one element of a windowing function's output.
	WindowTuple = core.WindowTuple
	// PointWindow emits one window per data point.
	PointWindow = core.PointWindow
	// TimeWindow is a sliding/tumbling event-time window.
	TimeWindow = core.TimeWindow
	// CountWindow is a sliding/tumbling tuple-count window.
	CountWindow = core.CountWindow
	// SessionWindow groups points separated by at most a gap.
	SessionWindow = core.SessionWindow
	// GlobalWindow covers each whole series.
	GlobalWindow = core.GlobalWindow
)

// Params are the evaluation parameters: credibility level c, maximum
// sample size N, prior, and decision-rule tuning.
type Params = core.Params

// DefaultParams returns the paper defaults (c = 0.95, N = 100).
func DefaultParams() Params { return core.DefaultParams() }

// Evaluator runs the robust constraint evaluation (paper Alg. 1).
type Evaluator = core.Evaluator

// NewEvaluator returns an Evaluator with the given parameters and seed.
func NewEvaluator(params Params, seed uint64) (*Evaluator, error) {
	return core.NewEvaluator(params, seed)
}

// Result is the outcome of one window evaluation with its evidence.
type Result = core.Result

// Check is a sanity check λ = (φᵏ, sᵏ, ψ).
type Check = core.Check

// CheckPlan is a check compiled for execution: validated once, with
// normalized parameters, a precomputed decision table, and a classified
// window assigner. All execution paths — sequential, parallel, naive,
// and the streaming operators — run off the same plan.
type CheckPlan = core.CheckPlan

// CompilePlan validates a check and compiles it into an executable plan
// with base seed seed.
func CompilePlan(ck Check, params Params, seed uint64) (*CheckPlan, error) {
	return core.CompilePlan(ck, params, seed)
}

// WindowAssigner is the compiled, engine-neutral form of a windowing
// function: its kind plus the numeric parameters needed to assign any
// event to window boundaries.
type WindowAssigner = core.WindowAssigner

// WindowKind classifies a windowing function's assignment semantics.
type WindowKind = core.WindowKind

// WindowKind values.
const (
	KindPoint        = core.KindPoint
	KindTumblingTime = core.KindTumblingTime
	KindSlidingTime  = core.KindSlidingTime
	KindCount        = core.KindCount
	KindGlobal       = core.KindGlobal
	KindSession      = core.KindSession
	KindCustom       = core.KindCustom
)

// ClassifyWindow compiles a windowing function into a WindowAssigner.
func ClassifyWindow(w Windower) WindowAssigner { return core.ClassifyWindow(w) }

// EvaluateNaive applies a constraint to raw window values, ignoring all
// data-quality issues (the BASE_CHECK baseline).
func EvaluateNaive(c Constraint, w WindowTuple) Outcome { return core.EvaluateNaive(c, w) }

// Constraint templates (paper §IV-C and Table IV).
var (
	// Range returns a point-wise constraint a <= x <= b.
	Range = core.Range
	// GreaterThan returns a point-wise constraint x > t.
	GreaterThan = core.GreaterThan
	// NonNegative returns a point-wise constraint x >= 0.
	NonNegative = core.NonNegative
	// FractionInRange requires a fraction of window values in [a, b].
	FractionInRange = core.FractionInRange
	// MonotonicIncrease requires non-decreasing (or strictly
	// increasing) windows.
	MonotonicIncrease = core.MonotonicIncrease
	// MaxDelta bounds max(x) - min(x) over a window.
	MaxDelta = core.MaxDelta
	// CountAtLeast compares the cardinalities of two windows.
	CountAtLeast = core.CountAtLeast
	// StdNonZero requires a window not to be frozen at a constant.
	StdNonZero = core.StdNonZero
	// LowerMeanDelta compares the mean absolute step of two windows.
	LowerMeanDelta = core.LowerMeanDelta
	// CorrelationAbove bounds Pearson correlation from below.
	CorrelationAbove = core.CorrelationAbove
	// CorrelationBelow bounds |Pearson correlation| from above.
	CorrelationBelow = core.CorrelationBelow
	// RSquaredAbove bounds the coefficient of determination from below.
	RSquaredAbove = core.RSquaredAbove
	// KSDistanceBelow bounds the two-sample KS statistic from above.
	KSDistanceBelow = core.KSDistanceBelow
	// KLDivergenceBelow bounds the KL divergence of window histograms.
	KLDivergenceBelow = core.KLDivergenceBelow
)

// Pipeline is the DAG model P = (S, E) of named data series connected by
// operator edges (paper §III-A).
type Pipeline = pipeline.Pipeline

// NewPipeline returns an empty pipeline DAG.
func NewPipeline() *Pipeline { return pipeline.New() }

// Annotation is a set of series names marked by the violation analysis.
type Annotation = pipeline.Annotation
