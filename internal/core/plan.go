package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"sound/internal/series"
)

// WindowKind classifies a windowing function's assignment semantics. The
// classification is what lets one execution core serve both the batch
// path (materialize all window tuples, evaluate each) and the streaming
// path (assign each arriving event to its open windows): both sides
// agree on the window boundaries because both read them from the same
// WindowAssigner.
type WindowKind uint8

const (
	// KindPoint emits one single-point window tuple per index.
	KindPoint WindowKind = iota
	// KindTumblingTime partitions event time into [k·size, (k+1)·size).
	KindTumblingTime
	// KindSlidingTime emits overlapping time windows advancing by slide.
	KindSlidingTime
	// KindCount groups fixed numbers of consecutive points.
	KindCount
	// KindGlobal covers each whole series with a single window.
	KindGlobal
	// KindSession groups points separated by at most a gap.
	KindSession
	// KindCustom is a user-provided Windower the classifier does not
	// recognize; it runs on the batch path only.
	KindCustom
)

func (k WindowKind) String() string {
	switch k {
	case KindPoint:
		return "point"
	case KindTumblingTime:
		return "tumbling-time"
	case KindSlidingTime:
		return "sliding-time"
	case KindCount:
		return "count"
	case KindGlobal:
		return "global"
	case KindSession:
		return "session"
	}
	return "custom"
}

// WindowAssigner is the compiled, engine-neutral form of a windowing
// function ψ: its kind plus the numeric parameters needed to assign any
// event-time (or index) coordinate to window boundaries. Batch execution
// keeps using the original Windower to materialize tuples; streaming
// operators use the assigner to maintain open windows incrementally.
type WindowAssigner struct {
	Kind WindowKind
	// Size and Slide configure time windows (Slide == Size when
	// tumbling).
	Size, Slide float64
	// Count and CountSlide configure count windows (CountSlide == Count
	// when tumbling).
	Count, CountSlide int
	// Gap configures session windows.
	Gap float64
}

// ClassifyWindow compiles a Windower into a WindowAssigner. Unknown
// implementations classify as KindCustom, which batch execution
// accepts unchanged and streaming execution rejects.
func ClassifyWindow(w Windower) WindowAssigner {
	switch win := w.(type) {
	case PointWindow:
		return WindowAssigner{Kind: KindPoint}
	case TimeWindow:
		slide := win.Slide
		if slide <= 0 {
			slide = win.Size
		}
		kind := KindTumblingTime
		if slide != win.Size {
			kind = KindSlidingTime
		}
		return WindowAssigner{Kind: kind, Size: win.Size, Slide: slide}
	case CountWindow:
		slide := win.Slide
		if slide <= 0 {
			slide = win.Size
		}
		return WindowAssigner{Kind: KindCount, Count: win.Size, CountSlide: slide}
	case GlobalWindow:
		return WindowAssigner{Kind: KindGlobal}
	case SessionWindow:
		return WindowAssigner{Kind: KindSession, Gap: win.Gap}
	}
	return WindowAssigner{Kind: KindCustom}
}

// valid reports whether the assigner's parameters can place events: a
// time window's size and slide and a session's gap positive and finite,
// a count window's size and slide at least 1. A NaN size breaks the
// class a streaming group is keyed by, a zero or negative one never
// closes a window, and a zero gap or count fires on every event or on
// none.
func (a WindowAssigner) valid() bool {
	pos := func(x float64) bool { return x > 0 && x <= math.MaxFloat64 }
	switch a.Kind {
	case KindTumblingTime, KindSlidingTime:
		return pos(a.Size) && pos(a.Slide)
	case KindCount:
		return a.Count >= 1 && a.CountSlide >= 1
	case KindSession:
		return pos(a.Gap)
	}
	return true
}

// CheckPlan is a sanity check compiled for execution: the check is
// validated once, the evaluation parameters are normalized once, the
// sequential-decision boundary table is resolved once from the shared
// cache, and the windowing function is classified into a WindowAssigner.
// A plan is immutable and safe to share across goroutines; every
// execution path — sequential batch, parallel batch, naive baseline, and
// the streaming operators in internal/checker — runs off the same plan,
// so window semantics and decision tables cannot diverge between them.
type CheckPlan struct {
	check    Check
	params   Params
	seed     uint64
	assigner WindowAssigner
	bounds   *decisionBounds
}

// CompilePlan validates the check, normalizes the parameters, and
// returns the compiled plan with base seed seed.
func CompilePlan(ck Check, params Params, seed uint64) (*CheckPlan, error) {
	if err := ck.Validate(); err != nil {
		return nil, err
	}
	return newPlan(ck, params, seed)
}

// newPlan compiles without structural validation, for internal paths
// that assemble the check from already-checked parts (and for
// EvaluateAllParallel, which takes a bare constraint and no check to
// validate).
func newPlan(ck Check, params Params, seed uint64) (*CheckPlan, error) {
	p, err := params.normalized()
	if err != nil {
		return nil, err
	}
	return &CheckPlan{
		check:    ck,
		params:   p,
		seed:     seed,
		assigner: ClassifyWindow(ck.Window),
		bounds:   boundsFor(p),
	}, nil
}

// Compile is CompilePlan bound to the check.
func (ck Check) Compile(params Params, seed uint64) (*CheckPlan, error) {
	return CompilePlan(ck, params, seed)
}

// Check returns the compiled check.
func (pl *CheckPlan) Check() Check { return pl.check }

// Params returns the normalized evaluation parameters.
func (pl *CheckPlan) Params() Params { return pl.params }

// Seed returns the plan's base seed.
func (pl *CheckPlan) Seed() uint64 { return pl.seed }

// Arity returns the number of series the check binds.
func (pl *CheckPlan) Arity() int { return pl.check.Constraint.Arity }

// Assigner returns the compiled window assigner.
func (pl *CheckPlan) Assigner() WindowAssigner { return pl.assigner }

// NewEvaluator returns an evaluator seeded Seed()+seedOffset. It skips
// parameter re-validation and shares the plan's precomputed decision
// table; the result is indistinguishable from
// NewEvaluator(Params(), Seed()+seedOffset).
func (pl *CheckPlan) NewEvaluator(seedOffset uint64) *Evaluator {
	return newEvaluator(pl.params, pl.bounds, pl.seed+seedOffset)
}

// EvaluatorAt returns an evaluator with the plan's normalized parameters
// and shared decision table, seeded at exactly seed (not offset by the
// plan's base seed). Violation analyzers attach to a compiled plan through
// it, so explanation what-ifs reuse the table the check evaluation already
// resolved instead of re-resolving it per analyzer.
func (pl *CheckPlan) EvaluatorAt(seed uint64) *Evaluator {
	return newEvaluator(pl.params, pl.bounds, seed)
}

// checkSeries verifies the runtime inputs match the compiled arity.
func (pl *CheckPlan) checkSeries(ss []series.Series) error {
	if len(ss) != pl.check.Constraint.Arity {
		return fmt.Errorf("core: check %q given %d series, want %d", pl.check.Name, len(ss), pl.check.Constraint.Arity)
	}
	return nil
}

// RunWith evaluates the plan on the series with the caller's evaluator —
// the sequential batch path of Alg. 1.
func (pl *CheckPlan) RunWith(e *Evaluator, ss []series.Series) ([]Result, error) {
	if err := pl.checkSeries(ss); err != nil {
		return nil, err
	}
	return e.EvaluateAll(pl.check.Constraint, pl.check.Window, ss), nil
}

// Run evaluates the plan sequentially with a fresh evaluator seeded at
// the plan's base seed.
func (pl *CheckPlan) Run(ss []series.Series) ([]Result, error) {
	return pl.RunWith(pl.NewEvaluator(0), ss)
}

// RunNaive evaluates the plan with BASE_CHECK semantics. Window tuples
// match Run exactly, so the result sets are index-aligned.
func (pl *CheckPlan) RunNaive(ss []series.Series) ([]Outcome, error) {
	if err := pl.checkSeries(ss); err != nil {
		return nil, err
	}
	return EvaluateAllNaive(pl.check.Constraint, pl.check.Window, ss), nil
}

// RunParallel evaluates the plan's windows with up to workers goroutines
// (0 selects GOMAXPROCS). Every window is evaluated under a private,
// per-window derived seed, so results are deterministic for a fixed plan
// and independent of the worker count. A cancelled context stops the
// workers between windows and returns ctx.Err().
func (pl *CheckPlan) RunParallel(ctx context.Context, ss []series.Series, workers int) ([]Result, error) {
	if err := pl.checkSeries(ss); err != nil {
		return nil, err
	}
	return pl.runParallelTuples(ctx, ss, workers)
}

// tuplePool recycles runParallelTuples' tuple buffers: a plan is
// immutable and may run concurrently, so it cannot own one. Only the
// tuple structs are reused; Results keep fresh window slices.
var tuplePool = sync.Pool{New: func() any { return new([]WindowTuple) }}

func (pl *CheckPlan) runParallelTuples(ctx context.Context, ss []series.Series, workers int) ([]Result, error) {
	buf := tuplePool.Get().(*[]WindowTuple)
	defer tuplePool.Put(buf)
	tuples := windowTuples(pl.check.Window, ss, buf)
	out := make([]Result, len(tuples))
	if len(tuples) == 0 {
		return out, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tuples) {
		workers = len(tuples)
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One pooled evaluator per worker (params pre-normalized and
			// bounds pre-resolved by the plan), reseeded per window from
			// the window index alone: allocations stay O(workers) while
			// the per-window streams — and therefore the results — stay
			// independent of the worker count.
			e := pl.NewEvaluator(0)
			for i := w; i < len(tuples); i += workers {
				select {
				case <-done:
					return
				default:
				}
				e.Reseed(pl.seed ^ (uint64(i)*0x9e3779b97f4a7c15 + 1))
				e.evaluateInto(&out[i], &pl.check.Constraint, tuples[i])
			}
		}()
	}
	wg.Wait()
	if ctx != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return out, nil
}
