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
// event-time (or index) coordinate to window boundaries. A Grid runs it:
// the built-in batch windowers replay one over whole series, and the
// streaming operator keeps one per key and feeds it event by event.
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
		if slide == 0 {
			slide = win.Size
		}
		kind := KindTumblingTime
		if slide != win.Size {
			kind = KindSlidingTime
		}
		return WindowAssigner{Kind: kind, Size: win.Size, Slide: slide}
	case CountWindow:
		slide := win.Slide
		if slide == 0 {
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
// a time window's size at most maxOverlap slides, a count window's size
// and slide at least 1. A NaN size breaks the class a streaming group
// is keyed by, a zero or negative one never closes a window, a zero gap
// or count fires on every event or on none, and a slide far below the
// size puts every point in that many windows.
func (a WindowAssigner) valid() bool {
	pos := func(x float64) bool { return x > 0 && x <= math.MaxFloat64 }
	switch a.Kind {
	case KindTumblingTime, KindSlidingTime:
		return pos(a.Size) && pos(a.Slide) && a.Size/a.Slide <= maxOverlap
	case KindCount:
		return a.Count >= 1 && a.CountSlide >= 1
	case KindSession:
		return pos(a.Gap)
	}
	return true
}

// validWindow refuses a windower whose assigner cannot place events.
func validWindow(w Windower) error {
	if !ClassifyWindow(w).valid() {
		return fmt.Errorf("window %v: sizes, slides and gaps must be positive and finite, counts at least 1, a time window at most %d slides long", w, maxOverlap)
	}
	return nil
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
	p, err := params.Normalized()
	if err != nil {
		return nil, err
	}
	return &CheckPlan{check: ck, params: p, seed: seed, assigner: ClassifyWindow(ck.Window), bounds: boundsFor(p)}, nil
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

// checkSeries verifies the runtime inputs match the compiled arity and
// that the window can place every point's time (see
// WindowAssigner.places): a time grid never advances past a time its
// slide cannot move, so such a series is refused instead of run.
func (pl *CheckPlan) checkSeries(ss []series.Series) error {
	if len(ss) != pl.check.Constraint.Arity {
		return fmt.Errorf("core: check %q given %d series, want %d", pl.check.Name, len(ss), pl.check.Constraint.Arity)
	}
	for i, s := range ss {
		for _, p := range s {
			if !pl.assigner.places(p.T) {
				return fmt.Errorf("core: check %q: series %q has time %g, which window %v cannot place",
					pl.check.Name, pl.check.SeriesNames[i], p.T, pl.check.Window)
			}
		}
	}
	return nil
}

// Run evaluates the plan's windows in order on the calling goroutine:
// RunParallel with one worker.
func (pl *CheckPlan) Run(ss []series.Series) ([]Result, error) {
	return pl.RunParallel(context.Background(), ss, 1)
}

// RunNaive evaluates the plan with BASE_CHECK semantics. Window tuples
// match Run exactly, so the result sets are index-aligned.
func (pl *CheckPlan) RunNaive(ss []series.Series) ([]Outcome, error) {
	if err := pl.checkSeries(ss); err != nil {
		return nil, err
	}
	return EvaluateAllNaive(pl.check.Constraint, pl.check.Window, ss), nil
}

// batchPool recycles RunParallel's window scratch, and loneGroups the
// one-member groups its workers evaluate through (rebound to each plan;
// see PlanGroup.bind): a plan is immutable and may run concurrently, so
// it cannot own either, and a short run would otherwise pay more to build
// a group's lanes than to evaluate its windows.
var (
	batchPool  = sync.Pool{New: func() any { return new(batchWindows) }}
	loneGroups = sync.Pool{New: func() any { return new(PlanGroup) }}
)

// RunParallel evaluates the plan's windows with up to workers goroutines
// (0 selects GOMAXPROCS; one runs on the caller's goroutine). Each worker
// evaluates its windows through its own one-member PlanGroup, at the seed
// the stream gives the same window: WindowSeed of the tag route's key ""
// and the window's coordinate. So a batch verdict is the verdict
// soundcheck -stream prints, and the worker count changes only the
// speed. A cancelled context stops the workers between windows and
// returns ctx.Err().
func (pl *CheckPlan) RunParallel(ctx context.Context, ss []series.Series, workers int) ([]Result, error) {
	if err := pl.checkSeries(ss); err != nil {
		return nil, err
	}
	b := batchPool.Get().(*batchWindows)
	defer batchPool.Put(b)
	tuples := b.fill(pl.check.Window, ss)
	out := make([]Result, len(tuples))
	if len(tuples) == 0 {
		return out, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(tuples))
	done := ctx.Done()
	if workers == 1 {
		pl.evalWindows(tuples, b.coords, out, 0, 1, done)
	} else {
		var wg sync.WaitGroup
		n := workers // captured here, so a one-worker run allocates no closure state
		for w := range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pl.evalWindows(tuples, b.coords, out, w, n, done)
			}()
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// evalWindows is one RunParallel worker: it evaluates windows w,
// w+workers, … into out through a pooled one-member group, each at
// WindowSeed(batchKeyHash, its coordinate), and stops between windows
// once done is closed.
func (pl *CheckPlan) evalWindows(tuples []WindowTuple, coords []uint64, out []Result, w, workers int, done <-chan struct{}) {
	g := loneGroups.Get().(*PlanGroup)
	defer loneGroups.Put(g)
	// A lone plan is its own group class, so this cannot fail. The group's
	// own plan slice holds it, so binding allocates nothing.
	_ = g.bind(append(g.plans[:0], pl))
	for i := w; i < len(tuples); i += workers {
		select {
		case <-done:
			return
		default:
		}
		g.Evaluate(g.WindowSeed(batchKeyHash, coords[i]), tuples[i], out[i:i+1])
	}
}
