package checker

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"sound/internal/core"
	"sound/internal/resample"
	"sound/internal/series"
	"sound/internal/stream"
)

// This file provides the online instrumentation: stream-engine operators
// that evaluate sanity checks in parallel to the nominal processing
// (paper §IV-A, "evaluation is performed as soon as the data is available
// and in parallel to the nominal data processing"). The operators are
// pass-through: every input event is forwarded unchanged, and the check
// work rides on top — exactly the overhead the paper measures in
// Figs. 4-6.
//
// One generic operator serves every arity and window shape. It is driven
// by the same compiled core.CheckPlan the batch paths run on, so window
// boundaries, evaluator parameters, and decision tables cannot diverge
// between offline checking and online instrumentation — the batch/stream
// unification of §IV-A.

// StreamOutcomes accumulates check outcomes observed online, plus the
// state-lifecycle counters of the eviction layer. Safe for concurrent
// use by multiple operator workers.
type StreamOutcomes struct {
	satisfied, violated, inconclusive atomic.Int64
	// Lifecycle counters (DESIGN.md §4i): groups reclaimed by the
	// eviction policy, events dropped below the fired horizon, and
	// events rejected by the admission policy.
	evictedGroups, droppedLate, rejectedEvents atomic.Int64
}

// Add records one outcome.
func (so *StreamOutcomes) Add(o core.Outcome) {
	switch o {
	case core.Satisfied:
		so.satisfied.Add(1)
	case core.Violated:
		so.violated.Add(1)
	default:
		so.inconclusive.Add(1)
	}
}

// Counts returns the accumulated totals.
func (so *StreamOutcomes) Counts() OutcomeCounts {
	return OutcomeCounts{
		Satisfied:    int(so.satisfied.Load()),
		Violated:     int(so.violated.Load()),
		Inconclusive: int(so.inconclusive.Load()),
	}
}

// LifecycleCounts reports the state-lifecycle events of a stream run.
type LifecycleCounts struct {
	// EvictedGroups counts window groups reclaimed by the eviction
	// policy (idle TTL, group cap, or byte budget).
	EvictedGroups int
	// DroppedLate counts events below their group's fired horizon:
	// every window containing them had already fired, so they were
	// forwarded but not buffered.
	DroppedLate int
	// RejectedEvents counts events refused by the admission policy
	// (OnPressure declined to evict for them).
	RejectedEvents int
}

// Lifecycle returns the accumulated lifecycle counters.
func (so *StreamOutcomes) Lifecycle() LifecycleCounts {
	return LifecycleCounts{
		EvictedGroups:  int(so.evictedGroups.Load()),
		DroppedLate:    int(so.droppedLate.Load()),
		RejectedEvents: int(so.rejectedEvents.Load()),
	}
}

// RouteFunc attributes an event to a check input and a window-state
// group. input selects the series slot (0-based, < the check's arity);
// key selects the keyed window state, so windows are maintained per
// group independently ("" keeps one global group). ok = false means the
// event is not part of the check — it is forwarded but not buffered.
type RouteFunc func(ev stream.Event) (input int, key string, ok bool)

// ByEventKey routes every event to input 0, grouped by the event's own
// partitioning key — the default for unary checks on keyed streams.
func ByEventKey() RouteFunc {
	return func(ev stream.Event) (int, string, bool) { return 0, ev.Key, true }
}

// ByInputKeys routes events whose Key equals the i-th tag to input i,
// all sharing one global window group: the route of a k-ary check whose
// inputs arrive as k tagged series on one stream.
func ByInputKeys(tags ...string) RouteFunc {
	idx := make(map[string]int, len(tags))
	for i, t := range tags {
		idx[t] = i
	}
	return func(ev stream.Event) (int, string, bool) {
		i, ok := idx[ev.Key]
		return i, "", ok
	}
}

// ByKeyedInputs routes events whose Key has the form "<group><sep><tag>"
// to the input matching tag, windowed per group — per-key N-ary checks
// (e.g. "house1/load" vs "house1/base" compared per house).
func ByKeyedInputs(sep string, tags ...string) RouteFunc {
	idx := make(map[string]int, len(tags))
	for i, t := range tags {
		idx[t] = i
	}
	return func(ev stream.Event) (int, string, bool) {
		cut := -1
		for j := len(ev.Key) - len(sep); j >= 0; j-- {
			if ev.Key[j:j+len(sep)] == sep {
				cut = j
				break
			}
		}
		if cut < 0 {
			return 0, "", false
		}
		i, ok := idx[ev.Key[cut+len(sep):]]
		return i, ev.Key[:cut], ok
	}
}

// StreamCheck configures the generic N-ary keyed stream check operator.
type StreamCheck struct {
	// Check is the sanity check to evaluate online.
	Check core.Check
	// Params and Seed configure the SOUND evaluation (ignored by Naive).
	Params core.Params
	Seed   uint64
	// Naive selects BASE_CHECK semantics instead of Alg. 1.
	Naive bool
	// Forward passes every input event downstream unchanged (inline
	// instrumentation); false consumes the input (side-branch operator).
	Forward bool
	// Out accumulates the observed outcomes (may be nil).
	Out *StreamOutcomes
	// Route attributes events to check inputs and window groups. Nil
	// defaults to ByEventKey for unary checks; checks of arity > 1
	// must set it.
	Route RouteFunc
	// Evict bounds the operator's keyed state (zero value: keep every
	// group forever).
	Evict EvictionPolicy
	// Registry, when set, makes the operator checkpointable: workers
	// register their state with it, and a snapshot taken at a stream
	// barrier can be restored into a fresh operator. One registry serves
	// exactly one operator.
	Registry *StreamRegistry
	// OnOutcome, when set, observes every (group key, outcome) pair in
	// evaluation order, on the evaluating worker's goroutine.
	OnOutcome func(key string, o core.Outcome)
}

// NewStreamChecker compiles the check into a core.CheckPlan and returns
// a stream operator factory evaluating it online. The plan's window
// assigner drives per-group window state for any arity: point-wise,
// tumbling and sliding time windows, count windows, session windows
// (unary), and global windows. It errors on checks that cannot run
// online (custom batch-only windowers, missing routes).
func NewStreamChecker(cfg StreamCheck) (func() stream.Processor, error) {
	m, err := newMemberSpec(cfg.Check, cfg.Params, cfg.Seed, cfg.Naive, cfg.Out, cfg.OnOutcome)
	if err != nil {
		return nil, err
	}
	route, err := resolveRoute(cfg.Route, &cfg.Check, m.plan.Arity())
	if err != nil {
		return nil, err
	}
	if cfg.Registry != nil {
		cfg.Registry.bind(cfg.Out)
	}
	members := []*memberSpec{m}
	return func() stream.Processor {
		return newOperator(members, route, cfg.Forward, cfg.Evict, cfg.Registry, nil)
	}, nil
}

// resolveRoute applies the route-defaulting rules shared by
// NewStreamChecker and Mux.Register.
func resolveRoute(route RouteFunc, ck *core.Check, arity int) (RouteFunc, error) {
	if route != nil {
		return route, nil
	}
	if arity != 1 {
		return nil, fmt.Errorf("checker: check %q has arity %d and needs an explicit Route", ck.Name, arity)
	}
	return ByEventKey(), nil
}

// newOperator assembles one worker instance of the generic operator for
// the given member set. All members share the operator's window state
// and the PlanGroup installMembers compiles for them.
func newOperator(members []*memberSpec, route RouteFunc, forward bool, evict EvictionPolicy, reg *StreamRegistry, gm *GroupMetrics) *streamChecker {
	c := &streamChecker{
		asg:     members[0].plan.Assigner(),
		arity:   members[0].plan.Arity(),
		forward: forward,
		route:   route,
		groups:  map[string]*groupState{},
		evict:   evict,
		reg:     reg,
		metrics: gm,
	}
	c.installMembers(members)
	// The lifecycle predicates are constant for the operator's
	// lifetime; caching them keeps the per-event ingest path free of
	// repeated policy re-derivation.
	c.stateful = c.statefulGroups()
	c.evictOn = c.evict.enabled()
	c.track = c.trackGroups()
	c.acct = c.trackBytes()
	return c
}

// MustStreamChecker is NewStreamChecker that panics on compile errors,
// for wiring code with static check definitions.
func MustStreamChecker(cfg StreamCheck) func() stream.Processor {
	f, err := NewStreamChecker(cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// streamChecker is one worker's instance of the generic operator. Keyed
// partitioning guarantees a group's events reach one worker, so the
// per-group state needs no locking. One operator hosts one or more
// member checks over ONE set of window buffers and extractions, and
// evaluates every fired window's SOUND members through one
// core.PlanGroup whose draws are derived from the window coordinate (see
// evaluate) — for one member exactly as for many, so a verdict never
// depends on worker count, evaluation order, or co-registered checks.
type streamChecker struct {
	members []*memberSpec
	// planGroup evaluates the SOUND members (nil for a Naive-only bucket,
	// which then maintains no SoA extractions either — see useExt);
	// resBuf receives their results, in member order.
	planGroup *core.PlanGroup
	resBuf    []core.Result
	metrics   *GroupMetrics
	asg       core.WindowAssigner
	arity     int
	forward   bool
	route     RouteFunc
	groups    map[string]*groupState
	// State lifecycle (DESIGN.md §4i): evict is the memory policy, reg
	// the checkpoint registry, onOutcome the outcome observer.
	evict     EvictionPolicy
	reg       *StreamRegistry
	onOutcome func(key string, o core.Outcome)
	// Cached lifecycle predicates (see the factory): statefulGroups,
	// evict.enabled, trackGroups, trackBytes respectively.
	stateful, evictOn, track, acct bool
	// LRU list of live groups (head = most recently touched), maintained
	// for every stateful windowing kind so eviction and checkpointing see
	// a deterministic recency order, and the accounted footprint of all
	// live groups (maintained only while the policy consumes it — see
	// trackBytes).
	lruHead, lruTail *groupState
	liveBytes        int64
	// opWatermark is the worker-level event-time high-water mark that
	// drives idle-group eviction.
	opWatermark float64
	// lastKey/lastG cache the most recent group lookup: events arrive in
	// key runs (especially frame-at-a-time on keyed edges), so most
	// lookups hit the cache instead of the map.
	lastKey string
	lastG   *groupState
	// Reusable scratch keeps the per-event hot path allocation-free.
	pointBuf series.Series
	winBuf   [1]series.Series
	// viewBuf is the per-fire view scratch handed to the evaluator; views
	// are consumed within the evaluation call (the evaluator strips them
	// from its Result), so one buffer serves every fire.
	viewBuf []resample.View
}

// useExt reports whether the operator maintains SoA extractions beside
// its window buffers: only SOUND evaluation reads them.
func (c *streamChecker) useExt() bool { return c.planGroup != nil }

// views returns the k-slot view scratch.
func (c *streamChecker) views(k int) []resample.View {
	if cap(c.viewBuf) < k {
		c.viewBuf = make([]resample.View, k)
	}
	return c.viewBuf[:k]
}

// groupState is the window state of one route group (one key, or the
// global group "").
type groupState struct {
	// key is the route group's identity, fixed at creation.
	key string
	// lastT is the maximum event time this group has received; the
	// eviction sweep compares it against the worker's watermark.
	lastT float64
	// bytes is the group's last accounted footprint (see footprint).
	bytes int64
	// prev/next link the worker's LRU list (head = most recent).
	prev, next *groupState
	// Time-window grid state. The grid is anchored at origin, the group's
	// first observed timestamp, and replicates the batch TimeWindow loop
	// verbatim: starts advance from origin by slide with the same float
	// accumulation. nextStart is the start of the earliest un-fired
	// window; fired records whether any window has fired yet (while it is
	// false an out-of-order arrival below origin may still re-anchor the
	// grid, exactly as a batch run over the full series would).
	origin    float64
	hasOrigin bool
	nextStart float64
	fired     bool
	watermark float64
	// raw accumulates the not-yet-consumed points per input for time
	// windows; windows are sliced from it at fire time with the same
	// SliceTime the batch path uses.
	raw []series.Series
	// bufs accumulates points per input for count/global/session kinds.
	bufs []series.Series
	// Count-window alignment: drop[i] is the absolute index of bufs[i][0]
	// in input i's full point sequence; nextIdx is the absolute start
	// index of the earliest un-fired count window. Tracking absolute
	// indices lets Slide > Size hop over points exactly like the batch
	// CountWindow instead of re-slicing past the buffer end.
	drop    []int
	nextIdx int
	// pend queues points per input for point-wise alignment (arity > 1).
	pend []series.Series
	// ext mirrors the window buffers (raw for time windows, bufs for
	// count windows) as SoA extractions, kept in sync incrementally:
	// in-order appends extend them, a fire-time reorder rebuilds, and the
	// post-fire copy-down trims. Overlapping windows of one group then
	// prime the evaluator's resampling kernels through views into one
	// shared extraction instead of re-extracting every window. Unused
	// (nil) under naive evaluation.
	ext []resample.Extraction
	// session bounds.
	sessStart, sessPrev float64
	sessOpen            bool
}

func (c *streamChecker) group(key string) *groupState {
	if g := c.peek(key); g != nil {
		return g
	}
	g := &groupState{key: key}
	c.groups[key] = g
	if c.track {
		c.lruPushFront(g)
	}
	c.lastKey, c.lastG = key, g
	return g
}

// peek returns the group without creating it. A found group primes the
// lookup cache, so the admission test and the window dispatch of one
// event cost one map lookup between them; evictGroup drops the entry
// with the group.
func (c *streamChecker) peek(key string) *groupState {
	if c.lastG != nil && c.lastKey == key {
		return c.lastG
	}
	g := c.groups[key]
	if g != nil {
		c.lastKey, c.lastG = key, g
	}
	return g
}

func (g *groupState) inputs(arity int) []series.Series {
	if g.bufs == nil {
		g.bufs = make([]series.Series, arity)
	}
	return g.bufs
}

// Process implements stream.Processor.
func (c *streamChecker) Process(ev stream.Event, emit stream.EmitFunc) {
	if c.forward {
		emit(ev) // pass-through first: the nominal pipeline is not delayed by buffering
	}
	c.ingest(ev)
}

// ProcessFrame implements stream.FrameProcessor: the whole transport
// frame is forwarded and then ingested in one pass. Events are still
// routed and window-checked one by one — a later event in the frame may
// only be admissible because an earlier one fired a window — but the
// per-frame loop shares the group-lookup cache across the frame's key
// runs and fires due windows with the deferred bulk scan in ingest, so
// the outcome sequence is identical to calling Process per event.
func (c *streamChecker) ProcessFrame(evs []stream.Event, emit stream.EmitFunc) {
	if c.forward {
		for i := range evs {
			emit(evs[i])
		}
	}
	for i := range evs {
		c.ingest(evs[i])
	}
}

// Forwarding implements stream.ForwardingFrameProcessor: a Forward
// checker emits every input event unchanged, in input order, before any
// derived emission — exactly the contract that lets the engine bulk-
// forward the frame itself instead of running the per-event emit loop
// above. This is the instrumentation-overhead half of the paper's
// evaluation: the pass-through cost drops to one frame copy (or none,
// into a fused metrics sink) while the check work stays identical.
func (c *streamChecker) Forwarding() bool { return c.forward }

// ProcessFrameForwarded implements stream.ForwardingFrameProcessor:
// ingest only — the engine has already forwarded the frame.
func (c *streamChecker) ProcessFrameForwarded(evs []stream.Event, emit stream.EmitFunc) {
	for i := range evs {
		c.ingest(evs[i])
	}
}

// ingest routes one event into its window group. It is the shared body
// of Process and ProcessFrame. Around the window dispatch it runs the
// state lifecycle: advance the worker watermark (sweeping idle groups),
// admit the event's group under the eviction policy, and re-account the
// group's footprint after the event lands.
func (c *streamChecker) ingest(ev stream.Event) {
	input, key, ok := c.route(ev)
	if !ok || input < 0 || input >= c.arity {
		return
	}
	if c.evictOn && c.stateful {
		if ev.Time > c.opWatermark {
			c.opWatermark = ev.Time
			c.sweepIdle()
		}
		if !c.admit(key) {
			c.noteRejected()
			return
		}
	}
	p := series.Point{T: ev.Time, V: ev.Value, SigUp: ev.SigUp, SigDown: ev.SigDown}
	switch c.asg.Kind {
	case core.KindPoint:
		c.processPoint(key, input, p)
	case core.KindTumblingTime, core.KindSlidingTime:
		c.processTime(key, input, p)
	case core.KindCount:
		c.processCount(key, input, p)
	case core.KindGlobal:
		g := c.group(key)
		bufs := g.inputs(c.arity)
		bufs[input] = append(bufs[input], p)
	case core.KindSession:
		c.processSession(key, p)
	}
	if c.track && c.stateful {
		if g := c.peek(key); g != nil {
			c.touch(g, ev.Time)
		}
	}
}

// processPoint evaluates single-point tuples. Unary checks evaluate
// immediately on a reused buffer; k-ary checks align the inputs by
// arrival order per group, evaluating as soon as every input has a
// pending point — the streaming mirror of PointWindow's index alignment.
func (c *streamChecker) processPoint(key string, input int, p series.Point) {
	if c.arity == 1 {
		if c.pointBuf == nil {
			c.pointBuf = make(series.Series, 1)
		}
		c.pointBuf[0] = p
		c.winBuf[0] = c.pointBuf
		// The point's own timestamp is the window coordinate: unary point
		// checks keep no per-key state, and a duplicate timestamp simply
		// reuses its draw stream (identical evidence → identical verdict).
		c.evaluate(key, core.WindowTuple{Windows: c.winBuf[:], Start: p.T, End: p.T}, math.Float64bits(p.T))
		return
	}
	g := c.group(key)
	if g.pend == nil {
		g.pend = make([]series.Series, c.arity)
	}
	g.pend[input] = append(g.pend[input], p)
	for {
		ready := true
		for i := range g.pend {
			if len(g.pend[i]) == 0 {
				ready = false
				break
			}
		}
		if !ready {
			return
		}
		ws := make([]series.Series, c.arity)
		for i := range g.pend {
			ws[i] = g.pend[i][:1:1]
			g.pend[i] = g.pend[i][1:]
		}
		c.evaluate(key, core.WindowTuple{Windows: ws, Start: ws[0][0].T, End: ws[0][0].T}, math.Float64bits(ws[0][0].T))
	}
}

// processTime buffers the event and fires every time window the group's
// watermark — the maximum event time seen — has closed. The window grid
// is anchored at the group's first observed timestamp, matching the
// batch TimeWindow, which starts at the union-span minimum; events
// arriving out of order within a still-open window are buffered and
// time-sorted before slicing, so they land in the correct windows. A
// late event below the fired horizon is dropped (after forwarding):
// every window containing it has already fired, and re-opening a closed
// window would evaluate the same boundaries twice.
func (c *streamChecker) processTime(key string, input int, p series.Point) {
	g := c.group(key)
	if !g.hasOrigin {
		g.origin, g.nextStart, g.watermark = p.T, p.T, p.T
		g.hasOrigin = true
	} else if p.T < g.origin && !g.fired {
		// Out-of-order arrival before the anchor while no window has
		// fired yet: shift the grid to the new first timestamp, exactly
		// what a batch run over the full series would use.
		g.origin, g.nextStart = p.T, p.T
	}
	if p.T < g.nextStart {
		// Every window containing p (starts in (p.T−size, p.T]) already
		// fired; dropping keeps each window's boundaries evaluated once.
		c.noteDroppedLate()
		return
	}
	if g.raw == nil {
		g.raw = make([]series.Series, c.arity)
	}
	g.raw[input] = append(g.raw[input], p)
	if p.T > g.watermark {
		g.watermark = p.T
	}
	// Only run the fire scan when the watermark has actually closed the
	// earliest un-fired window — the same end <= watermark comparison the
	// scan's loop would make before bailing out. Between fires, appends
	// are O(1): buffer sorting and extraction sync are deferred to the
	// next fire, where the reorder check and ExtendFrom/Extract rebuild
	// produce the identical extraction state in bulk (frame-at-a-time
	// when frames arrive batched) instead of once per event.
	if g.nextStart+c.asg.Size <= g.watermark {
		c.fireDueTimeWindows(g, false)
	}
}

// fireDueTimeWindows evaluates, in grid order, every window the group's
// watermark has closed (end <= watermark); with final it extends to
// every window batch would emit (start <= last timestamp). The loop
// replicates batch TimeWindow.Windows verbatim — same anchor, same
// float accumulation of starts, same half-open SliceTime — and empty
// grid slots across data gaps are evaluated too, so the stream emits
// the identical window tuple sequence.
func (c *streamChecker) fireDueTimeWindows(g *groupState, final bool) {
	if !g.hasOrigin || c.asg.Size <= 0 || c.asg.Slide <= 0 {
		return
	}
	useExt := c.useExt()
	if useExt && g.ext == nil {
		g.ext = make([]resample.Extraction, c.arity)
	}
	for i := range g.raw {
		reordered := sortByTime(g.raw[i])
		if !useExt {
			continue
		}
		// Keep the shared extraction in sync with the buffer: a reorder
		// invalidates the extracted prefix (rebuild), in-order appends
		// only add new points (extend).
		if reordered {
			g.ext[i].Extract(g.raw[i])
		} else {
			g.ext[i].ExtendFrom(g.raw[i])
		}
	}
	for {
		start, end := g.nextStart, g.nextStart+c.asg.Size
		if final {
			if start > g.watermark {
				return
			}
		} else if end > g.watermark {
			return
		}
		ws := make([]series.Series, c.arity)
		var ext []resample.View
		if useExt {
			ext = c.views(c.arity)
		}
		for i := range g.raw {
			ws[i] = g.raw[i].SliceTime(start, end)
			if useExt {
				// series.At is the same lower bound SliceTime just used,
				// so the view covers exactly the window's points.
				lo := g.raw[i].At(start)
				ext[i] = g.ext[i].Slice(lo, lo+len(ws[i]))
			}
		}
		c.evaluate(g.key, core.WindowTuple{Windows: ws, Ext: ext, Start: start, End: end}, math.Float64bits(start))
		g.fired = true
		g.nextStart += c.asg.Slide
		for i := range g.raw {
			// Points below the next start belong only to fired windows.
			// Copy down into a fresh array instead of re-slicing: the
			// evaluated window aliased this one, so later appends must not
			// clobber it — and the buffer must not grow unboundedly.
			if n := g.raw[i].At(g.nextStart); n > 0 {
				rest := g.raw[i][n:]
				next := make(series.Series, len(rest), len(rest)+n)
				copy(next, rest)
				g.raw[i] = next
				if useExt {
					g.ext[i].TrimFront(n)
				}
			}
		}
	}
}

// processCount accumulates per-input buffers and fires count windows as
// soon as every input covers the next window's absolute index range
// [nextIdx, nextIdx+count) — index-aligned across inputs exactly like
// the batch CountWindow. Absolute indices (buffer offset + drop count)
// make every slide legal: overlapping (Slide < Size), tumbling, and
// hopping (Slide > Size), where the points in the skipped gap are
// discarded on arrival just as batch never materializes them.
func (c *streamChecker) processCount(key string, input int, p series.Point) {
	if c.asg.Count <= 0 || c.asg.CountSlide <= 0 {
		return
	}
	g := c.group(key)
	bufs := g.inputs(c.arity)
	if g.drop == nil {
		g.drop = make([]int, c.arity)
	}
	if g.drop[input]+len(bufs[input]) < g.nextIdx {
		// The point's index falls in a gap the slide hopped over.
		g.drop[input]++
		return
	}
	bufs[input] = append(bufs[input], p)
	useExt := c.useExt()
	if useExt {
		// Count windows never reorder (arrival order is the index), so the
		// shared extraction extends one point at a time, in lockstep with
		// the buffer.
		if g.ext == nil {
			g.ext = make([]resample.Extraction, c.arity)
		}
		g.ext[input].AppendPoint(p)
	}
	for {
		for i := range bufs {
			if g.drop[i]+len(bufs[i]) < g.nextIdx+c.asg.Count {
				return
			}
		}
		ws := make([]series.Series, c.arity)
		var ext []resample.View
		if useExt {
			ext = c.views(c.arity)
		}
		for i := range bufs {
			off := g.nextIdx - g.drop[i]
			ws[i] = bufs[i][off : off+c.asg.Count : off+c.asg.Count]
			if useExt {
				ext[i] = g.ext[i].Slice(off, off+c.asg.Count)
			}
		}
		start, end := ws[0][0].T, ws[0][len(ws[0])-1].T
		// The absolute start index is the count window's coordinate: it is
		// arrival-order-defined, identical on every worker layout.
		c.evaluate(g.key, core.WindowTuple{Windows: ws, Ext: ext, Start: start, End: end}, uint64(g.nextIdx))
		g.nextIdx += c.asg.CountSlide
		for i := range bufs {
			n := g.nextIdx - g.drop[i]
			if n > len(bufs[i]) {
				n = len(bufs[i])
			}
			// Copy down instead of re-slicing: the evaluated window
			// aliased the array head, so the next append must not
			// clobber it — and the buffer must not grow unboundedly.
			rest := bufs[i][n:]
			next := make(series.Series, len(rest), c.asg.Count+len(rest))
			copy(next, rest)
			bufs[i] = next
			g.drop[i] += n
			if useExt {
				g.ext[i].TrimFront(n)
			}
		}
	}
}

// processSession extends or closes the group's gap-delimited session
// (unary checks only, enforced at compile time).
func (c *streamChecker) processSession(key string, p series.Point) {
	g := c.group(key)
	bufs := g.inputs(1)
	if g.sessOpen && p.T-g.sessPrev > c.asg.Gap {
		c.fireSession(g)
	}
	if !g.sessOpen {
		g.sessOpen = true
		g.sessStart = p.T
	}
	bufs[0] = append(bufs[0], p)
	g.sessPrev = p.T
}

func (c *streamChecker) fireSession(g *groupState) {
	if len(g.bufs[0]) > 0 {
		sortByTime(g.bufs[0])
		c.winBuf[0] = g.bufs[0]
		c.evaluate(g.key, core.WindowTuple{Windows: c.winBuf[:], Start: g.sessStart, End: g.sessPrev}, math.Float64bits(g.sessStart))
		g.bufs[0] = g.bufs[0][:0]
	}
	g.sessOpen = false
}

// Flush implements stream.Processor: evaluate open windows in
// deterministic group order. Incomplete point-wise tuples and partial
// count windows are dropped, matching the batch windowing functions
// (PointWindow truncates to the shortest series; CountWindow drops the
// tail shorter than Size).
func (c *streamChecker) Flush(stream.EmitFunc) {
	keys := make([]string, 0, len(c.groups))
	for k := range c.groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g := c.groups[k]
		switch c.asg.Kind {
		case core.KindTumblingTime, core.KindSlidingTime:
			// Fire the remaining grid slots batch would emit: every start
			// at or below the last observed timestamp.
			c.fireDueTimeWindows(g, true)
		case core.KindGlobal:
			nonEmpty := false
			for _, buf := range g.bufs {
				sortByTime(buf)
				if len(buf) > 0 {
					nonEmpty = true
				}
			}
			if nonEmpty {
				start, end := span(g.bufs)
				c.evaluate(g.key, core.WindowTuple{Windows: g.bufs, Start: start, End: end}, 0)
			}
		case core.KindSession:
			if g.sessOpen {
				c.fireSession(g)
			}
		}
	}
}

// evaluate runs every member check on one fired window. windowBits is
// the window's stable coordinate within its route group (grid-start
// bits for time and session windows, the absolute start index for
// count windows, the point's timestamp bits for point tuples, 0 for
// the global window). The SOUND members are evaluated by the bucket's
// core.PlanGroup — one extraction and one sample matrix per lane — on
// the draw stream seeded by PlanGroup.WindowSeed, a pure function of
// (group class, route key, window coordinate): verdicts depend only on
// WHAT is evaluated, never on which worker evaluates it, in which order,
// at which batch size or fusion setting, or how many co-members ride
// along. That is the contract the invariance property tests pin.
func (c *streamChecker) evaluate(key string, tuple core.WindowTuple, windowBits uint64) {
	if c.planGroup != nil {
		winSeed := c.planGroup.WindowSeed(stream.KeyHash(key), windowBits)
		ev := c.planGroup.Evaluate(winSeed, tuple, c.resBuf)
		if c.metrics != nil {
			c.metrics.record(ev, len(c.resBuf))
		}
	}
	si := 0
	for _, m := range c.members {
		if m.naive {
			m.deliver(key, core.EvaluateNaive(m.check.Constraint, tuple))
			continue
		}
		m.deliver(key, c.resBuf[si].Outcome)
		si++
	}
}

// sortByTime time-orders a window buffer in place, reporting whether it
// had to reorder; the common in-order case is detected with a linear
// scan and left untouched.
func sortByTime(s series.Series) bool {
	for i := 1; i < len(s); i++ {
		if s[i].T < s[i-1].T {
			slices.SortStableFunc(s, func(a, b series.Point) int {
				switch {
				case a.T < b.T:
					return -1
				case b.T < a.T:
					return 1
				}
				return 0
			})
			return true
		}
	}
	return false
}

// span returns the union time span of the buffers.
func span(bufs []series.Series) (start, end float64) {
	init := false
	for _, buf := range bufs {
		if len(buf) == 0 {
			continue
		}
		a, b := buf[0].T, buf[len(buf)-1].T
		if !init {
			start, end, init = a, b, true
			continue
		}
		if a < start {
			start = a
		}
		if b > end {
			end = b
		}
	}
	return start, end
}
