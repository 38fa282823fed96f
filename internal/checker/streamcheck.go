package checker

import (
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"sound/internal/core"
	"sound/internal/resample"
	"sound/internal/series"
	"sound/internal/stream"
)

// This file provides the online instrumentation: the per-bucket window
// engine behind the Mux operator (mux.go), which evaluates sanity checks
// in parallel to the nominal processing (paper §IV-A, "evaluation is
// performed as soon as the data is available and in parallel to the
// nominal data processing").
//
// One generic engine serves every arity and window shape. It is driven
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
	// eviction policy and events dropped below the fired horizon.
	evictedGroups, droppedLate atomic.Int64
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
	// policy (idle TTL or group cap).
	EvictedGroups int
	// DroppedLate counts events below their group's fired horizon:
	// every window containing them had already fired, so they were not
	// buffered.
	DroppedLate int
	// RejectedEvents is always 0: the eviction policy admits every
	// event. The field stays for readers of the counter set.
	RejectedEvents int
}

// Lifecycle returns the accumulated lifecycle counters.
func (so *StreamOutcomes) Lifecycle() LifecycleCounts {
	return LifecycleCounts{
		EvictedGroups: int(so.evictedGroups.Load()),
		DroppedLate:   int(so.droppedLate.Load()),
	}
}

// RouteFunc attributes an event to a check input and a window-state
// group. input selects the series slot (0-based, < the check's arity);
// key selects the keyed window state, so windows are maintained per
// group independently ("" keeps one global group). ok = false means the
// event is not part of the check and is not buffered.
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

// newOperator assembles one worker instance of the generic operator for
// the given member set. All members share the operator's window state
// and the PlanGroup installMembers compiles for them.
func newOperator(members []*memberSpec, route RouteFunc, evict EvictionPolicy, gm *GroupMetrics) *streamChecker {
	c := &streamChecker{
		asg:     members[0].plan.Assigner(),
		arity:   members[0].plan.Arity(),
		route:   route,
		evict:   evict,
		metrics: gm,
	}
	c.installMembers(members)
	// The lifecycle predicates are constant for the operator's
	// lifetime; caching them keeps the per-event ingest path free of
	// repeated policy re-derivation.
	c.stateful = c.statefulGroups()
	c.evictOn = c.evict.enabled()
	return c
}

// streamChecker is one Mux bucket's window engine inside one operator
// instance. Keyed partitioning guarantees a group's events reach one
// worker, so the per-group state needs no locking. One engine hosts one or more
// member checks over ONE set of window buffers, and
// evaluates every fired window's SOUND members through one
// core.PlanGroup whose draws are derived from the window coordinate (see
// evaluate) — for one member exactly as for many, so a verdict never
// depends on worker count, evaluation order, or co-registered checks.
type streamChecker struct {
	members []*memberSpec
	// planGroup evaluates the SOUND members (nil for a Naive-only bucket,
	// which then extracts nothing); resBuf receives their results, in
	// member order.
	planGroup *core.PlanGroup
	resBuf    []core.Result
	// metrics is the bucket's shared counters; pending is this worker's
	// tally since the last publish (see GroupMetrics.publish).
	metrics *GroupMetrics
	pending groupCounts
	asg     core.WindowAssigner
	arity   int
	route   RouteFunc
	// groups indexes the live groups by stream.KeyHash of their key. Its
	// iteration order is never observable: snapshots and end-of-stream
	// flushes walk the LRU list or sortedGroups.
	groups stream.KeyTable[*groupState]
	// State lifecycle (DESIGN.md §4i): evict is the memory policy,
	// onOutcome the outcome observer.
	evict     EvictionPolicy
	onOutcome func(key string, o core.Outcome)
	// Cached lifecycle predicates (see newOperator): statefulGroups and
	// evict.enabled (which also gates the recency list).
	stateful, evictOn bool
	// LRU list of live groups (head = most recently touched), maintained
	// for every stateful windowing kind while an eviction policy is set,
	// so eviction and snapshots see a deterministic recency order.
	lruHead, lruTail *groupState
	// opWatermark is the worker-level event-time high-water mark that
	// drives idle-group eviction.
	opWatermark float64
	// lastKey/lastG cache the most recent group lookup: events arrive in
	// key runs (especially frame-at-a-time on keyed edges), so most
	// lookups hit the cache instead of the table.
	lastKey string
	lastG   *groupState
	// spare holds evicted groups for group() to reuse, never more than
	// there are live groups (see evictGroup).
	spare []*groupState
	// Reusable scratch keeps the per-event hot path allocation-free.
	pointBuf series.Series
	// tupleBuf is the per-fire window-tuple scratch handed to the
	// evaluator, ext and views the fired windows' extractions and their
	// views (see extract), and naiveVals the naive members' value
	// columns. A window tuple lives for one evaluate call (see tuple), so
	// one buffer of each serves every fire.
	tupleBuf  []series.Series
	ext       []resample.Extraction
	views     []resample.View
	naiveVals [][]float64
}

// tuple returns the k-slot window-tuple scratch. A window tuple lives
// for one evaluate call: resBuf keeps it only until the next fire
// overwrites it, and members' sinks see the key and the outcome alone. So
// one buffer serves every fire, and once evaluate returns the window
// buffers the tuple sliced may be compacted in place.
func (c *streamChecker) tuple(k int) []series.Series {
	if cap(c.tupleBuf) < k {
		c.tupleBuf = make([]series.Series, k)
	}
	return c.tupleBuf[:k]
}

// extract extracts each window of a fired tuple into the operator's
// scratch and returns whole-window views of them, which every strategy
// lane of the bucket primes from: one extraction per window per fire,
// consumed like the tuple within the evaluate call it is handed to.
func (c *streamChecker) extract(ws []series.Series) []resample.View {
	if len(c.ext) < len(ws) {
		c.ext = make([]resample.Extraction, len(ws))
		c.views = make([]resample.View, len(ws))
		for i := range c.ext {
			c.views[i] = c.ext[i].View()
		}
	}
	for i, w := range ws {
		c.ext[i].Extract(w)
	}
	return c.views[:len(ws)]
}

// groupState is the window state of one route group (one key, or the
// global group "").
type groupState struct {
	// key is the route group's identity, fixed at creation.
	key string
	// lastT is the maximum event time this group has received; the
	// eviction sweep compares it against the worker's watermark.
	lastT float64
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
	// bufs holds the not-yet-consumed points per input, for every window
	// kind (the kind is fixed per operator): time windows slice it at fire
	// time with the same SliceTime the batch path uses, count windows by
	// absolute index, k-ary point tuples align its heads, and global and
	// session windows evaluate it whole.
	bufs []series.Series
	// Count-window alignment: drop[i] is the absolute index of bufs[i][0]
	// in input i's full point sequence; nextIdx is the absolute start
	// index of the earliest un-fired count window. Tracking absolute
	// indices lets Slide > Size hop over points exactly like the batch
	// CountWindow instead of re-slicing past the buffer end.
	drop    []int
	nextIdx int
	// session bounds.
	sessStart, sessPrev float64
	sessOpen            bool
}

func (c *streamChecker) group(key string) *groupState {
	if c.lastG != nil && c.lastKey == key {
		return c.lastG
	}
	return c.lookup(key, true)
}

// peek returns the group without creating it. A found group primes the
// lookup cache, so the admission test and the window dispatch of one
// event cost one table lookup between them; evictGroup drops the entry
// with the group.
func (c *streamChecker) peek(key string) *groupState {
	if c.lastG != nil && c.lastKey == key {
		return c.lastG
	}
	return c.lookup(key, false)
}

// lookup finds key in the group table after a lookup-cache miss and
// primes the cache with the group. A missing group is made when create
// is set (from the spare list first), else nil is returned.
func (c *streamChecker) lookup(key string, create bool) *groupState {
	h := stream.KeyHash(key)
	g, ok := c.groups.Get(h, key)
	if !ok {
		if !create {
			return nil
		}
		if n := len(c.spare); n > 0 {
			g = c.spare[n-1]
			c.spare[n-1] = nil
			c.spare = c.spare[:n-1]
			g.reuse(key)
		} else {
			g = &groupState{key: key}
		}
		c.groups.Put(h, key, g)
		if c.evictOn {
			c.lruPushFront(g)
		}
	}
	c.lastKey, c.lastG = key, g
	return g
}

// sortedGroups returns the live groups in ascending key order.
func (c *streamChecker) sortedGroups() []*groupState {
	gs := make([]*groupState, 0, c.groups.Len())
	c.groups.Range(func(_ string, g *groupState) bool {
		gs = append(gs, g)
		return true
	})
	sort.Slice(gs, func(i, j int) bool { return gs[i].key < gs[j].key })
	return gs
}

func (g *groupState) inputs(arity int) []series.Series {
	if g.bufs == nil {
		g.bufs = make([]series.Series, arity)
	}
	return g.bufs
}

// ingest routes one event into its window group; the Mux operator calls
// it per event for every bucket. Around the window dispatch it runs the
// state lifecycle: advance the worker watermark (sweeping idle groups),
// make room for the event's group under the group cap, and refresh the
// group's recency after the event lands.
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
		c.admit(key)
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
	if c.evictOn && c.stateful {
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
		ws := c.tuple(1)
		ws[0] = c.pointBuf
		// The point's own timestamp is the window coordinate: unary point
		// checks keep no per-key state, and a duplicate timestamp simply
		// reuses its draw stream (identical evidence → identical verdict).
		c.evaluate(key, core.WindowTuple{Windows: ws, Start: p.T, End: p.T}, math.Float64bits(p.T))
		return
	}
	bufs := c.group(key).inputs(c.arity)
	bufs[input] = append(bufs[input], p)
	head := 0
fire:
	for {
		for i := range bufs {
			if len(bufs[i]) <= head {
				break fire
			}
		}
		ws := c.tuple(c.arity)
		for i := range bufs {
			ws[i] = bufs[i][head : head+1 : head+1]
		}
		head++
		c.evaluate(key, core.WindowTuple{Windows: ws, Start: ws[0][0].T, End: ws[0][0].T}, math.Float64bits(ws[0][0].T))
	}
	if head == 0 {
		return
	}
	for i, q := range bufs {
		// Drop the fired points. A queue left no longer than what fired
		// moves its rest to the front of its array, copying no more points
		// than fired, so inputs that keep pace never leave their arrays;
		// one running far ahead advances its slice start instead.
		if len(q)-head <= head {
			bufs[i] = q[:copy(q, q[head:])]
		} else {
			bufs[i] = q[head:]
		}
	}
}

// processTime buffers the event and fires every time window the group's
// watermark — the maximum event time seen — has closed. The window grid
// is anchored at the group's first observed timestamp, matching the
// batch TimeWindow, which starts at the union-span minimum; events
// arriving out of order within a still-open window are buffered and
// time-sorted before slicing, so they land in the correct windows. A
// late event below the fired horizon is dropped:
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
	bufs := g.inputs(c.arity)
	bufs[input] = append(bufs[input], p)
	if p.T > g.watermark {
		g.watermark = p.T
	}
	// Only run the fire scan when the watermark has actually closed the
	// earliest un-fired window — the same end <= watermark comparison the
	// scan's loop would make before bailing out. Between fires, appends
	// are O(1): buffer sorting is deferred to the next fire, where one
	// reorder check covers every event since the last (frame-at-a-time
	// when frames arrive batched) instead of one per event.
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
	for _, buf := range g.bufs {
		sortByTime(buf)
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
		ws := c.tuple(c.arity)
		for i := range g.bufs {
			ws[i] = g.bufs[i].SliceTime(start, end)
		}
		c.evaluate(g.key, core.WindowTuple{Windows: ws, Start: start, End: end}, math.Float64bits(start))
		g.fired = true
		g.nextStart += c.asg.Slide
		for i := range g.bufs {
			// Points below the next start belong only to fired windows:
			// move the rest to the front of the same array. The evaluated
			// tuple sliced this array, but it lived for the evaluate call
			// alone.
			if n := g.bufs[i].At(g.nextStart); n > 0 {
				g.bufs[i] = g.bufs[i][:copy(g.bufs[i], g.bufs[i][n:])]
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
	for {
		for i := range bufs {
			if g.drop[i]+len(bufs[i]) < g.nextIdx+c.asg.Count {
				return
			}
		}
		ws := c.tuple(c.arity)
		for i := range bufs {
			off := g.nextIdx - g.drop[i]
			ws[i] = bufs[i][off : off+c.asg.Count : off+c.asg.Count]
		}
		start, end := ws[0][0].T, ws[0][len(ws[0])-1].T
		// The absolute start index is the count window's coordinate: it is
		// arrival-order-defined, identical on every worker layout.
		c.evaluate(g.key, core.WindowTuple{Windows: ws, Start: start, End: end}, uint64(g.nextIdx))
		g.nextIdx += c.asg.CountSlide
		for i := range bufs {
			n := g.nextIdx - g.drop[i]
			if n > len(bufs[i]) {
				n = len(bufs[i])
			}
			// Move the rest to the front of the same array: the evaluated
			// tuple aliased its head, but only for the evaluate call.
			bufs[i] = bufs[i][:copy(bufs[i], bufs[i][n:])]
			g.drop[i] += n
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
		ws := c.tuple(1)
		ws[0] = g.bufs[0]
		c.evaluate(g.key, core.WindowTuple{Windows: ws, Start: g.sessStart, End: g.sessPrev}, math.Float64bits(g.sessStart))
		g.bufs[0] = g.bufs[0][:0]
	}
	g.sessOpen = false
}

// flush evaluates the open windows at end of stream, in
// deterministic group order. Incomplete point-wise tuples and partial
// count windows are dropped, matching the batch windowing functions
// (PointWindow truncates to the shortest series; CountWindow drops the
// tail shorter than Size).
func (c *streamChecker) flush() {
	for _, g := range c.sortedGroups() {
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
// core.PlanGroup — one extraction per window, shared by every lane
// (extract), and one sample matrix per lane — on the draw stream seeded
// by PlanGroup.WindowSeed, a pure function of
// (group class, route key, window coordinate): verdicts depend only on
// WHAT is evaluated, never on which worker evaluates it, in which order,
// at which batch size, or how many co-members ride
// along. That is the contract the invariance property tests pin.
func (c *streamChecker) evaluate(key string, tuple core.WindowTuple, windowBits uint64) {
	if c.planGroup != nil {
		tuple.Ext = c.extract(tuple.Windows)
		winSeed := c.planGroup.WindowSeed(stream.KeyHash(key), windowBits)
		ev := c.planGroup.Evaluate(winSeed, tuple, c.resBuf)
		c.pending.record(ev, len(c.resBuf))
	}
	si := 0
	for _, m := range c.members {
		if m.naive {
			m.deliver(key, c.scoreNaive(m.check.Constraint, tuple))
			continue
		}
		m.deliver(key, c.resBuf[si].Outcome)
		si++
	}
}

// scoreNaive is core.EvaluateNaive on the operator's value-column
// scratch: the BASE_CHECK verdict of one fired window. The columns are
// refilled for every naive member, since a constraint function may reorder
// the values it is handed.
func (c *streamChecker) scoreNaive(cons core.Constraint, tuple core.WindowTuple) core.Outcome {
	if len(c.naiveVals) < len(tuple.Windows) {
		c.naiveVals = make([][]float64, len(tuple.Windows))
	}
	vals, empty := c.naiveVals[:len(tuple.Windows)], true
	for i, w := range tuple.Windows {
		col := vals[i][:0]
		for _, p := range w {
			col = append(col, p.V)
		}
		vals[i], empty = col, empty && len(w) == 0
	}
	if empty {
		return core.Inconclusive
	}
	if cons.Eval(vals) {
		return core.Satisfied
	}
	return core.Violated
}

// sortByTime time-orders a window buffer in place; the common in-order
// case is detected with a linear scan and left untouched.
func sortByTime(s series.Series) {
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
			return
		}
	}
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
