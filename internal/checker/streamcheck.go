package checker

import (
	"cmp"
	"math"
	"slices"
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
	// eviction policy and events no unfired window can hold.
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
	// DroppedLate counts events no unfired window can hold, which were
	// not buffered: every window containing them had already fired, or
	// the window cannot place their time (a time grid whose slide does
	// not move at that time, NaN or ±Inf; core.Grid.Admit).
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

// Route attributes events to a check's inputs and window groups. The
// zero Route routes every event to input 0, grouped by the event's own
// key: the route of a unary check on a keyed stream. A tag list made by
// ByInputKeys routes an event whose key is the i-th tag to input i, all
// inputs sharing one global window group (key ""); an event whose key is
// no tag is not part of the check and is not buffered.
type Route []string

// ByInputKeys routes events whose Key equals the i-th tag to input i,
// all sharing one global window group: the route of a k-ary check whose
// inputs arrive as k tagged series on one stream. A key listed twice
// routes to its last position.
func ByInputKeys(tags ...string) Route { return append(Route{}, tags...) }

// globalKeyHash is stream.KeyHash of the global group's key "", the
// group every event of a tag route lands in.
var globalKeyHash = stream.KeyHash("")

// newOperator assembles one worker instance of the generic operator for
// the given member set. All members share the operator's window state
// and the PlanGroup installMembers compiles for them.
func newOperator(members []*memberSpec, route Route, evict EvictionPolicy, gm *GroupMetrics) *streamChecker {
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
	route   Route
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
	// key is the route group's identity, fixed at creation, and hash its
	// stream.KeyHash: the group table's index and the window seed's key
	// coordinate.
	key  string
	hash uint64
	// lastT is the maximum event time this group has received; the
	// eviction sweep compares it against the worker's watermark.
	lastT float64
	// prev/next link the worker's LRU list (head = most recent).
	prev, next *groupState
	// bufs holds the not-yet-consumed points per input, for every window
	// kind (the kind is fixed per operator): grid.Next slices the windows
	// out of it.
	bufs []series.Series
	// drop[i] is the absolute index of bufs[i][0] in input i's full point
	// sequence (count windows only; nil for every other kind).
	drop []int
	// grid is the group's window position (core.Grid): the same grid the
	// batch windowers replay, fed here event by event.
	grid core.Grid
}

// group returns key's group, making it when it is missing. h is
// stream.KeyHash(key), as the event carried it or the route computed it:
// no group operation hashes the key.
func (c *streamChecker) group(key string, h uint64) *groupState {
	if c.lastG != nil && c.lastKey == key {
		return c.lastG
	}
	return c.lookup(key, h, true)
}

// peek returns the group without creating it. A found group primes the
// lookup cache, so the admission test and the window dispatch of one
// event cost one table lookup between them; evictGroup drops the entry
// with the group.
func (c *streamChecker) peek(key string, h uint64) *groupState {
	if c.lastG != nil && c.lastKey == key {
		return c.lastG
	}
	return c.lookup(key, h, false)
}

// lookup finds key, whose hash is h, in the group table after a
// lookup-cache miss and primes the cache with the group. A missing group
// is made when create is set (from the spare list first), else nil is
// returned.
func (c *streamChecker) lookup(key string, h uint64, create bool) *groupState {
	g, ok := c.groups.Get(h, key)
	if !ok {
		if !create {
			return nil
		}
		if n := len(c.spare); n > 0 {
			g = c.spare[n-1]
			c.spare[n-1] = nil
			c.spare = c.spare[:n-1]
			g.reuse(key, h)
		} else {
			g = &groupState{key: key, hash: h}
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
	slices.SortFunc(gs, func(a, b *groupState) int { return cmp.Compare(a.key, b.key) })
	return gs
}

// inputs returns the group's buffers (and a count window's drop counts).
func (c *streamChecker) inputs(g *groupState) []series.Series {
	if g.bufs == nil {
		g.bufs = make([]series.Series, c.arity)
	}
	if g.drop == nil && c.asg.Kind == core.KindCount {
		g.drop = make([]int, c.arity)
	}
	return g.bufs
}

// ingest routes one event into its window group; the Mux operator calls
// it per event for every bucket. Around the window dispatch it runs the
// state lifecycle: advance the worker watermark (sweeping idle groups),
// make room for the event's group under the group cap, and refresh the
// group's recency after the event lands.
func (c *streamChecker) ingest(ev *stream.Event) {
	input, key, h := 0, ev.Key, uint64(0)
	if c.route == nil {
		h = ev.KeyHash()
	} else {
		input, key, h = c.inputOf(ev.Key), "", globalKeyHash
		if input < 0 || input >= c.arity {
			return
		}
	}
	if c.evictOn && c.stateful {
		if ev.Time > c.opWatermark {
			c.opWatermark = ev.Time
			c.sweepIdle()
		}
		c.admit(key, h)
	}
	p := series.Point{T: ev.Time, V: ev.Value, SigUp: ev.SigUp, SigDown: ev.SigDown}
	if !c.stateful {
		c.evaluatePoint(key, h, p)
	} else {
		c.processGrid(key, h, input, p)
	}
	if c.evictOn && c.stateful {
		if g := c.peek(key, h); g != nil {
			c.touch(g, ev.Time)
		}
	}
}

// inputOf returns the input a tag route sends key to: the last position
// of key among the tags, or -1 when key is no tag.
func (c *streamChecker) inputOf(key string) int {
	for i := len(c.route) - 1; i >= 0; i-- {
		if c.route[i] == key {
			return i
		}
	}
	return -1
}

// evaluatePoint evaluates a unary point window: the event is its own
// window, on a reused buffer. Its operator keeps no per-key state, so
// no grid either.
func (c *streamChecker) evaluatePoint(key string, h uint64, p series.Point) {
	if c.pointBuf == nil {
		c.pointBuf = make(series.Series, 1)
	}
	c.pointBuf[0] = p
	ws := c.tuple(1)
	ws[0] = c.pointBuf
	// The point's own timestamp is the window coordinate, as in the
	// grid: a duplicate timestamp simply reuses its draw stream
	// (identical evidence → identical verdict).
	c.evaluate(key, h, core.WindowTuple{Windows: ws, Start: p.T, End: p.T}, math.Float64bits(p.T))
}

// processGrid admits the event to its group's grid, buffers it, and
// fires the windows it made due. An event the grid does not admit is
// dropped and counted: no unfired window can hold it. Between fires an
// event costs the admission, an append and Due's comparison; buffer
// sorting is deferred to the next fire, where one reorder check covers
// every event since the last.
func (c *streamChecker) processGrid(key string, h uint64, input int, p series.Point) {
	g := c.group(key, h)
	if !g.grid.Admit(&c.asg, p.T) {
		c.noteDroppedLate()
		return
	}
	bufs := c.inputs(g)
	bufs[input] = append(bufs[input], p)
	if g.grid.Due(&c.asg, false) {
		c.fire(g, false)
	}
}

// fire evaluates, in grid order, every window of the group that is due
// (with final, every window still open), then trims the buffers once.
// Time, session and global buffers are time-sorted first; point and
// count buffers keep arrival order. Each tuple lives for its evaluate
// call alone, so the buffers it sliced may be compacted after the last
// one.
func (c *streamChecker) fire(g *groupState, final bool) {
	if c.asg.Kind != core.KindCount && c.asg.Kind != core.KindPoint {
		for _, buf := range g.bufs {
			sortByTime(buf)
		}
	}
	fired := false
	for {
		slots := c.tuple(c.arity)
		start, end, coord, ok := g.grid.Next(&c.asg, g.bufs, g.drop, final, slots)
		if !ok {
			break
		}
		c.evaluate(g.key, g.hash, core.WindowTuple{Windows: slots, Start: start, End: end}, coord)
		fired = true
	}
	if fired {
		g.grid.Trim(&c.asg, g.bufs, g.drop)
	}
}

// flush evaluates the open windows at end of stream, in deterministic
// group order: every time window batch would emit, the open session and
// the global window. Incomplete point tuples and partial count windows
// are dropped, matching the batch windowing functions (PointWindow
// truncates to the shortest series; CountWindow drops the tail shorter
// than Size).
func (c *streamChecker) flush() {
	for _, g := range c.sortedGroups() {
		c.fire(g, true)
	}
}

// evaluate runs every member check on one fired window of the group
// key, whose stream.KeyHash is keyHash. windowBits is
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
func (c *streamChecker) evaluate(key string, keyHash uint64, tuple core.WindowTuple, windowBits uint64) {
	if c.planGroup != nil {
		tuple.Ext = c.extract(tuple.Windows)
		winSeed := c.planGroup.WindowSeed(keyHash, windowBits)
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
