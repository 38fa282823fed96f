package checker

import "sound/internal/core"

// This file is the eviction half of the deterministic state lifecycle
// (DESIGN.md §4i): watermark-driven reclamation of idle window groups
// and a bounded-memory accountant, so a stream checker over an
// unbounded key space runs in bounded state. Eviction is part of the
// deterministic contract — every decision depends only on the event
// sequence a worker observes (event-time watermark, arrival recency,
// len-based footprints), never on wall clock, map iteration order, or
// allocator capacities, so a restored run evicts exactly what the
// uninterrupted run would have.

// EvictionPolicy bounds the keyed state of one stream check operator.
// The zero value disables eviction (every group is kept forever). All
// bounds are per worker: keyed partitioning splits the key space, so a
// graph-wide budget divides by the operator's parallelism.
type EvictionPolicy struct {
	// TTL evicts a group once the worker's event-time watermark has run
	// this far ahead of the group's last arrival (idle eviction).
	// 0 disables idle eviction.
	TTL float64
	// MaxGroups caps the number of live groups. Admitting a new key at
	// the cap evicts the least-recently-touched group (or rejects the
	// event, per OnPressure). 0 is unlimited.
	MaxGroups int
	// MaxBytes caps the accounted footprint of all live groups.
	// Overflow evicts least-recently-touched groups (never the group
	// that just grew) until under budget. 0 is unlimited.
	MaxBytes int64
	// OnPressure, when set, decides what happens when admitting key
	// would exceed MaxGroups: return true to evict the LRU group and
	// admit, false to reject the event. Nil always evicts. It runs on
	// the worker goroutine and must be deterministic for restores to
	// replay identically.
	OnPressure func(key string, liveGroups int, liveBytes int64) bool
}

// enabled reports whether any bound is active. It also decides whether
// the operator keeps its recency list: group order is observed only by
// the policy (LRU victim selection, idle sweep) and by a snapshot of a
// bounded operator (coldest-first encode order), so without a bound the
// per-event move-to-front — pointer writes, hence write barriers — would
// be pure overhead on the hot path and is skipped entirely.
func (p EvictionPolicy) enabled() bool {
	return p.TTL > 0 || p.MaxGroups > 0 || p.MaxBytes > 0
}

// Accounted sizes, in bytes. The accountant charges what the group
// *holds*, not what Go reserved: lengths, never capacities — slice
// capacity depends on append history, which a restore does not
// reproduce, and an accountant that read capacities would make a
// restored run evict differently from the run it resumes.
const (
	// pointBytes is one buffered series.Point (4 float64).
	pointBytes = 32
	// extPointBytes is one extraction point: 3 float64 columns + tag.
	extPointBytes = 25
	// groupOverhead is the fixed cost of a groupState plus its map
	// entry, headers, and LRU links.
	groupOverhead = 256
)

// trackBytes reports whether the byte accountant is live. The footprint
// walk is O(buffered points) per event, so it only runs when some part
// of the policy actually consumes the number — the MaxBytes budget or an
// OnPressure callback.
func (c *streamChecker) trackBytes() bool {
	return c.evict.MaxBytes > 0 || c.evict.OnPressure != nil
}

// footprint returns the group's accounted size.
func (g *groupState) footprint() int64 {
	b := int64(groupOverhead)
	for _, s := range g.raw {
		b += int64(len(s)) * pointBytes
	}
	for _, s := range g.bufs {
		b += int64(len(s)) * pointBytes
	}
	for _, s := range g.pend {
		b += int64(len(s)) * pointBytes
	}
	for i := range g.ext {
		b += int64(g.ext[i].Len()) * extPointBytes
	}
	b += int64(len(g.drop)) * 8
	return b
}

// statefulGroups reports whether this operator keeps per-group state at
// all: unary point-wise checks evaluate immediately and buffer nothing,
// so they have no groups to evict or snapshot.
func (c *streamChecker) statefulGroups() bool {
	return !(c.asg.Kind == core.KindPoint && c.arity == 1)
}

// lruPushFront links a new group as most recently used.
func (c *streamChecker) lruPushFront(g *groupState) {
	g.prev, g.next = nil, c.lruHead
	if c.lruHead != nil {
		c.lruHead.prev = g
	}
	c.lruHead = g
	if c.lruTail == nil {
		c.lruTail = g
	}
}

// lruUnlink removes the group from the recency list.
func (c *streamChecker) lruUnlink(g *groupState) {
	if g.prev != nil {
		g.prev.next = g.next
	} else if c.lruHead == g {
		c.lruHead = g.next
	}
	if g.next != nil {
		g.next.prev = g.prev
	} else if c.lruTail == g {
		c.lruTail = g.prev
	}
	g.prev, g.next = nil, nil
}

// touch re-accounts the group after an event landed in it and refreshes
// its recency, then enforces the byte budget (evicting colder groups,
// never the one that just grew).
func (c *streamChecker) touch(g *groupState, t float64) {
	if t > g.lastT {
		g.lastT = t
	}
	if c.lruHead != g {
		c.lruUnlink(g)
		c.lruPushFront(g)
	}
	if !c.acct {
		return
	}
	now := g.footprint()
	c.liveBytes += now - g.bytes
	g.bytes = now
	if c.evict.MaxBytes > 0 {
		for c.liveBytes > c.evict.MaxBytes && c.lruTail != nil && c.lruTail != g {
			c.evictGroup(c.lruTail)
		}
	}
}

// sweepIdle evicts every group whose last arrival is TTL behind the
// advanced watermark, coldest first.
func (c *streamChecker) sweepIdle() {
	if c.evict.TTL <= 0 {
		return
	}
	for c.lruTail != nil && c.opWatermark-c.lruTail.lastT > c.evict.TTL {
		c.evictGroup(c.lruTail)
	}
}

// admit applies the MaxGroups policy before an event materializes a new
// group: known keys always pass; at the cap, OnPressure picks between
// evicting the LRU group (default) and rejecting the event.
func (c *streamChecker) admit(key string) bool {
	if c.evict.MaxGroups <= 0 || c.peek(key) != nil {
		return true
	}
	for len(c.groups) >= c.evict.MaxGroups {
		if c.evict.OnPressure != nil && !c.evict.OnPressure(key, len(c.groups), c.liveBytes) {
			return false
		}
		if c.lruTail == nil {
			return true
		}
		c.evictGroup(c.lruTail)
	}
	return true
}

// evictGroup discards a group's window state. A later arrival for the
// key re-anchors exactly like a fresh group: its first timestamp
// becomes the new grid origin, the same semantics a brand-new key gets
// (and the same re-anchoring an out-of-order first event triggers —
// see processTime).
func (c *streamChecker) evictGroup(g *groupState) {
	delete(c.groups, g.key)
	c.lruUnlink(g)
	c.liveBytes -= g.bytes
	if c.lastG == g {
		c.lastKey, c.lastG = "", nil
	}
	// Every member observes its shared state's lifecycle events: each
	// check's counters stay meaningful even though the buffers are held
	// once for the whole bucket.
	for _, m := range c.members {
		if m.out != nil {
			m.out.evictedGroups.Add(1)
		}
	}
}

// noteDroppedLate counts an event below its group's fired horizon.
func (c *streamChecker) noteDroppedLate() {
	for _, m := range c.members {
		if m.out != nil {
			m.out.droppedLate.Add(1)
		}
	}
}

// noteRejected counts an event refused by the admission policy.
func (c *streamChecker) noteRejected() {
	for _, m := range c.members {
		if m.out != nil {
			m.out.rejectedEvents.Add(1)
		}
	}
}

// LiveGroups returns the worker's live group count (test/diagnostic
// hook; callers must not race the worker goroutine).
func (c *streamChecker) LiveGroups() int { return len(c.groups) }

// LiveBytes returns the worker's accounted footprint. It is zero unless
// the policy consumes it (MaxBytes or OnPressure) — see trackBytes.
func (c *streamChecker) LiveBytes() int64 { return c.liveBytes }
