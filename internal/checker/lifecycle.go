package checker

import "sound/internal/core"

// This file is the eviction half of the deterministic state lifecycle
// (DESIGN.md §4i): watermark-driven reclamation of idle window groups
// and a live group cap, so a stream checker over an unbounded key space
// runs in bounded state. Eviction is part of the deterministic contract
// — every decision depends only on the event sequence a worker observes
// (event-time watermark, arrival recency), never on wall clock or map
// iteration order, so a restored run evicts exactly what the
// uninterrupted run would have.

// EvictionPolicy bounds the keyed state of each bucket of a Mux operator.
// The zero value disables eviction (every group is kept forever). Both
// bounds are per worker: keyed partitioning splits the key space, so a
// graph-wide budget divides by the operator's parallelism.
type EvictionPolicy struct {
	// TTL evicts a group once the worker's event-time watermark has run
	// this far ahead of the group's last arrival (idle eviction).
	// 0 disables idle eviction.
	TTL float64
	// MaxGroups caps the number of live groups. Admitting a new key at
	// the cap evicts the least-recently-touched group. 0 is unlimited.
	MaxGroups int
}

// enabled reports whether any bound is active. It also decides whether
// the operator keeps its recency list: group order is observed only by
// the policy (LRU victim selection, idle sweep) and by a snapshot of a
// bounded operator (coldest-first encode order), so without a bound the
// per-event move-to-front — pointer writes, hence write barriers — would
// be pure overhead on the hot path and is skipped entirely.
func (p EvictionPolicy) enabled() bool {
	return p.TTL > 0 || p.MaxGroups > 0
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

// touch refreshes the group's last arrival and recency after an event
// landed in it.
func (c *streamChecker) touch(g *groupState, t float64) {
	if t > g.lastT {
		g.lastT = t
	}
	if c.lruHead != g {
		c.lruUnlink(g)
		c.lruPushFront(g)
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

// admit applies the MaxGroups cap before an event materializes a new
// group: a known key needs no room; at the cap a new key evicts the
// least-recently-touched groups until one slot is free.
func (c *streamChecker) admit(key string, h uint64) {
	if c.evict.MaxGroups <= 0 || c.peek(key, h) != nil {
		return
	}
	for c.groups.Len() >= c.evict.MaxGroups && c.lruTail != nil {
		c.evictGroup(c.lruTail)
	}
}

// evictGroup discards a group's window state. A later arrival for the
// key re-anchors exactly like a fresh group: its first timestamp
// becomes the new grid origin, the same semantics a brand-new key gets
// (and the same re-anchoring an out-of-order first event triggers —
// see core.Grid.Admit). The struct and its arrays go on the spare list for
// the next new key (group), which never holds more groups than are live:
// a sweep that empties the operator does not pin its peak state.
func (c *streamChecker) evictGroup(g *groupState) {
	c.groups.Delete(g.hash, g.key)
	c.lruUnlink(g)
	if c.lastG == g {
		c.lastKey, c.lastG = "", nil
	}
	if live := c.groups.Len(); len(c.spare) < live {
		c.spare = append(c.spare, g)
	} else {
		clear(c.spare[live:])
		c.spare = c.spare[:live]
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

// reuse re-initialises an evicted group for key, whose hash is h. Every
// field reads as in &groupState{key: key, hash: h}, except that the
// per-input buffers keep their arrays, emptied. The buffer set a fresh
// group makes at its first event stays made, which is the same state
// once the event that takes the group over has landed.
func (g *groupState) reuse(key string, h uint64) {
	bufs, drop := g.bufs, g.drop
	*g = groupState{key: key, hash: h, bufs: bufs, drop: drop}
	for i := range bufs {
		bufs[i] = bufs[i][:0]
	}
	clear(drop)
}

// noteDroppedLate counts an event its group's grid did not admit.
func (c *streamChecker) noteDroppedLate() {
	for _, m := range c.members {
		if m.out != nil {
			m.out.droppedLate.Add(1)
		}
	}
}

// LiveGroups returns the worker's live group count (test/diagnostic
// hook; callers must not race the worker goroutine).
func (c *streamChecker) LiveGroups() int { return c.groups.Len() }
