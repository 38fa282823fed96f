package checker

import (
	"fmt"
	"slices"
	"testing"

	"sound/internal/core"
	"sound/internal/stream"
)

func discardEmit(stream.Event) {}

// soakChecker drives a single-worker SOUND-mode tumbling checker over
// 100k one-shot cold keys interleaved with 4 hot keys that stay active
// for the whole run, recording the pre-Flush outcome sequence via
// OnOutcome. The hot values are borderline (93 ± 4 against Range(0,100))
// so every hot evaluation consumes randomness — if eviction perturbed
// the evaluator's RNG stream in any way, the traces would diverge.
func soakChecker(t *testing.T, evict EvictionPolicy) (trace []string, out *StreamOutcomes, maxLive int) {
	t.Helper()
	ck := core.Check{
		Name:        "range",
		Constraint:  core.Range(0, 100),
		SeriesNames: []string{"s"},
		Window:      core.TimeWindow{Size: 10},
	}
	out = &StreamOutcomes{}
	proc, c := loneOp(t, evict, MuxCheck{
		Check:  ck,
		Params: core.DefaultParams(),
		Seed:   99,
		Out:    out,
		OnOutcome: func(key string, o core.Outcome) {
			trace = append(trace, fmt.Sprintf("%s=%d", key, o))
		},
	})
	hot := [4]string{"h0", "h1", "h2", "h3"}
	const nCold = 100_000
	for i := 0; i < nCold; i++ {
		tm := float64(i) / 100 // 1000 time units across the run
		proc.Process(stream.Event{Time: tm, Key: fmt.Sprintf("c%06d", i), Value: 50}, discardEmit)
		if i%100 == 0 {
			for _, h := range hot {
				proc.Process(stream.Event{Time: tm, Key: h, Value: 93, SigUp: 4, SigDown: 4}, discardEmit)
			}
		}
		if n := c.LiveGroups(); n > maxLive {
			maxLive = n
		}
	}
	return trace, out, maxLive
}

// TestEvictionSoak100kKeys is the bounded-memory soak: 100k distinct
// keys against a 512-group cap must keep the live group count under the
// cap for the entire run, evict on the order of the key count, and —
// the lifecycle contract — leave the surviving hot keys' outcome
// sequence bit-identical to the unbounded run's.
func TestEvictionSoak100kKeys(t *testing.T) {
	base, baseOut, baseMax := soakChecker(t, EvictionPolicy{})
	if baseMax < 100_000 {
		t.Fatalf("unbounded run peaked at %d groups, soak is vacuous", baseMax)
	}
	if len(base) < 100 {
		t.Fatalf("only %d pre-Flush outcomes, soak is vacuous", len(base))
	}
	if lc := baseOut.Lifecycle(); lc != (LifecycleCounts{}) {
		t.Errorf("unbounded run lifecycle = %+v, want zero", lc)
	}

	const capGroups = 512
	trace, out, maxLive := soakChecker(t, EvictionPolicy{MaxGroups: capGroups})
	if maxLive > capGroups {
		t.Errorf("live groups peaked at %d, cap is %d", maxLive, capGroups)
	}
	lc := out.Lifecycle()
	if lc.EvictedGroups < 90_000 {
		t.Errorf("evicted %d groups, want ~100k-cap", lc.EvictedGroups)
	}
	if !slices.Equal(trace, base) {
		t.Errorf("surviving-key outcome trace diverged: %d outcomes with eviction, %d without", len(trace), len(base))
	}
}

// TestEvictionTTLSweep: a group idle for longer than the TTL (by
// event-time watermark, not wall clock) is reclaimed, and a later
// arrival for its key re-anchors the window grid at the new first
// timestamp exactly like a fresh key.
func TestEvictionTTLSweep(t *testing.T) {
	ck := core.Check{
		Name:        "range",
		Constraint:  core.Range(0, 100),
		SeriesNames: []string{"s"},
		Window:      core.TimeWindow{Size: 10},
	}
	out := &StreamOutcomes{}
	proc, c := loneOp(t, EvictionPolicy{TTL: 5}, MuxCheck{Check: ck, Naive: true, Out: out})
	proc.Process(stream.Event{Time: 0, Key: "idle", Value: 1}, discardEmit)
	proc.Process(stream.Event{Time: 1, Key: "busy", Value: 1}, discardEmit)
	if c.LiveGroups() != 2 {
		t.Fatalf("live = %d, want 2", c.LiveGroups())
	}
	// Watermark 7 puts "idle" (last seen at 0) past the TTL of 5, while
	// "busy" (refreshed at 4) stays inside it.
	proc.Process(stream.Event{Time: 4, Key: "busy", Value: 1}, discardEmit)
	proc.Process(stream.Event{Time: 7, Key: "busy", Value: 1}, discardEmit)
	if c.peek("idle") != nil {
		t.Error("idle group survived a watermark 7 TTL-5 sweep")
	}
	if got := out.Lifecycle().EvictedGroups; got != 1 {
		t.Errorf("evicted = %d, want 1", got)
	}
	// The key returns at t=40: it must re-anchor like a brand-new group,
	// with its grid origin at 40 — not resume the old origin-0 grid.
	proc.Process(stream.Event{Time: 40, Key: "idle", Value: 1}, discardEmit)
	g := c.peek("idle")
	if g == nil || !g.hasOrigin || g.origin != 40 {
		t.Errorf("re-admitted group = %+v, want fresh anchor at t=40", g)
	}
}

// TestEvictedKeyReturnsFresh: the group-lookup cache, which the admission
// test primes, must never hand back evicted state. The sharpest case is
// an event that evicts its own key's group — cached by the key's previous
// event — through the TTL sweep its timestamp triggers; the cap path
// evicts a group a neighbour's admission cached. Either way the returning
// key gets a new group whose grid is anchored at its own timestamp.
func TestEvictedKeyReturnsFresh(t *testing.T) {
	ck := core.Check{
		Name:        "range",
		Constraint:  core.Range(0, 100),
		SeriesNames: []string{"s"},
		Window:      core.TimeWindow{Size: 10},
	}
	out := &StreamOutcomes{}
	proc, c := loneOp(t, EvictionPolicy{MaxGroups: 2, TTL: 5}, MuxCheck{Check: ck, Naive: true, Out: out})
	fresh := func(key string, at float64, old *groupState) *groupState {
		t.Helper()
		g := c.groups[key]
		if g == nil || g == old || !g.hasOrigin || g.origin != at {
			t.Fatalf("%s at t=%v: group %+v, want a new group anchored at %v", key, at, g, at)
		}
		if c.peek(key) != g {
			t.Fatalf("%s at t=%v: lookup cache and group map disagree", key, at)
		}
		return g
	}
	proc.Process(stream.Event{Time: 0, Key: "x", Value: 1}, discardEmit)
	proc.Process(stream.Event{Time: 1, Key: "y", Value: 1}, discardEmit)
	proc.Process(stream.Event{Time: 2, Key: "x", Value: 1}, discardEmit) // admit finds x in the map and caches it
	x0 := fresh("x", 0, nil)
	// t=40 sweeps both groups, x's own among them, before x is admitted.
	proc.Process(stream.Event{Time: 40, Key: "x", Value: 1}, discardEmit)
	x1 := fresh("x", 40, x0)
	if got := out.Lifecycle().EvictedGroups; got != 2 {
		t.Fatalf("evicted = %d, want 2 (x and y swept at watermark 40)", got)
	}
	// At the cap of two, z evicts the coldest group, x; x's return evicts y.
	proc.Process(stream.Event{Time: 41, Key: "y", Value: 1}, discardEmit)
	proc.Process(stream.Event{Time: 42, Key: "z", Value: 1}, discardEmit)
	if c.peek("x") != nil {
		t.Fatal("x survived z's admission at the cap")
	}
	proc.Process(stream.Event{Time: 43, Key: "x", Value: 1}, discardEmit)
	fresh("x", 43, x1)
	if c.peek("y") != nil || c.LiveGroups() != 2 {
		t.Errorf("live = %d with y present %v, want z and x only", c.LiveGroups(), c.peek("y") != nil)
	}
	if got := out.Lifecycle().EvictedGroups; got != 4 {
		t.Errorf("evicted = %d, want 4", got)
	}
}
