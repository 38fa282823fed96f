package checker

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"sound/internal/checkpoint"
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
	if c.peek("idle", stream.KeyHash("idle")) != nil {
		t.Error("idle group survived a watermark 7 TTL-5 sweep")
	}
	if got := out.Lifecycle().EvictedGroups; got != 1 {
		t.Errorf("evicted = %d, want 1", got)
	}
	// The key returns at t=40: it must re-anchor like a brand-new group,
	// with its grid origin at 40 — not resume the old origin-0 grid.
	proc.Process(stream.Event{Time: 40, Key: "idle", Value: 1}, discardEmit)
	g := c.peek("idle", stream.KeyHash("idle"))
	if g == nil || !g.grid.HasOrigin || g.grid.Origin != 40 {
		t.Errorf("re-admitted group = %+v, want fresh anchor at t=40", g)
	}
}

// TestEvictedKeyReturnsFresh: the group-lookup cache, which the admission
// test primes, must never hand back evicted state. The sharpest case is
// an event that evicts its own key's group — cached by the key's previous
// event — through the TTL sweep its timestamp triggers; the cap path
// evicts a group a neighbour's admission cached. Either way the returning
// key's group is fresh by state: its grid is anchored at its own
// timestamp, it holds its returning point alone, no window of it has
// fired, and the cache agrees with the group map. Whether the struct is
// new or one an evicted key left for reuse is not observable.
func TestEvictedKeyReturnsFresh(t *testing.T) {
	ck := core.Check{
		Name:        "range",
		Constraint:  core.Range(0, 100),
		SeriesNames: []string{"s"},
		Window:      core.TimeWindow{Size: 10},
	}
	out := &StreamOutcomes{}
	proc, c := loneOp(t, EvictionPolicy{MaxGroups: 2, TTL: 5}, MuxCheck{Check: ck, Naive: true, Out: out})
	fresh := func(key string, at float64) {
		t.Helper()
		g, _ := c.groups.Get(stream.KeyHash(key), key)
		if g == nil || !g.grid.HasOrigin || g.grid.Origin != at || g.grid.Fired ||
			len(g.bufs) != 1 || len(g.bufs[0]) != 1 || g.bufs[0][0].T != at {
			t.Fatalf("%s at t=%v: group %+v, want fresh state anchored at %v holding one point", key, at, g, at)
		}
		if c.peek(key, stream.KeyHash(key)) != g {
			t.Fatalf("%s at t=%v: lookup cache and group map disagree", key, at)
		}
	}
	proc.Process(stream.Event{Time: 0, Key: "x", Value: 1}, discardEmit)
	proc.Process(stream.Event{Time: 1, Key: "y", Value: 1}, discardEmit)
	proc.Process(stream.Event{Time: 2, Key: "x", Value: 1}, discardEmit) // admit finds x in the map and caches it
	// t=40 sweeps both groups, x's own among them, before x is admitted.
	proc.Process(stream.Event{Time: 40, Key: "x", Value: 1}, discardEmit)
	fresh("x", 40)
	if got := out.Lifecycle().EvictedGroups; got != 2 {
		t.Fatalf("evicted = %d, want 2 (x and y swept at watermark 40)", got)
	}
	// At the cap of two, z evicts the coldest group, x; x's return evicts y.
	proc.Process(stream.Event{Time: 41, Key: "y", Value: 1}, discardEmit)
	proc.Process(stream.Event{Time: 42, Key: "z", Value: 1}, discardEmit)
	if c.peek("x", stream.KeyHash("x")) != nil {
		t.Fatal("x survived z's admission at the cap")
	}
	proc.Process(stream.Event{Time: 43, Key: "x", Value: 1}, discardEmit)
	fresh("x", 43)
	if c.peek("y", stream.KeyHash("y")) != nil || c.LiveGroups() != 2 {
		t.Errorf("live = %d with y present %v, want z and x only", c.LiveGroups(), c.peek("y", stream.KeyHash("y")) != nil)
	}
	if got := out.Lifecycle().EvictedGroups; got != 4 {
		t.Errorf("evicted = %d, want 4", got)
	}
}

// TestEvictedStateReuse: new keys take over the state evicted keys leave
// behind — a time-window group that has fired and holds extractions, a
// count-window group with non-zero drop counts and start index — and
// nothing of it shows. Keys live one after another, three at a time, so a
// cap of three evicts only keys that are done: the verdict sequence must
// equal that of an operator without a cap, and the snapshot of the
// surviving keys, one of which has not fired yet, must be byte-identical
// to that of a fresh operator fed their events alone.
func TestEvictedStateReuse(t *testing.T) {
	const nKeys, live = 12, 3
	var events []stream.Event
	for k := 0; k < nKeys; k++ {
		for i := 0; i < 60; i++ {
			events = append(events, stream.Event{Time: float64(10*k) + float64(i)/2, Key: fmt.Sprintf("k%02d", k),
				Value: 97 + float64(i%7), SigUp: 2, SigDown: 1})
		}
	}
	// A last key takes over an evicted group and has not fired a window
	// when the snapshots are compared.
	for i := 0; i < 3; i++ {
		events = append(events, stream.Event{Time: float64(10*nKeys+10) + float64(i)/2, Key: "tail", Value: 99})
	}
	slices.SortStableFunc(events, func(a, b stream.Event) int {
		switch {
		case a.Time < b.Time:
			return -1
		case b.Time < a.Time:
			return 1
		}
		return 0
	})
	for _, win := range []core.Windower{core.TimeWindow{Size: 10, Slide: 5}, core.CountWindow{Size: 8, Slide: 3}} {
		t.Run(fmt.Sprintf("%T", win), func(t *testing.T) {
			_, isCount := win.(core.CountWindow)
			ck := core.Check{Name: "range", Constraint: core.Range(0, 100), SeriesNames: []string{"s"}, Window: win}
			run := func(evict EvictionPolicy, evs []stream.Event) (*muxOp, *streamChecker, []string) {
				var trace []string
				proc, c := loneOp(t, evict, MuxCheck{Check: ck, Params: core.DefaultParams(), Seed: 5,
					OnOutcome: func(key string, o core.Outcome) { trace = append(trace, fmt.Sprintf("%s=%d", key, o)) }})
				structs := map[*groupState]bool{}
				for _, ev := range evs {
					if evict.MaxGroups > 0 && c.peek(ev.Key, stream.KeyHash(ev.Key)) == nil && c.LiveGroups() == evict.MaxGroups {
						// The cap is about to evict: the victim must carry the
						// state this test wants reused.
						v := c.lruTail
						if isCount && (v.grid.NextIdx == 0 || v.drop[0] == 0) || !isCount && !v.grid.Fired {
							t.Fatalf("victim %s holds no state worth reusing: %+v", v.key, v)
						}
					}
					proc.Process(ev, discardEmit)
					structs[c.peek(ev.Key, stream.KeyHash(ev.Key))] = true
				}
				if evict.MaxGroups > 0 && len(structs) > live+1 {
					t.Errorf("%d group structs for %d keys under a cap of %d: evicted state was not reused", len(structs), nKeys+1, live)
				}
				return proc, c, trace
			}
			_, _, want := run(EvictionPolicy{}, events)
			capped, c, got := run(EvictionPolicy{MaxGroups: live}, events)
			if len(want) == 0 || !slices.Equal(got, want) {
				t.Fatalf("capped verdicts %v\nwant %v", got, want)
			}
			if c.LiveGroups() != live {
				t.Fatalf("live = %d, want %d", c.LiveGroups(), live)
			}
			var survivors []stream.Event
			for _, ev := range events {
				if c.peek(ev.Key, stream.KeyHash(ev.Key)) != nil {
					survivors = append(survivors, ev)
				}
			}
			fresh, _, _ := run(EvictionPolicy{MaxGroups: live}, survivors)
			snap := func(p *muxOp) []byte {
				enc := checkpoint.NewEncoder()
				if err := EncodeOperator(p, enc); err != nil {
					t.Fatal(err)
				}
				return enc.Finish()
			}
			if !bytes.Equal(snap(capped), snap(fresh)) {
				t.Error("snapshot of reused groups differs from a fresh operator's over the surviving events")
			}
		})
	}
}

// TestSpareGroupsBounded: a TTL sweep that reclaims most groups keeps no
// more evicted structs for reuse than there are live groups.
func TestSpareGroupsBounded(t *testing.T) {
	ck := core.Check{Name: "range", Constraint: core.Range(0, 100), SeriesNames: []string{"s"}, Window: core.TimeWindow{Size: 10}}
	proc, c := loneOp(t, EvictionPolicy{TTL: 5}, MuxCheck{Check: ck, Naive: true})
	for k := 0; k < 10; k++ {
		proc.Process(stream.Event{Time: 0, Key: fmt.Sprintf("k%d", k), Value: 1}, discardEmit)
	}
	for k := 0; k < 4; k++ {
		proc.Process(stream.Event{Time: 4, Key: fmt.Sprintf("k%d", k), Value: 1}, discardEmit)
	}
	// Watermark 7 sweeps the six keys last seen at 0.
	proc.Process(stream.Event{Time: 7, Key: "k0", Value: 1}, discardEmit)
	if c.LiveGroups() != 4 || len(c.spare) == 0 || len(c.spare) > c.LiveGroups() {
		t.Errorf("live = %d, spare = %d: want 4 live and 1..4 spare", c.LiveGroups(), len(c.spare))
	}
}
