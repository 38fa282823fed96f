package main

import (
	"fmt"
	"strings"

	"sound/internal/checker"
	"sound/internal/core"
	"sound/internal/ingest"
	"sound/internal/stream"
)

// This file computes what soundserve must answer, and compares. The
// generated events are replayed in-process through one checker.Mux
// operator per shard — the same operator, partitioning and eviction
// policy the server runs — one event at a time, so every verdict is
// recorded with the event that closed its window. A second replay of the
// latent (noise-free) values under BASE_CHECK semantics gives the ground
// truth for the same windows: windowing depends only on keys and times,
// so the two verdict sequences align one to one.

// verdict is one reference outcome.
type verdict struct {
	trigger int32 // index of the event that closed the window
	seq     int32 // ordinal of that event among its shard's events
	key     int32 // index into the source's key universe
	check   uint8 // index into reference.checks
	outcome core.Outcome
	truth   core.Outcome
}

// refPoint is one event handed to a shard replay (the key travels as an
// index so a batch holds no pointers).
type refPoint struct {
	t, v, sigUp, sigDown float64
	latent               float64
	index                int32
	key                  int32
}

// shardReplay is one shard's pair of operators.
type shardReplay struct {
	noisy, truth stream.Processor
	outs         []*checker.StreamOutcomes // noisy per-check counters
	cur          *refPoint
	curKey       string
	seq          int32     // events fed so far
	fired        []verdict // noisy verdicts of the current event
	next         int       // how many of fired the truth replay has paired
	verdicts     []verdict
	// seqAt[i] is how many of this shard's events precede cuts[i].
	seqAt []int32
	// lifecycle is the eviction-layer counters per check as of the last
	// whole transport frame (see handed).
	lifecycle []checker.LifecycleCounts
	err       error
}

// reference is the replay of one input.
type reference struct {
	checks []string
	// comparable marks the checks whose verdicts are held against the
	// latent truth (see truthComparable).
	comparable []bool
	keys       []string
	// cuts are the input positions (point indices, ascending) at which
	// the run compares the server's counters with the replay.
	cuts   []int
	shards []*shardReplay
}

func newReference(wl *workload, keys []string, cuts []int) (*reference, error) {
	ref := &reference{keys: keys, cuts: cuts}
	cfgs, err := wl.checkConfigs()
	if err != nil {
		return nil, err
	}
	for i, cc := range cfgs {
		ref.checks = append(ref.checks, cc.Name)
		ref.comparable = append(ref.comparable, truthComparable(wl.checks[i]))
	}
	for s := 0; s < serverShards; s++ {
		sh := &shardReplay{outs: make([]*checker.StreamOutcomes, len(cfgs))}
		noisy, err := wl.newMux(func(i int, mc *checker.MuxCheck) {
			sh.outs[i] = &checker.StreamOutcomes{}
			mc.Out = sh.outs[i]
			mc.OnOutcome = func(key string, o core.Outcome) { sh.recordNoisy(uint8(i), key, o) }
		})
		if err != nil {
			return nil, err
		}
		truth, err := wl.newMux(func(i int, mc *checker.MuxCheck) {
			mc.Naive = true
			mc.OnOutcome = func(key string, o core.Outcome) { sh.pairTruth(uint8(i), key, o) }
		})
		if err != nil {
			return nil, err
		}
		sh.noisy, sh.truth = noisy.Factory()(), truth.Factory()()
		ref.shards = append(ref.shards, sh)
	}
	return ref, nil
}

// truthComparable reports whether a check's verdict on the observations
// can be held against the same check on the latent values. It can for the
// templates that ask a question of each point's level (range, gt, nonneg,
// fraction): the checker resamples each observation's posterior, and the
// latent value is a draw from it. It cannot for the templates that ask
// about roughness (maxdelta, monotonic, stdnonzero): the posterior treats
// the points' errors as independent, so its sequences are as rough as the
// noise, while the latent series is smooth — the two answers differ by
// construction, not by any fault of the checker.
func truthComparable(spec string) bool {
	template, _, _ := strings.Cut(spec, ";")
	switch template {
	case "range", "gt", "nonneg", "fraction":
		return true
	}
	return false
}

func (sh *shardReplay) recordNoisy(check uint8, key string, o core.Outcome) {
	// Windows are per key and close on the key's own watermark, so the
	// event that fires a window always carries the window's key.
	if key != sh.curKey && sh.err == nil {
		sh.err = fmt.Errorf("reference: verdict for key %q fired by an event of key %q", key, sh.curKey)
	}
	sh.fired = append(sh.fired, verdict{trigger: sh.cur.index, seq: sh.seq, key: sh.cur.key, check: check, outcome: o})
}

func (sh *shardReplay) pairTruth(check uint8, key string, o core.Outcome) {
	if sh.next >= len(sh.fired) || sh.fired[sh.next].check != check {
		if sh.err == nil {
			sh.err = fmt.Errorf("reference: truth replay diverged from the noisy replay at event %d (check %d, key %q)", sh.cur.index, check, key)
		}
		return
	}
	v := sh.fired[sh.next]
	v.truth = o
	sh.verdicts = append(sh.verdicts, v)
	sh.next++
}

func dropEvent(stream.Event) {}

// feed replays the shard's next events through both operators.
func (sh *shardReplay) feed(ref *reference, pts []refPoint) {
	for i := range pts {
		p := &pts[i]
		for len(sh.seqAt) < len(ref.cuts) && int(p.index) >= ref.cuts[len(sh.seqAt)] {
			sh.seqAt = append(sh.seqAt, sh.seq)
		}
		if sh.seq%serverBatch == 0 {
			sh.snapLifecycle()
		}
		sh.cur, sh.curKey, sh.fired, sh.next = p, ref.keys[p.key], sh.fired[:0], 0
		ev := stream.Event{Time: p.t, Key: sh.curKey, Value: p.v, SigUp: p.sigUp, SigDown: p.sigDown}
		sh.noisy.Process(ev, dropEvent)
		ev.Value, ev.SigUp, ev.SigDown = p.latent, 0, 0
		sh.truth.Process(ev, dropEvent)
		if sh.next != len(sh.fired) && sh.err == nil {
			sh.err = fmt.Errorf("reference: event %d fired %d noisy verdicts but %d truth verdicts", p.index, len(sh.fired), sh.next)
		}
		sh.seq++
	}
}

// finish closes the replay: cuts at or past the end of the input see
// every event of the shard.
func (sh *shardReplay) finish(ref *reference) {
	for len(sh.seqAt) < len(ref.cuts) {
		sh.seqAt = append(sh.seqAt, sh.seq)
	}
	if sh.seq%serverBatch == 0 {
		sh.snapLifecycle()
	}
}

func (sh *shardReplay) snapLifecycle() {
	if sh.lifecycle == nil {
		sh.lifecycle = make([]checker.LifecycleCounts, len(sh.outs))
	}
	for i, out := range sh.outs {
		sh.lifecycle[i] = out.Lifecycle()
	}
}

// handed reports how many of the shard's events its operator has been
// handed once the server is quiescent after the input's first cuts[cut]
// points. The shard's fused source passes events to the operator in
// transport frames of serverBatch: a trailing partial frame waits in the
// chain until later events fill it (or the server drains), so its
// verdicts have not fired although /stats counts the events as consumed.
func (sh *shardReplay) handed(cut int) int32 {
	return sh.seqAt[cut] - sh.seqAt[cut]%serverBatch
}

func (ref *reference) err() error {
	for _, sh := range ref.shards {
		if sh.err != nil {
			return sh.err
		}
	}
	return nil
}

// counts3 is ⊤, ⊥, ⊣ — indexable by core.Outcome via slot().
type counts3 [3]int

func slot(o core.Outcome) int {
	switch o {
	case core.Satisfied:
		return 0
	case core.Violated:
		return 1
	}
	return 2
}

// tally summarises the verdicts the server fires between its quiescent
// points after cuts fromCut and toCut.
type tally struct {
	perCheck     []counts3
	wrongBy      []int // per check: conclusive, and contradicting the latent truth
	verdicts     int
	judged       int // verdicts of truth-comparable checks
	wrong        int // of those: conclusive, and contradicting the latent truth
	inconclusive int
}

func (ref *reference) tally(fromCut, toCut int) tally {
	t := tally{perCheck: make([]counts3, len(ref.checks)), wrongBy: make([]int, len(ref.checks))}
	for _, sh := range ref.shards {
		from, to := sh.handed(fromCut), sh.handed(toCut)
		for _, v := range sh.verdicts {
			if v.seq < from || v.seq >= to {
				continue
			}
			t.verdicts++
			t.perCheck[v.check][slot(v.outcome)]++
			if ref.comparable[v.check] {
				t.judged++
			}
			switch {
			case v.outcome == core.Inconclusive:
				t.inconclusive++
			case v.truth != core.Inconclusive && v.truth != v.outcome:
				t.wrongBy[v.check]++
				if ref.comparable[v.check] {
					t.wrong++
				}
			}
		}
	}
	return t
}

// lifecycle sums the noisy replay's eviction-layer counters per check,
// as of the end of the input.
func (ref *reference) lifecycle() []checker.LifecycleCounts {
	lc := make([]checker.LifecycleCounts, len(ref.checks))
	for _, sh := range ref.shards {
		for i, c := range sh.lifecycle {
			lc[i].EvictedGroups += c.EvictedGroups
			lc[i].DroppedLate += c.DroppedLate
			lc[i].RejectedEvents += c.RejectedEvents
		}
	}
	return lc
}

// diffStats counts how far the server's per-check counters are from the
// reference: missing, extra and different verdicts all show as count
// differences, and so do eviction-layer events when lifecycle is given.
// Checks the reference does not know (the churn member) are skipped.
func (ref *reference) diffStats(st ingest.Stats, want tally, lifecycle []checker.LifecycleCounts) int {
	byName := map[string]ingest.CheckStats{}
	for _, cs := range st.Checks {
		byName[cs.Name] = cs
	}
	diff := 0
	for i, name := range ref.checks {
		cs := byName[name] // a missing check diffs against zero counters
		w := want.perCheck[i]
		diff += abs(cs.Satisfied-w[0]) + abs(cs.Violated-w[1]) + abs(cs.Inconclusive-w[2])
		if lifecycle != nil {
			lc := lifecycle[i]
			diff += abs(cs.EvictedGroups-lc.EvictedGroups) + abs(cs.DroppedLate-lc.DroppedLate) + abs(cs.RejectedEvents-lc.RejectedEvents)
		}
	}
	return diff
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// observed is one /outcomes line as the reader saw it.
type observed struct {
	check   uint8
	key     int32
	outcome core.Outcome
	recv    int64 // ns since the paced phase's clock origin
}

// matched is one paced-phase verdict with both of its timestamps.
type matched struct {
	due  int64 // due send time of the event that closed the window, ns
	recv int64
}

// matchResult is the outcome feed diffed against the reference.
type matchResult struct {
	matched   []matched // paired verdicts whose trigger was sent in the phase
	paired    int       // feed lines that found their reference verdict
	expected  int
	missing   int // reference verdicts the feed never delivered
	extra     int // feed lines beyond what the reference has for (check, key)
	different int // delivered, but with another outcome
}

func (m matchResult) failed() int { return m.missing + m.extra + m.different }

// match pairs feed lines with the reference verdicts fired between the
// quiescent points after cuts fromCut and toCut. /outcomes lines carry
// only {check, key, outcome}; per (check, key) they arrive in window
// order, so the n-th line for a pair is the n-th verdict the reference
// recorded for it. dueOf maps a trigger event to the time it was due on
// the wire, or a negative value for an event sent before the phase (its
// verdict is matched, but has no latency).
func (ref *reference) match(fromCut, toCut int, obs []observed, dueOf func(trigger int32) int64) matchResult {
	pair := func(check uint8, key int32) uint64 { return uint64(check)<<32 | uint64(uint32(key)) }
	queues := map[uint64][]verdict{}
	var res matchResult
	for _, sh := range ref.shards {
		from, to := sh.handed(fromCut), sh.handed(toCut)
		for _, v := range sh.verdicts {
			if v.seq >= from && v.seq < to {
				k := pair(v.check, v.key)
				queues[k] = append(queues[k], v)
				res.expected++
			}
		}
	}
	taken := make(map[uint64]int, len(queues))
	for _, o := range obs {
		k := pair(o.check, o.key)
		q, n := queues[k], taken[k]
		if n >= len(q) {
			res.extra++
			continue
		}
		taken[k] = n + 1
		if q[n].outcome != o.outcome {
			res.different++
			continue
		}
		res.paired++
		if due := dueOf(q[n].trigger); due >= 0 {
			res.matched = append(res.matched, matched{due: due, recv: o.recv})
		}
	}
	res.missing = res.expected - res.paired - res.different
	return res
}
