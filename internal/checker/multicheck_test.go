package checker

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"sound/internal/core"
	"sound/internal/stream"
)

// muxTestChecks is a suite of four SOUND checks sharing one window spec
// and one params/seed class — one multiplexing bucket.
func muxTestChecks() []core.Check {
	win := core.CountWindow{Size: 8}
	cons := []core.Constraint{
		core.Range(0, 13),
		core.GreaterThan(1),
		core.MaxDelta(9),
		core.FractionInRange(3, 12, 0.5),
	}
	cks := make([]core.Check, len(cons))
	for i, c := range cons {
		cks[i] = core.Check{
			Name:        c.Name,
			Constraint:  c,
			SeriesNames: []string{"s"},
			Window:      win,
		}
	}
	return cks
}

// muxTestEvents is an uncertain multi-key event stream: values around
// the constraint boundaries with σ=2, so the Monte-Carlo draws decide.
func muxTestEvents(keys, perKey int) []stream.Event {
	var evs []stream.Event
	for i := 0; i < perKey; i++ {
		for k := 0; k < keys; k++ {
			evs = append(evs, stream.Event{
				Time:    float64(i),
				Key:     fmt.Sprintf("k%d", k),
				Value:   5 + float64((i+3*k)%7),
				SigUp:   2,
				SigDown: 2,
			})
		}
	}
	return evs
}

// verdictLog collects one check's (key, outcome) pairs. Outcomes for a
// single key arrive in window order from a single worker; cross-key
// interleaving is scheduling noise, so the canonical form sorts by key.
type verdictLog struct {
	mu sync.Mutex
	m  map[string][]core.Outcome
}

func newVerdictLog() *verdictLog { return &verdictLog{m: map[string][]core.Outcome{}} }

func (l *verdictLog) add(key string, o core.Outcome) {
	l.mu.Lock()
	l.m[key] = append(l.m[key], o)
	l.mu.Unlock()
}

// canon serializes the log into a canonical byte form.
func (l *verdictLog) canon() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	keys := make([]string, 0, len(l.m))
	for k := range l.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	for _, k := range keys {
		buf.WriteString(k)
		buf.WriteByte(':')
		for _, o := range l.m[k] {
			buf.WriteByte(byte('0' + int(o)))
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// runMuxGraph runs the events through one mux-hosted operator and
// returns the per-check canonical verdict maps, keyed by check name.
func runMuxGraph(t *testing.T, x *Mux, logs map[string]*verdictLog, events []stream.Event, workers, batch int) {
	t.Helper()
	runMuxGraphHook(t, x, events, workers, batch, nil)
	_ = logs
}

// runMuxGraphHook is runMuxGraph with a source-side hook: before emits
// event i the source calls before(i), which is where a test changes the
// registered suite mid-stream.
func runMuxGraphHook(t *testing.T, x *Mux, events []stream.Event, workers, batch int, before func(i int)) {
	t.Helper()
	g := stream.NewGraph()
	src := g.AddSource("src", func(emit stream.EmitFunc) {
		for i, ev := range events {
			if before != nil {
				before(i)
			}
			emit(ev)
		}
	})
	op := g.AddOperator("mux", workers, x.Factory())
	if err := g.ConnectKeyed(src, op); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(src, g.AddSink("sink", nil)); err != nil {
		t.Fatal(err)
	}
	if batch > 0 {
		if err := g.SetBatchSize(batch); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
}

// muxFor registers the suite (in the given order) on a fresh Mux and
// returns it with one verdict log per check.
func muxFor(t *testing.T, cks []core.Check, order []int, seed uint64) (*Mux, map[string]*verdictLog) {
	t.Helper()
	x := NewMux(false, EvictionPolicy{})
	logs := map[string]*verdictLog{}
	for _, i := range order {
		ck := cks[i]
		l := newVerdictLog()
		logs[ck.Name] = l
		if err := x.Register(MuxCheck{
			Name:      ck.Name,
			Check:     ck,
			Params:    core.DefaultParams(),
			Seed:      seed,
			RouteID:   "key",
			OnOutcome: l.add,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return x, logs
}

// TestPinnedMultiCheckInvariance is the multiplexing contract: the
// per-check verdict map of a shared bucket is byte-identical across
// registration orders, worker counts and transport batch sizes. The
// reference run is registration order 0..3, one worker, default batch.
func TestPinnedMultiCheckInvariance(t *testing.T) {
	cks := muxTestChecks()
	events := muxTestEvents(6, 48)
	ref := map[string][]byte{}
	{
		x, logs := muxFor(t, cks, []int{0, 1, 2, 3}, 7)
		runMuxGraph(t, x, logs, events, 1, 0)
		for name, l := range logs {
			ref[name] = l.canon()
			if len(l.m) != 6 {
				t.Fatalf("check %q saw %d keys, want 6", name, len(l.m))
			}
		}
	}
	cases := []struct {
		name    string
		order   []int
		workers int
		batch   int
	}{
		{"reversed-order", []int{3, 2, 1, 0}, 1, 0},
		{"shuffled-order", []int{2, 0, 3, 1}, 1, 0},
		{"workers-4", []int{0, 1, 2, 3}, 4, 0},
		{"batch-1", []int{0, 1, 2, 3}, 1, 1},
		{"batch-64", []int{0, 1, 2, 3}, 1, 64},
		{"workers-4-batch-1", []int{3, 1, 0, 2}, 4, 1},
		{"workers-4-batch-64", []int{1, 3, 2, 0}, 4, 64},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x, logs := muxFor(t, cks, tc.order, 7)
			runMuxGraph(t, x, logs, events, tc.workers, tc.batch)
			for name, l := range logs {
				if got := l.canon(); !bytes.Equal(got, ref[name]) {
					t.Errorf("check %q verdict map differs from reference:\ngot:\n%s\nwant:\n%s", name, got, ref[name])
				}
			}
		})
	}
}

// TestPinnedLoneCheckInvariance is the same contract for a bucket of ONE:
// a lone check's verdict map is a property of its windows, byte-identical
// across worker counts and batch sizes, equal to the map the same
// check produces beside one or three same-class neighbours, and unmoved by
// a neighbour registering and deregistering mid-stream. Sixteen keys
// spread the windows over all four workers.
func TestPinnedLoneCheckInvariance(t *testing.T) {
	cks := muxTestChecks()
	events := muxTestEvents(16, 48)
	for li, lone := range cks {
		t.Run(lone.Name, func(t *testing.T) {
			x, logs := muxFor(t, cks, []int{li}, 7)
			runMuxGraph(t, x, logs, events, 1, 0)
			ref := logs[lone.Name].canon()
			if len(logs[lone.Name].m) != 16 {
				t.Fatalf("lone check saw %d keys, want 16", len(logs[lone.Name].m))
			}
			check := func(label string, l *verdictLog) {
				t.Helper()
				if got := l.canon(); !bytes.Equal(got, ref) {
					t.Errorf("%s: lone check's verdict map differs from reference:\ngot:\n%s\nwant:\n%s", label, got, ref)
				}
			}
			next := (li + 1) % len(cks)
			for _, workers := range []int{1, 4} {
				for _, batch := range []int{1, 64} {
					label := fmt.Sprintf("workers=%d batch=%d", workers, batch)
					x, logs := muxFor(t, cks, []int{li}, 7)
					runMuxGraph(t, x, logs, events, workers, batch)
					check(label+" alone", logs[lone.Name])

					// A same-class neighbour comes and goes while the
					// stream runs; when the workers notice is scheduling,
					// what the lone check concludes is not.
					x, logs = muxFor(t, cks, []int{li}, 7)
					runMuxGraphHook(t, x, events, workers, batch, func(i int) {
						var err error
						switch i {
						case len(events) / 3:
							err = x.Register(MuxCheck{Name: "neighbour", Check: cks[next],
								Params: core.DefaultParams(), Seed: 7, RouteID: "key"})
						case 2 * len(events) / 3:
							err = x.Deregister("neighbour")
						}
						if err != nil {
							t.Error(err)
						}
					})
					check(label+" with churn", logs[lone.Name])
				}
				for _, order := range [][]int{{li, next}, {next, li}, {0, 1, 2, 3}} {
					x, logs := muxFor(t, cks, order, 7)
					runMuxGraph(t, x, logs, events, workers, 0)
					check(fmt.Sprintf("workers=%d in bucket %v", workers, order), logs[lone.Name])
				}
			}
		})
	}
}

// TestMuxBucketsByClass: a bucket shares window machinery and params
// class by construction — registrations that differ in either open their
// own bucket instead of joining one, and naive members ride along.
func TestMuxBucketsByClass(t *testing.T) {
	cks := muxTestChecks()
	buckets := func(members ...MuxCheck) []GroupStat {
		t.Helper()
		x := NewMux(false, EvictionPolicy{})
		for i, m := range members {
			m.Name, m.Params, m.RouteID = fmt.Sprint(i), core.DefaultParams(), "key"
			if err := x.Register(m); err != nil {
				t.Fatal(err)
			}
		}
		return x.GroupStats()
	}
	other := cks[1]
	other.Window = core.TimeWindow{Size: 8}
	if gs := buckets(MuxCheck{Check: cks[0]}, MuxCheck{Check: other}); len(gs) != 2 {
		t.Errorf("mismatched window specs: %d buckets, want 2", len(gs))
	}
	if gs := buckets(MuxCheck{Check: cks[0], Seed: 1}, MuxCheck{Check: cks[1], Seed: 2}); len(gs) != 2 {
		t.Errorf("mismatched seeds (class split): %d buckets, want 2", len(gs))
	}
	gs := buckets(MuxCheck{Check: cks[0], Seed: 1}, MuxCheck{Check: cks[1], Seed: 1},
		MuxCheck{Check: cks[2], Seed: 1, Naive: true})
	if len(gs) != 1 || !gs[0].Shared || len(gs[0].Checks) != 3 {
		t.Errorf("mixed sound+naive suite: buckets = %+v, want one shared bucket of 3", gs)
	}
}

// TestMuxDynamicRegistration drives the registry lifecycle: duplicate
// and unknown names error; deregistering removes the check from
// subsequent runs while survivors keep their counters; group stats
// report the sharing.
func TestMuxDynamicRegistration(t *testing.T) {
	cks := muxTestChecks()
	events := muxTestEvents(4, 32)
	x := NewMux(false, EvictionPolicy{})
	outs := make([]*StreamOutcomes, len(cks))
	for i, ck := range cks {
		outs[i] = &StreamOutcomes{}
		if err := x.Register(MuxCheck{
			Name: ck.Name, Check: ck, Params: core.DefaultParams(),
			Seed: 3, RouteID: "key", Out: outs[i],
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := x.Register(MuxCheck{Name: cks[0].Name, Check: cks[0], Params: core.DefaultParams()}); err == nil {
		t.Error("expected duplicate-name error")
	}
	if err := x.Deregister("nope"); err == nil {
		t.Error("expected unknown-name error")
	}
	if x.Len() != 4 {
		t.Fatalf("Len = %d, want 4", x.Len())
	}

	runMuxGraph(t, x, nil, events, 1, 0)
	gs := x.GroupStats()
	if len(gs) != 1 {
		t.Fatalf("GroupStats: %d buckets, want 1 shared bucket", len(gs))
	}
	if !gs[0].Shared || len(gs[0].Checks) != 4 {
		t.Errorf("bucket = %+v, want shared with 4 members", gs[0])
	}
	if gs[0].Windows == 0 || gs[0].MemberEvals != 4*gs[0].Windows {
		t.Errorf("bucket windows/evals = %d/%d, want evals = 4×windows", gs[0].Windows, gs[0].MemberEvals)
	}
	if gs[0].SharedExtractionHitRatio <= 0 {
		t.Errorf("shared extraction hit ratio = %v, want > 0", gs[0].SharedExtractionHitRatio)
	}
	// Every point is uncertain, so range, gt and fraction are decided from
	// their closed form in every window and only max-delta draws rows.
	if gs[0].Collapsed != 3*gs[0].Windows || gs[0].Draws == 0 {
		t.Errorf("bucket collapsed/draws = %d/%d over %d windows, want 3 collapsed members a window and rows for the fourth",
			gs[0].Collapsed, gs[0].Draws, gs[0].Windows)
	}
	first := make([]OutcomeCounts, len(outs))
	for i, o := range outs {
		first[i] = o.Counts()
		if first[i].Total() == 0 {
			t.Fatalf("check %d produced no outcomes", i)
		}
	}

	// Drop one check; survivors must keep producing on a fresh graph.
	if err := x.Deregister(cks[1].Name); err != nil {
		t.Fatal(err)
	}
	runMuxGraph(t, x, nil, events, 1, 0)
	if got := outs[1].Counts(); got != first[1] {
		t.Errorf("deregistered check counters moved: %+v -> %+v", first[1], got)
	}
	for _, i := range []int{0, 2, 3} {
		if got := outs[i].Counts(); got.Total() != 2*first[i].Total() {
			t.Errorf("check %d total = %d after second run, want %d", i, got.Total(), 2*first[i].Total())
		}
	}
	// Deregistering the rest empties the registry and its buckets.
	for _, i := range []int{0, 2, 3} {
		if err := x.Deregister(cks[i].Name); err != nil {
			t.Fatal(err)
		}
	}
	if x.Len() != 0 || len(x.GroupStats()) != 0 {
		t.Errorf("registry not empty after deregistering all: len=%d buckets=%d", x.Len(), len(x.GroupStats()))
	}
}

// TestMemberJoinsLiveBucket: SOUND members that join a live bucket —
// one that so far held only a naive member, with points buffered and
// windows fired behind it — fire, key by key and in order, exactly the
// verdicts an operator that had them from the start fires after the
// join; and the same once they have left and come back. A group's state
// is its points and its grid position, shared by every member, so a
// member's windows cannot depend on when it joined.
func TestMemberJoinsLiveBucket(t *testing.T) {
	events := muxTestEvents(3, 60)
	join, leave, back := len(events)/2, 5*len(events)/8, 3*len(events)/4
	sound := []core.Constraint{core.Range(0, 13), core.MaxDelta(9)}
	type verdict struct {
		at int // index of the event being processed, len(events) at Flush
		o  core.Outcome
	}
	type trail map[string][]verdict
	for _, win := range []core.Windower{core.TimeWindow{Size: 10, Slide: 5}, core.CountWindow{Size: 8, Slide: 3}} {
		t.Run(fmt.Sprintf("%T", win), func(t *testing.T) {
			at := 0
			register := func(x *Mux, c core.Constraint, naive bool) trail {
				tr, name := trail{}, c.Name
				if naive {
					name = "naive " + name
				}
				ck := core.Check{Name: name, Constraint: c, SeriesNames: []string{"s"}, Window: win}
				if err := x.Register(MuxCheck{Name: name, Check: ck, Params: core.DefaultParams(), Seed: 7,
					Naive: naive, RouteID: "key",
					OnOutcome: func(key string, o core.Outcome) { tr[key] = append(tr[key], verdict{at, o}) }}); err != nil {
					t.Fatal(err)
				}
				return tr
			}
			run := func(x *Mux, before func(i int)) {
				proc := x.Factory()()
				for i, ev := range events {
					at = i
					before(i)
					proc.Process(ev, discardEmit)
				}
				at = len(events)
				proc.Flush(discardEmit)
			}
			// from keeps the verdicts fired in [lo, hi).
			from := func(tr trail, lo, hi int) trail {
				out := trail{}
				for key, vs := range tr {
					for _, v := range vs {
						if v.at >= lo && v.at < hi {
							out[key] = append(out[key], v)
						}
					}
				}
				return out
			}

			ref := NewMux(false, EvictionPolicy{})
			refNaive := register(ref, core.Range(0, 13), true)
			var want []trail
			for _, c := range sound {
				want = append(want, register(ref, c, false))
			}
			run(ref, func(int) {})

			live := NewMux(false, EvictionPolicy{})
			liveNaive := register(live, core.Range(0, 13), true)
			joined, returned := make([]trail, len(sound)), make([]trail, len(sound))
			run(live, func(i int) {
				switch i {
				case join, back:
					got := joined
					if i == back {
						got = returned
					}
					for k, c := range sound {
						got[k] = register(live, c, false)
					}
					if gs := live.GroupStats(); len(gs) != 1 || len(gs[0].Checks) != 1+len(sound) {
						t.Fatalf("event %d: buckets %+v, want the naive member's bucket joined", i, gs)
					}
				case leave:
					for _, c := range sound {
						if err := live.Deregister(c.Name); err != nil {
							t.Fatal(err)
						}
					}
				}
			})

			if !reflect.DeepEqual(liveNaive, refNaive) {
				t.Error("the naive member's verdicts moved when members joined and left")
			}
			for k, c := range sound {
				before, after := from(want[k], 0, join), from(want[k], join, leave)
				if len(before) == 0 || len(after) == 0 {
					t.Fatalf("%s: %d keys fired before the join and %d after, test is vacuous", c.Name, len(before), len(after))
				}
				if !reflect.DeepEqual(joined[k], after) {
					t.Errorf("%s after the join:\n got %v\nwant %v", c.Name, joined[k], after)
				}
				if again := from(want[k], back, len(events)+1); !reflect.DeepEqual(returned[k], again) {
					t.Errorf("%s after re-registering:\n got %v\nwant %v", c.Name, returned[k], again)
				}
			}
			seen := map[core.Outcome]bool{}
			for _, tr := range want {
				for _, vs := range tr {
					for _, v := range vs {
						seen[v.o] = true
					}
				}
			}
			if len(seen) < 2 {
				t.Fatalf("every SOUND verdict is %v, test is vacuous", seen)
			}
		})
	}
}

// TestMuxDrawsFlat pins the perf contract at the operator level: an
// 8-member bucket consumes the same number of draws per window as the
// per-lane slowest members would alone — not 8 independent runs.
func TestMuxDrawsFlat(t *testing.T) {
	base := muxTestChecks()
	events := muxTestEvents(2, 64)
	run := func(n int) GroupStat {
		x := NewMux(false, EvictionPolicy{})
		for i := 0; i < n; i++ {
			ck := base[i%len(base)]
			ck.Name = fmt.Sprintf("%s#%d", ck.Name, i)
			if err := x.Register(MuxCheck{
				Name: ck.Name, Check: ck, Params: core.DefaultParams(),
				Seed: 9, RouteID: "key",
			}); err != nil {
				t.Fatal(err)
			}
		}
		runMuxGraph(t, x, nil, events, 1, 0)
		return x.GroupStats()[0]
	}
	s2 := run(2)
	s8 := run(8)
	if s8.Windows != s2.Windows {
		t.Fatalf("window counts differ: %d vs %d", s8.Windows, s2.Windows)
	}
	// 8 members span the same strategy lanes as the full 4-check suite;
	// duplicated members are free riders on their lane's stream. Allow
	// the lane split (2 members = Point lane only ⊂ 8 members' lanes) by
	// comparing against a 4-member run covering all lanes.
	s4 := run(4)
	if s8.Draws > s4.Draws {
		t.Errorf("draws grew with member count: 4 members %d, 8 members %d", s4.Draws, s8.Draws)
	}
	if s8.MemberEvals != 2*s4.MemberEvals {
		t.Errorf("member evals = %d, want %d", s8.MemberEvals, 2*s4.MemberEvals)
	}
}
