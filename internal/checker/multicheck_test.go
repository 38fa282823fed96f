package checker

import (
	"bytes"
	"fmt"
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
func runMuxGraph(t *testing.T, x *Mux, logs map[string]*verdictLog, events []stream.Event, workers, batch int, fuse bool) {
	t.Helper()
	runMuxGraphHook(t, x, events, workers, batch, fuse, nil)
	_ = logs
}

// runMuxGraphHook is runMuxGraph with a source-side hook: before emits
// event i the source calls before(i), which is where a test changes the
// registered suite mid-stream.
func runMuxGraphHook(t *testing.T, x *Mux, events []stream.Event, workers, batch int, fuse bool, before func(i int)) {
	t.Helper()
	g := stream.NewGraph()
	g.SetFusion(fuse)
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
// registration orders, worker counts, transport batch sizes, and operator
// fusion on and off. The reference run is registration order 0..3, one
// worker, default batch, fused.
func TestPinnedMultiCheckInvariance(t *testing.T) {
	cks := muxTestChecks()
	events := muxTestEvents(6, 48)
	ref := map[string][]byte{}
	{
		x, logs := muxFor(t, cks, []int{0, 1, 2, 3}, 7)
		runMuxGraph(t, x, logs, events, 1, 0, true)
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
			for _, fuse := range []bool{true, false} {
				x, logs := muxFor(t, cks, tc.order, 7)
				runMuxGraph(t, x, logs, events, tc.workers, tc.batch, fuse)
				for name, l := range logs {
					if got := l.canon(); !bytes.Equal(got, ref[name]) {
						t.Errorf("fuse=%v: check %q verdict map differs from reference:\ngot:\n%s\nwant:\n%s", fuse, name, got, ref[name])
					}
				}
			}
		})
	}
}

// TestPinnedLoneCheckInvariance is the same contract for a bucket of ONE:
// a lone check's verdict map is a property of its windows, byte-identical
// across worker counts, batch sizes and fusion, equal to the map the same
// check produces beside one or three same-class neighbours, and unmoved by
// a neighbour registering and deregistering mid-stream. Sixteen keys
// spread the windows over all four workers.
func TestPinnedLoneCheckInvariance(t *testing.T) {
	cks := muxTestChecks()
	events := muxTestEvents(16, 48)
	for li, lone := range cks {
		t.Run(lone.Name, func(t *testing.T) {
			x, logs := muxFor(t, cks, []int{li}, 7)
			runMuxGraph(t, x, logs, events, 1, 0, true)
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
					for _, fuse := range []bool{true, false} {
						label := fmt.Sprintf("workers=%d batch=%d fuse=%v", workers, batch, fuse)
						x, logs := muxFor(t, cks, []int{li}, 7)
						runMuxGraph(t, x, logs, events, workers, batch, fuse)
						check(label+" alone", logs[lone.Name])

						// A same-class neighbour comes and goes while the
						// stream runs; when the workers notice is scheduling,
						// what the lone check concludes is not.
						x, logs = muxFor(t, cks, []int{li}, 7)
						runMuxGraphHook(t, x, events, workers, batch, fuse, func(i int) {
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
				}
				for _, order := range [][]int{{li, next}, {next, li}, {0, 1, 2, 3}} {
					x, logs := muxFor(t, cks, order, 7)
					runMuxGraph(t, x, logs, events, workers, 0, true)
					check(fmt.Sprintf("workers=%d in bucket %v", workers, order), logs[lone.Name])
				}
			}
		})
	}
}

// TestStreamCheckerMatchesLoneMux: NewStreamChecker is a Mux hosting that
// one check — same operator, same window-derived seeds — so the two
// deliver the same verdict stream.
func TestStreamCheckerMatchesLoneMux(t *testing.T) {
	cks := muxTestChecks()
	events := muxTestEvents(3, 40)
	for _, ck := range cks {
		single := newVerdictLog()
		factory, err := NewStreamChecker(StreamCheck{
			Check:     ck,
			Params:    core.DefaultParams(),
			Seed:      11,
			OnOutcome: single.add,
		})
		if err != nil {
			t.Fatal(err)
		}
		g := stream.NewGraph()
		src := g.AddSource("src", func(emit stream.EmitFunc) {
			for _, ev := range events {
				emit(ev)
			}
		})
		if err := g.ConnectKeyed(src, g.AddOperator("check", 1, factory)); err != nil {
			t.Fatal(err)
		}
		if err := g.Connect(src, g.AddSink("sink", nil)); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Run(); err != nil {
			t.Fatal(err)
		}

		multi := newVerdictLog()
		x := NewMux(false, EvictionPolicy{})
		if err := x.Register(MuxCheck{
			Name:      ck.Name,
			Check:     ck,
			Params:    core.DefaultParams(),
			Seed:      11,
			OnOutcome: multi.add,
		}); err != nil {
			t.Fatal(err)
		}
		runMuxGraph(t, x, nil, events, 1, 0, true)
		if !bytes.Equal(single.canon(), multi.canon()) {
			t.Errorf("check %q: lone Mux verdicts differ from NewStreamChecker:\nmux:\n%s\nstream checker:\n%s",
				ck.Name, multi.canon(), single.canon())
		}
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

	runMuxGraph(t, x, nil, events, 1, 0, true)
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
	runMuxGraph(t, x, nil, events, 1, 0, true)
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

// TestMuxDrawsFlat pins the perf contract at the operator level: an
// 8-member bucket consumes the same number of draws per window as the
// per-lane slowest members would alone — not 8 independent runs.
func TestMuxDrawsFlat(t *testing.T) {
	base := muxTestChecks()
	events := muxTestEvents(2, 64)
	run := func(n int) GroupMetricsSnapshot {
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
		runMuxGraph(t, x, nil, events, 1, 0, true)
		x.mu.Lock()
		defer x.mu.Unlock()
		return x.order[0].metrics.Snapshot()
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
