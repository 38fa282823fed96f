package checker

import (
	"math"
	"slices"
	"strings"
	"testing"

	"sound/internal/core"
	"sound/internal/resample"
	"sound/internal/series"
	"sound/internal/stream"
)

// runCheckGraph pushes the events through a single-worker instance of
// the configured stream checker inside a real graph and returns the
// observed outcome counts.
func runCheckGraph(t *testing.T, cfg StreamCheck, events []stream.Event, keyed bool, workers int) OutcomeCounts {
	t.Helper()
	out := cfg.Out
	if out == nil {
		out = &StreamOutcomes{}
		cfg.Out = out
	}
	factory, err := NewStreamChecker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := stream.NewGraph()
	src := g.AddSource("src", func(emit stream.EmitFunc) {
		for _, ev := range events {
			emit(ev)
		}
	})
	chk := g.AddOperator("check", workers, factory)
	if keyed {
		err = g.ConnectKeyed(src, chk)
	} else {
		err = g.Connect(src, chk)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(src, g.AddSink("sink", nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	return out.Counts()
}

// TestStreamCheckerPerKeyBinaryWindows runs a binary check with per-key
// window state — the shape neither of the old hand-written operators
// supported: windows of the (x, y) pair are maintained independently per
// group via a composite-key route.
func TestStreamCheckerPerKeyBinaryWindows(t *testing.T) {
	ck := core.Check{
		Name:        "count",
		Constraint:  core.CountAtLeast(),
		SeriesNames: []string{"x", "y"},
		Window:      core.TimeWindow{Size: 10},
	}
	var events []stream.Event
	for i := 0; i < 30; i++ {
		t := float64(i)
		for _, grp := range []string{"g1", "g2"} {
			events = append(events,
				stream.Event{Time: t, Key: grp + "/x", Value: 1},
				stream.Event{Time: t, Key: grp + "/y", Value: 2},
			)
		}
	}
	counts := runCheckGraph(t, StreamCheck{
		Check: ck,
		Naive: true,
		Route: ByKeyedInputs("/", "x", "y"),
	}, events, false, 1)
	// 30 time units in tumbling windows of 10, per group: 3 windows × 2
	// groups, every one satisfied (|x| >= |y| point counts are equal).
	if counts.Total() != 6 || counts.Satisfied != 6 {
		t.Errorf("counts = %+v, want 6 satisfied windows", counts)
	}
}

// TestStreamCheckerSlidingWindowsOnline evaluates overlapping time
// windows online and requires the same window set a batch run produces.
func TestStreamCheckerSlidingWindowsOnline(t *testing.T) {
	win := core.TimeWindow{Size: 10, Slide: 5}
	ck := core.Check{
		Name:        "range",
		Constraint:  core.Range(0, 100),
		SeriesNames: []string{"s"},
		Window:      win,
	}
	var events []stream.Event
	s := make(series.Series, 30)
	for i := 0; i < 30; i++ {
		v := 5.0
		if i == 17 {
			v = 500 // lands in the windows starting at 10 and 15
		}
		events = append(events, stream.Event{Time: float64(i), Key: "k", Value: v})
		s[i] = series.Point{T: float64(i), V: v}
	}
	counts := runCheckGraph(t, StreamCheck{Check: ck, Naive: true}, events, true, 1)

	batch := core.EvaluateAllNaive(ck.Constraint, win, []series.Series{s})
	var want OutcomeCounts
	for _, o := range batch {
		switch o {
		case core.Satisfied:
			want.Satisfied++
		case core.Violated:
			want.Violated++
		default:
			want.Inconclusive++
		}
	}
	if counts != want {
		t.Errorf("stream counts = %+v, batch counts = %+v", counts, want)
	}
	if counts.Violated != 2 {
		t.Errorf("violated = %d, want 2 overlapping windows covering t=17", counts.Violated)
	}
}

// TestStreamCheckerOutOfOrderWithinWindow shuffles arrival order inside
// each window; the operator must still evaluate time-ordered buffers, so
// a monotone signal stays satisfied.
func TestStreamCheckerOutOfOrderWithinWindow(t *testing.T) {
	ck := core.Check{
		Name:        "mono",
		Constraint:  core.MonotonicIncrease(true),
		SeriesNames: []string{"s"},
		Window:      core.TimeWindow{Size: 5},
	}
	perm := []int{3, 1, 4, 0, 2} // arrival order within each window
	var events []stream.Event
	for w := 0; w < 6; w++ {
		for _, j := range perm {
			t := float64(w*5 + j)
			events = append(events, stream.Event{Time: t, Key: "k", Value: t})
		}
	}
	counts := runCheckGraph(t, StreamCheck{Check: ck, Naive: true}, events, true, 1)
	if counts.Total() != 6 || counts.Satisfied != 6 {
		t.Errorf("counts = %+v, want 6 satisfied windows despite shuffled arrival", counts)
	}
}

// TestBatchStreamParityTumbling is the batch↔stream equivalence check:
// on a dense tumbling-window workload, the streaming operator and the
// batch plan must produce identical outcome counts — exactly (naive
// mode) and on clear-cut data (SOUND mode, where outcomes are
// seed-independent).
func TestBatchStreamParityTumbling(t *testing.T) {
	win := core.TimeWindow{Size: 10}
	ck := core.Check{
		Name:        "range",
		Constraint:  core.Range(0, 100),
		SeriesNames: []string{"s"},
		Window:      win,
	}
	s := make(series.Series, 100)
	var events []stream.Event
	for i := 0; i < 100; i++ {
		v := 50.0
		if i%25 == 3 {
			v = 5000 // clear violation, far beyond the uncertainty
		}
		p := series.Point{T: float64(i), V: v, SigUp: 0.5, SigDown: 0.5}
		s[i] = p
		events = append(events, stream.Event{Time: p.T, Key: "k", Value: p.V, SigUp: p.SigUp, SigDown: p.SigDown})
	}
	ss := []series.Series{s}

	pl, err := core.CompilePlan(ck, core.DefaultParams(), 77)
	if err != nil {
		t.Fatal(err)
	}

	toCounts := func(os []core.Outcome) OutcomeCounts {
		var c OutcomeCounts
		for _, o := range os {
			switch o {
			case core.Satisfied:
				c.Satisfied++
			case core.Violated:
				c.Violated++
			default:
				c.Inconclusive++
			}
		}
		return c
	}

	// Naive mode: outcomes are deterministic, counts must match exactly.
	batchNaive, err := pl.RunNaive(ss)
	if err != nil {
		t.Fatal(err)
	}
	streamNaive := runCheckGraph(t, StreamCheck{Check: ck, Naive: true}, events, true, 1)
	if want := toCounts(batchNaive); streamNaive != want {
		t.Errorf("naive: stream counts %+v != batch counts %+v", streamNaive, want)
	}

	// SOUND mode: random streams differ between the paths, but on
	// clear-cut data every window decides the same way regardless of
	// seed, so the counts must still match.
	batchSound, err := pl.Run(ss)
	if err != nil {
		t.Fatal(err)
	}
	var want OutcomeCounts
	for _, r := range batchSound {
		switch r.Outcome {
		case core.Satisfied:
			want.Satisfied++
		case core.Violated:
			want.Violated++
		default:
			want.Inconclusive++
		}
	}
	streamSound := runCheckGraph(t, StreamCheck{Check: ck, Seed: 77, Params: core.DefaultParams()}, events, true, 1)
	if streamSound != want {
		t.Errorf("sound: stream counts %+v != batch counts %+v", streamSound, want)
	}
	if want.Violated != 4 {
		t.Errorf("batch violated = %d, want 4", want.Violated)
	}
}

// TestBatchStreamParityOffGridStart: the first timestamp (3.7) is not a
// multiple of the slide, spacing is irregular, the first two events
// arrive out of order, and a silence longer than the window size forces
// the batch grid to emit empty windows across the gap. The stream must
// anchor its grid at the group's first observation (re-anchoring on the
// out-of-order arrival) and evaluate the identical window sequence —
// including the empty slots — for tumbling and sliding windows alike.
func TestBatchStreamParityOffGridStart(t *testing.T) {
	times := []float64{3.7, 4.2, 9.9, 17.3, 21.0, 22.5, 48.1, 103.6, 110.2, 111.9}
	var s series.Series
	var events []stream.Event
	for i, ts := range times {
		v := float64(10 + i)
		s = append(s, series.Point{T: ts, V: v})
		events = append(events, stream.Event{Time: ts, Key: "k", Value: v})
	}
	// Deliver the anchor event second: the stream grid must shift to 3.7
	// when it arrives, since no window has fired yet.
	events[0], events[1] = events[1], events[0]

	for _, win := range []core.TimeWindow{{Size: 10}, {Size: 10, Slide: 4}} {
		ck := core.Check{
			Name:        "range",
			Constraint:  core.Range(0, 100),
			SeriesNames: []string{"s"},
			Window:      win,
		}
		batch := core.EvaluateAllNaive(ck.Constraint, win, []series.Series{s})
		var want OutcomeCounts
		for _, o := range batch {
			switch o {
			case core.Satisfied:
				want.Satisfied++
			case core.Violated:
				want.Violated++
			default:
				want.Inconclusive++
			}
		}
		if want.Inconclusive == 0 {
			t.Fatalf("%v: workload has no empty gap windows, test is vacuous", win)
		}
		got := runCheckGraph(t, StreamCheck{Check: ck, Naive: true}, events, true, 1)
		if got != want {
			t.Errorf("%v: stream counts %+v != batch counts %+v", win, got, want)
		}
	}
}

// TestStreamCheckerLateEventDropped: an event below the fired horizon
// must be dropped, not re-open a closed window — each window's
// boundaries are evaluated exactly once.
func TestStreamCheckerLateEventDropped(t *testing.T) {
	ck := core.Check{
		Name:        "range",
		Constraint:  core.Range(0, 100),
		SeriesNames: []string{"s"},
		Window:      core.TimeWindow{Size: 5},
	}
	events := []stream.Event{
		{Time: 0, Key: "k", Value: 1},
		{Time: 3, Key: "k", Value: 1},
		{Time: 7, Key: "k", Value: 1}, // watermark 7 closes [0,5)
		{Time: 2, Key: "k", Value: 1}, // late: its only window already fired
	}
	out := &StreamOutcomes{}
	counts := runCheckGraph(t, StreamCheck{Check: ck, Naive: true, Out: out}, events, true, 1)
	// Exactly the grid windows [0,5) and [5,10) — no duplicate [0,5).
	if counts.Total() != 2 {
		t.Errorf("total = %d, want 2 (late event must not re-fire a closed window)", counts.Total())
	}
	// The drop is observable, not silent: exactly the t=2 event counts as
	// late, and nothing was evicted or rejected on this unbounded run.
	if lc := out.Lifecycle(); lc != (LifecycleCounts{DroppedLate: 1}) {
		t.Errorf("lifecycle = %+v, want exactly 1 dropped-late event", lc)
	}
}

// TestStreamCheckerCountHopping: Slide > Size hops over points. The old
// operator sliced past the buffer end and panicked; the batch
// CountWindow emits windows at indices 0-1, 5-6, 10-11.
func TestStreamCheckerCountHopping(t *testing.T) {
	win := core.CountWindow{Size: 2, Slide: 5}
	ck := core.Check{
		Name:        "mono",
		Constraint:  core.MonotonicIncrease(true),
		SeriesNames: []string{"s"},
		Window:      win,
	}
	var s series.Series
	var events []stream.Event
	for i := 0; i < 12; i++ {
		s = append(s, series.Point{T: float64(i), V: float64(i)})
		events = append(events, stream.Event{Time: float64(i), Key: "k", Value: float64(i)})
	}
	if n := len(core.EvaluateAllNaive(ck.Constraint, win, []series.Series{s})); n != 3 {
		t.Fatalf("batch windows = %d, want 3", n)
	}
	counts := runCheckGraph(t, StreamCheck{Check: ck, Naive: true}, events, true, 1)
	if counts.Total() != 3 || counts.Satisfied != 3 {
		t.Errorf("counts = %+v, want 3 satisfied hopping windows", counts)
	}
}

// TestStreamCheckerGlobalAndSession covers the window kinds the old
// operators never supported online.
func TestStreamCheckerGlobalAndSession(t *testing.T) {
	var events []stream.Event
	for i := 0; i < 20; i++ {
		events = append(events, stream.Event{Time: float64(i), Key: "k", Value: float64(i)})
	}
	global := core.Check{
		Name:        "mono",
		Constraint:  core.MonotonicIncrease(true),
		SeriesNames: []string{"s"},
		Window:      core.GlobalWindow{},
	}
	counts := runCheckGraph(t, StreamCheck{Check: global, Naive: true}, events, true, 1)
	if counts.Total() != 1 || counts.Satisfied != 1 {
		t.Errorf("global counts = %+v", counts)
	}

	// Two bursts separated by a gap > 5 form two sessions.
	var sess []stream.Event
	for i := 0; i < 5; i++ {
		sess = append(sess, stream.Event{Time: float64(i), Key: "k", Value: 1})
	}
	for i := 0; i < 5; i++ {
		sess = append(sess, stream.Event{Time: 20 + float64(i), Key: "k", Value: 1})
	}
	session := core.Check{
		Name:        "range",
		Constraint:  core.Range(0, 2),
		SeriesNames: []string{"s"},
		Window:      core.SessionWindow{Gap: 5},
	}
	counts = runCheckGraph(t, StreamCheck{Check: session, Naive: true}, sess, true, 1)
	if counts.Total() != 2 || counts.Satisfied != 2 {
		t.Errorf("session counts = %+v", counts)
	}
}

// TestStreamCheckerCountSliding exercises overlapping count windows.
func TestStreamCheckerCountSliding(t *testing.T) {
	ck := core.Check{
		Name:        "mono",
		Constraint:  core.MonotonicIncrease(true),
		SeriesNames: []string{"s"},
		Window:      core.CountWindow{Size: 4, Slide: 2},
	}
	var events []stream.Event
	for i := 0; i < 10; i++ {
		events = append(events, stream.Event{Time: float64(i), Key: "k", Value: float64(i)})
	}
	counts := runCheckGraph(t, StreamCheck{Check: ck, Naive: true}, events, true, 1)
	// Windows start at indices 0, 2, 4, 6 — index 8 has only 2 points
	// left and is dropped, matching the batch CountWindow.
	if counts.Total() != 4 || counts.Satisfied != 4 {
		t.Errorf("counts = %+v, want 4 satisfied windows", counts)
	}
}

// TestNewStreamCheckerRejects covers the compile-time errors.
func TestNewStreamCheckerRejects(t *testing.T) {
	binaryNoRoute := StreamCheck{Check: core.Check{
		Name:        "corr",
		Constraint:  core.CorrelationAbove(0),
		SeriesNames: []string{"a", "b"},
		Window:      core.GlobalWindow{},
	}}
	if _, err := NewStreamChecker(binaryNoRoute); err == nil || !strings.Contains(err.Error(), "Route") {
		t.Errorf("binary check without route: err = %v", err)
	}

	sessionBinary := StreamCheck{
		Check: core.Check{
			Name:        "corr",
			Constraint:  core.CorrelationAbove(0),
			SeriesNames: []string{"a", "b"},
			Window:      core.SessionWindow{Gap: 1},
		},
		Route: ByInputKeys("a", "b"),
	}
	if _, err := NewStreamChecker(sessionBinary); err == nil {
		t.Error("binary session check accepted")
	}

	invalid := StreamCheck{Check: core.Check{Name: "x"}}
	if _, err := NewStreamChecker(invalid); err == nil {
		t.Error("invalid check accepted")
	}

	// Parameter validation must surface through the stream entry point
	// exactly as through core.CompilePlan.
	badParams := StreamCheck{
		Check: core.Check{
			Name:        "range",
			Constraint:  core.Range(0, 1),
			SeriesNames: []string{"s"},
			Window:      core.TimeWindow{Size: 10},
		},
		Params: core.Params{CheckInterval: -1},
	}
	if _, err := NewStreamChecker(badParams); err == nil || !strings.Contains(err.Error(), "check interval") {
		t.Errorf("negative check interval: err = %v", err)
	}
	badParams.Params = core.Params{MinSamples: 50, MaxSamples: 10}
	if _, err := NewStreamChecker(badParams); err == nil || !strings.Contains(err.Error(), "burn-in") {
		t.Errorf("burn-in beyond budget: err = %v", err)
	}
}

// TestByKeyedInputs pins the composite-key parsing.
func TestByKeyedInputs(t *testing.T) {
	route := ByKeyedInputs("/", "x", "y")
	if in, key, ok := route(stream.Event{Key: "h1/x"}); !ok || in != 0 || key != "h1" {
		t.Errorf("h1/x -> %d %q %v", in, key, ok)
	}
	if in, key, ok := route(stream.Event{Key: "a/b/y"}); !ok || in != 1 || key != "a/b" {
		t.Errorf("a/b/y -> %d %q %v", in, key, ok)
	}
	if _, _, ok := route(stream.Event{Key: "h1/z"}); ok {
		t.Error("unknown tag routed")
	}
	if _, _, ok := route(stream.Event{Key: "nosep"}); ok {
		t.Error("separator-free key routed")
	}
}

// TestSuiteDuplicateCheckNames: results are keyed by name, so duplicates
// must be rejected instead of silently overwritten.
func TestSuiteDuplicateCheckNames(t *testing.T) {
	s := buildSuite(t)
	ck := s.Checks[0]
	ck.Name = s.Checks[1].Name // collide with an existing check
	s.Checks = append(s.Checks, ck)
	if _, err := s.Run(core.DefaultParams(), 1); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("Run with duplicate names: err = %v", err)
	}
	if _, err := s.RunParallel(core.DefaultParams(), 1, 2); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("RunParallel with duplicate names: err = %v", err)
	}
	if _, err := s.RunNaive(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("RunNaive with duplicate names: err = %v", err)
	}
}

// TestCompareOutcomesLengthMismatch: misaligned slices are an error, not
// a silent truncation.
func TestCompareOutcomesLengthMismatch(t *testing.T) {
	sound := []core.Result{{Outcome: core.Satisfied}, {Outcome: core.Violated}}
	naive := []core.Outcome{core.Satisfied}
	if _, err := CompareOutcomes(sound, naive); err == nil {
		t.Error("CompareOutcomes accepted mismatched lengths")
	}
	if _, err := Confuse(sound, naive); err == nil {
		t.Error("Confuse accepted mismatched lengths")
	}
}

// opaqueWindow hides the concrete window type so ClassifyWindow reports
// KindCustom: batch execution then skips the shared-extraction attach and
// every window is extracted on its own. It is the per-window reference
// the shared-view paths must match bit for bit.
type opaqueWindow struct{ core.Windower }

// TestBatchStreamParitySlidingSharedExtraction pins batch/stream parity
// end to end on overlapping windows with gaps: the stream checker's
// incrementally-maintained shared extraction, views into one whole-series
// extraction, and a fresh extraction per window all prime the same
// kernels, so the batch windower's tuples evaluated at the window seed
// the operator derives give, window by window, the results the stream
// delivers — on *borderline* data, where a skew in what a window draws
// shows up as a flipped verdict. Gaps in the series force empty grid
// windows (which must draw nothing), and a re-run with out-of-order
// arrivals exercises the stream's Extract-rebuild resync path.
func TestBatchStreamParitySlidingSharedExtraction(t *testing.T) {
	const seed = 424242
	params := core.DefaultParams()

	// Borderline workload around the upper Range bound, mixing all three
	// point classes, with two silences long enough to leave whole grid
	// slots empty.
	var s series.Series
	for i := 0; i < 120; i++ {
		if (i >= 30 && i < 50) || (i >= 80 && i < 87) {
			continue
		}
		// Oscillate between clearly-safe troughs and borderline peaks;
		// occasional certain spikes force clear violations.
		p := series.Point{T: float64(i), V: 85 + 12*math.Sin(float64(i)/5)}
		switch i % 3 {
		case 1:
			p.SigUp, p.SigDown = 2, 2 // symmetric
		case 2:
			p.SigUp, p.SigDown = 3, 1 // asymmetric
		}
		if i == 20 || i == 55 || i == 110 {
			p = series.Point{T: float64(i), V: 150}
		}
		s = append(s, p)
	}
	ss := []series.Series{s}
	inOrder := make([]stream.Event, len(s))
	for i, p := range s {
		inOrder[i] = stream.Event{Time: p.T, Key: "k", Value: p.V, SigUp: p.SigUp, SigDown: p.SigDown}
	}
	// Shuffled delivery: swap a few adjacent pairs well above the fired
	// horizon so windows see out-of-order arrivals and the stream falls
	// back to a full extraction rebuild.
	shuffled := append([]stream.Event(nil), inOrder...)
	for _, i := range []int{10, 25, 60, 90} {
		shuffled[i], shuffled[i+1] = shuffled[i+1], shuffled[i]
	}

	for _, win := range []core.Windower{
		core.TimeWindow{Size: 12, Slide: 5},
		core.CountWindow{Size: 8, Slide: 3},
	} {
		ck := core.Check{
			Name:        "range",
			Constraint:  core.Range(0, 100),
			SeriesNames: []string{"s"},
			Window:      win,
		}
		pl, err := core.CompilePlan(ck, params, seed)
		if err != nil {
			t.Fatal(err)
		}
		g, err := core.NewPlanGroup([]*core.CheckPlan{pl})
		if err != nil {
			t.Fatal(err)
		}
		_, isTime := win.(core.TimeWindow)

		// Batch reference: the windower's tuples, each at the seed of its
		// (key, window coordinate) — grid-start bits for time windows, the
		// absolute start index for count windows — evaluated once through
		// views into one whole-series extraction and once with a fresh
		// extraction per window.
		var whole resample.Extraction
		whole.Extract(s)
		tuples := win.Windows(ss)
		want := make([]core.Outcome, len(tuples))
		var tally StreamOutcomes
		shared, perWindow := make([]core.Result, 1), make([]core.Result, 1)
		for i, tu := range tuples {
			lo, bits := s.At(tu.Start), math.Float64bits(tu.Start)
			if !isTime {
				lo = i * 3 // CountWindow.Slide
				bits = uint64(lo)
			}
			winSeed := g.WindowSeed(stream.KeyHash("k"), bits)
			g.Evaluate(winSeed, tu, perWindow)
			tu.Ext = []resample.View{whole.Slice(lo, lo+len(tu.Windows[0]))}
			g.Evaluate(winSeed, tu, shared)
			a, b := shared[0], perWindow[0]
			if a.Outcome != b.Outcome || a.Samples != b.Samples ||
				a.SatisfiedCount != b.SatisfiedCount || a.ViolationProb != b.ViolationProb {
				t.Fatalf("%T window %d: shared extraction %+v != per-window extraction %+v",
					win, i, a, b)
			}
			want[i] = a.Outcome
			tally.Add(a.Outcome)
		}
		counts := tally.Counts()
		if isTime && counts.Inconclusive == 0 {
			t.Fatalf("%T: gaps produced no empty windows, test is vacuous", win)
		}
		if counts.Satisfied == 0 || counts.Violated == 0 {
			t.Fatalf("%T: workload not borderline (counts %+v), test is vacuous", win, counts)
		}

		// Stream: drive a single checker instance directly, in-order and —
		// for time windows — with out-of-order arrivals. (Count windows
		// buffer in arrival order by design, so only in-order delivery
		// matches the time-sorted batch series.)
		deliveries := map[string][]stream.Event{"in-order": inOrder}
		if isTime {
			deliveries["shuffled"] = shuffled
		}
		for name, events := range deliveries {
			var got []core.Outcome
			factory, err := NewStreamChecker(StreamCheck{Check: ck, Params: params, Seed: seed,
				OnOutcome: func(_ string, o core.Outcome) { got = append(got, o) }})
			if err != nil {
				t.Fatal(err)
			}
			proc := factory()
			for _, ev := range events {
				proc.Process(ev, func(stream.Event) {})
			}
			proc.Flush(func(stream.Event) {})
			if !slices.Equal(got, want) {
				t.Errorf("%T %s: stream outcomes %v != batch outcomes %v", win, name, got, want)
			}
		}
	}
}

// TestStreamKernelPinnedFixture pins the SOUND-mode (non-naive) stream
// outcomes for the three statistic-heavy templates the compiled kernels
// accelerate — Pearson correlation, R², and the two-sample KS distance —
// on a deterministic uncertain binary stream. The counts are literals on
// purpose: the kernel path must keep the evaluated trajectory
// bit-identical to the closure path, so any drift here is a broken
// RNG-consumption or decision-schedule invariant, not a tuning choice.
func TestStreamKernelPinnedFixture(t *testing.T) {
	var events []stream.Event
	for i := 0; i < 64; i++ {
		x := float64(i%16) + math.Sin(float64(i)/3)
		y := 0.8*x + 1.5*math.Sin(float64(i)/2)
		events = append(events,
			stream.Event{Time: float64(i), Key: "x", Value: x, SigUp: 0.5, SigDown: 0.5},
			stream.Event{Time: float64(i), Key: "y", Value: y, SigUp: 0.7, SigDown: 0.7},
		)
	}
	cases := []struct {
		name string
		c    core.Constraint
		want OutcomeCounts
	}{
		{"corr", core.CorrelationAbove(0.5), OutcomeCounts{Satisfied: 4}},
		{"r2", core.RSquaredAbove(0), OutcomeCounts{Satisfied: 4}},
		{"ks", core.KSDistanceBelow(0.35), OutcomeCounts{Satisfied: 2, Violated: 1, Inconclusive: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ck := core.Check{
				Name:        tc.name,
				Constraint:  tc.c,
				SeriesNames: []string{"x", "y"},
				Window:      core.TimeWindow{Size: 16},
			}
			got := runCheckGraph(t, StreamCheck{
				Check: ck,
				Seed:  12345,
				Route: ByInputKeys("x", "y"),
			}, events, false, 1)
			if got != tc.want {
				t.Errorf("counts = %+v, want %+v", got, tc.want)
			}
		})
	}
}
