package checker

import (
	"math"
	"slices"
	"strings"
	"testing"

	"sound/internal/checkpoint"
	"sound/internal/core"
	"sound/internal/resample"
	"sound/internal/series"
	"sound/internal/stream"
)

// loneMux registers cfg alone on a fresh Mux (named after its check
// when cfg has no name) and returns the Mux.
func loneMux(t testing.TB, forward bool, evict EvictionPolicy, cfg MuxCheck) *Mux {
	t.Helper()
	if cfg.Name == "" {
		cfg.Name = cfg.Check.Name
	}
	x := NewMux(forward, evict)
	if err := x.Register(cfg); err != nil {
		t.Fatal(err)
	}
	return x
}

// muxFactory is the operator factory of a Mux hosting cfg alone.
func muxFactory(t testing.TB, forward bool, cfg MuxCheck) func() stream.Processor {
	t.Helper()
	return loneMux(t, forward, EvictionPolicy{}, cfg).Factory()
}

// loneOp returns one operator of a Mux hosting cfg alone under the
// eviction policy, with the window engine of its single bucket for
// white-box assertions.
func loneOp(t testing.TB, evict EvictionPolicy, cfg MuxCheck) (*muxOp, *streamChecker) {
	t.Helper()
	o := loneMux(t, false, evict, cfg).Factory()().(*muxOp)
	return o, o.instances[0].op
}

// runCheckGraph pushes the events through a Mux operator hosting the
// configured check inside a real graph and returns the observed outcome
// counts.
func runCheckGraph(t *testing.T, cfg MuxCheck, events []stream.Event, keyed bool, workers int) OutcomeCounts {
	t.Helper()
	out := cfg.Out
	if out == nil {
		out = &StreamOutcomes{}
		cfg.Out = out
	}
	factory := muxFactory(t, false, cfg)
	var err error
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
	counts := runCheckGraph(t, MuxCheck{Check: ck, Naive: true}, events, true, 1)

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
	counts := runCheckGraph(t, MuxCheck{Check: ck, Naive: true}, events, true, 1)
	if counts.Total() != 6 || counts.Satisfied != 6 {
		t.Errorf("counts = %+v, want 6 satisfied windows despite shuffled arrival", counts)
	}
}

// TestBatchStreamParityTumbling: on a dense tumbling-window workload of
// clear-cut data, the SOUND-mode stream operator and the batch plan give
// the same outcome counts — the random streams differ between the
// paths, but every window decides the same way regardless of seed.
// FuzzWindowReplay pins the windows themselves (its first seed is this
// workload's naive form).
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
	pl, err := core.CompilePlan(ck, core.DefaultParams(), 77)
	if err != nil {
		t.Fatal(err)
	}
	batchSound, err := pl.Run([]series.Series{s})
	if err != nil {
		t.Fatal(err)
	}
	var want StreamOutcomes
	for _, r := range batchSound {
		want.Add(r.Outcome)
	}
	streamSound := runCheckGraph(t, MuxCheck{Check: ck, Seed: 77, Params: core.DefaultParams()}, events, true, 1)
	if streamSound != want.Counts() {
		t.Errorf("sound: stream counts %+v != batch counts %+v", streamSound, want.Counts())
	}
	if want.Counts().Violated != 4 {
		t.Errorf("batch violated = %d, want 4", want.Counts().Violated)
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
	counts := runCheckGraph(t, MuxCheck{Check: ck, Naive: true, Out: out}, events, true, 1)
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
	counts := runCheckGraph(t, MuxCheck{Check: ck, Naive: true}, events, true, 1)
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
	counts := runCheckGraph(t, MuxCheck{Check: global, Naive: true}, events, true, 1)
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
	counts = runCheckGraph(t, MuxCheck{Check: session, Naive: true}, sess, true, 1)
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
	counts := runCheckGraph(t, MuxCheck{Check: ck, Naive: true}, events, true, 1)
	// Windows start at indices 0, 2, 4, 6 — index 8 has only 2 points
	// left and is dropped, matching the batch CountWindow.
	if counts.Total() != 4 || counts.Satisfied != 4 {
		t.Errorf("counts = %+v, want 4 satisfied windows", counts)
	}
}

// TestMuxRegisterRejects covers the compile-time errors: each leaves
// the registry empty.
func TestMuxRegisterRejects(t *testing.T) {
	register := func(cfg MuxCheck) error {
		x := NewMux(false, EvictionPolicy{})
		cfg.Name = "c"
		err := x.Register(cfg)
		if err != nil && x.Len() != 0 {
			t.Errorf("failed registration left %d checks", x.Len())
		}
		return err
	}
	if err := (NewMux(false, EvictionPolicy{})).Register(MuxCheck{Check: muxTestChecks()[0]}); err == nil {
		t.Error("unnamed check accepted")
	}
	binaryNoRoute := MuxCheck{Check: core.Check{
		Name:        "corr",
		Constraint:  core.CorrelationAbove(0),
		SeriesNames: []string{"a", "b"},
		Window:      core.GlobalWindow{},
	}}
	if err := register(binaryNoRoute); err == nil || !strings.Contains(err.Error(), "Route") {
		t.Errorf("binary check without route: err = %v", err)
	}

	sessionBinary := MuxCheck{
		Check: core.Check{
			Name:        "corr",
			Constraint:  core.CorrelationAbove(0),
			SeriesNames: []string{"a", "b"},
			Window:      core.SessionWindow{Gap: 1},
		},
		Route: ByInputKeys("a", "b"),
	}
	if err := register(sessionBinary); err == nil {
		t.Error("binary session check accepted")
	}

	if err := register(MuxCheck{Check: core.Check{Name: "x"}}); err == nil {
		t.Error("invalid check accepted")
	}

	// Parameter validation must surface through registration exactly as
	// through core.CompilePlan.
	badParams := MuxCheck{
		Check: core.Check{
			Name:        "range",
			Constraint:  core.Range(0, 1),
			SeriesNames: []string{"s"},
			Window:      core.TimeWindow{Size: 10},
		},
		Params: core.Params{CheckInterval: -1},
	}
	if err := register(badParams); err == nil || !strings.Contains(err.Error(), "check interval") {
		t.Errorf("negative check interval: err = %v", err)
	}
	badParams.Params = core.Params{MinSamples: 50, MaxSamples: 10}
	if err := register(badParams); err == nil || !strings.Contains(err.Error(), "burn-in") {
		t.Errorf("burn-in beyond budget: err = %v", err)
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

// TestBatchStreamParitySlidingSharedExtraction pins batch/stream parity
// end to end on overlapping windows with gaps: the stream operator's
// per-fire extraction, a caller's own extraction of the window, and the
// evaluator's extraction of a bare tuple all prime the same kernels, so
// the batch windower's tuples evaluated at the window seed the operator
// derives give, window by window, the results the stream delivers — on
// *borderline* data, where a skew in what a window draws shows up as a
// flipped verdict. Gaps in the series force empty grid windows (which
// must draw nothing), and a re-run with out-of-order arrivals exercises
// the stream's fire-time reorder.
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
	// horizon so windows see out-of-order arrivals and the stream sorts
	// its buffer before it slices the window.
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
		// a view of the window's own extraction and once as a bare tuple
		// the evaluator extracts itself.
		var own resample.Extraction
		tuples := win.Windows(ss)
		want := make([]core.Outcome, len(tuples))
		var tally StreamOutcomes
		viewed, bare := make([]core.Result, 1), make([]core.Result, 1)
		for i, tu := range tuples {
			bits := math.Float64bits(tu.Start)
			if !isTime {
				bits = uint64(i * 3) // CountWindow.Slide
			}
			winSeed := g.WindowSeed(stream.KeyHash("k"), bits)
			g.Evaluate(winSeed, tu, bare)
			own.Extract(tu.Windows[0])
			tu.Ext = []resample.View{own.View()}
			g.Evaluate(winSeed, tu, viewed)
			a, b := viewed[0], bare[0]
			if a.Outcome != b.Outcome || a.Samples != b.Samples ||
				a.SatisfiedCount != b.SatisfiedCount || a.ViolationProb != b.ViolationProb {
				t.Fatalf("%T window %d: own extraction %+v != evaluator's extraction %+v",
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
			proc, _ := loneOp(t, EvictionPolicy{}, MuxCheck{Check: ck, Params: params, Seed: seed,
				OnOutcome: func(_ string, o core.Outcome) { got = append(got, o) }})
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
			got := runCheckGraph(t, MuxCheck{
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

// TestWindowFireAllocatesNothing pins the operator's steady state at zero
// allocations: once warm, 64-event frames that fire windows of every
// stateful shape — a tumbling and a sliding time window, a count window,
// and a binary point-wise check routed ByInputKeys — allocate nothing,
// for SOUND and naive members alike. Fired windows compact their buffers
// in place and evaluate reads them through the operator's tuple scratch
// (DESIGN.md §4d), and warm PlanGroup.Evaluate allocates nothing either.
// Every frame fires at least one window of each bucket; the measured
// block is many frames long and must allocate nothing at all.
func TestWindowFireAllocatesNothing(t *testing.T) {
	lessEq := core.Constraint{
		Name:        "x<=y",
		Granularity: core.PointWise,
		Orderedness: core.Set,
		Arity:       2,
		Fn:          func(vals [][]float64) bool { return vals[0][0] <= vals[1][0] },
	}
	cases := []struct {
		name   string
		win    core.Windower
		binary bool
	}{
		{"time:512", core.TimeWindow{Size: 512}, false},
		{"time:1080:180", core.TimeWindow{Size: 1080, Slide: 180}, false},
		{"count:64", core.CountWindow{Size: 64}, false},
		{"point/binary", core.PointWindow{}, true},
	}
	const frameSize, warm, block = 64, 64, 32
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := NewMux(false, EvictionPolicy{})
			out := &StreamOutcomes{}
			register := func(name string, c core.Constraint, naive bool) {
				t.Helper()
				ck := core.Check{Name: name, Constraint: c, SeriesNames: []string{"x"}, Window: tc.win}
				mc := MuxCheck{Name: name, Check: ck, Params: core.Params{MaxSamples: 100}, Seed: 7,
					Naive: naive, RouteID: "r", Out: out}
				if tc.binary {
					ck.SeriesNames = []string{"x", "y"}
					mc.Check, mc.Route = ck, ByInputKeys("x", "y")
				}
				if err := x.Register(mc); err != nil {
					t.Fatal(err)
				}
			}
			if tc.binary {
				register("le", lessEq, false)
				register("le-naive", lessEq, true)
			} else {
				register("range", core.Range(0, 100), false)
				register("fraction", core.FractionInRange(0, 100, 0.5), false)
				register("range-naive", core.Range(0, 100), true)
			}
			op := x.Factory()().(stream.FrameProcessor)
			// Unary shapes: one key per event, cycling over four, 32 time
			// units apart per key, so each frame moves every key 512 time
			// units or 16 points on. The count window holds one key, so
			// each frame closes one of its windows.
			keys := [4]string{"k0", "k1", "k2", "k3"}
			frames := make([][]stream.Event, warm+2*block)
			for f := range frames {
				fr := make([]stream.Event, frameSize)
				for e := range fr {
					i := f*frameSize + e
					ev := stream.Event{Key: keys[i%4], Time: float64(i/4) * 32,
						Value: 98 + float64(i%5), SigUp: 2, SigDown: 1}
					switch {
					case tc.binary:
						ev.Key, ev.Time = [2]string{"x", "y"}[i%2], float64(i/2)
					case tc.name == "count:64":
						ev.Key, ev.Time = "k0", float64(i)
					}
					fr[e] = ev
				}
				frames[f] = fr
			}
			next := 0
			feed := func(n int) {
				for ; n > 0; n-- {
					op.ProcessFrame(frames[next], discardEmit)
					next++
				}
			}
			feed(warm)
			before := out.Counts().Total()
			if allocs := testing.AllocsPerRun(1, func() { feed(block) }); allocs != 0 {
				t.Errorf("warm operator allocated %v times over %d frames, want 0", allocs, block)
			}
			// Three members per unary bucket, two per binary one, and at
			// least one fire per frame in each.
			if fired := out.Counts().Total() - before; fired < 2*2*block {
				t.Fatalf("%d verdicts over %d frames: not every frame fires", fired, 2*block)
			}
		})
	}
}

// TestUnsafePointStaysInItsWindows: a NaN event makes the windows that
// hold it unprovably finite, and no other. One key's borderline range
// check runs on 2 000 events with and without a NaN value at t = 5:
// every window without the NaN gets the NaN-free run's verdict, the
// closed form decides every window the NaN-free run collapses except
// the ones holding the NaN, and a snapshot taken right after the NaN and
// restored into a fresh operator delivers the same verdicts.
func TestUnsafePointStaysInItsWindows(t *testing.T) {
	const n, nanAt = 2000, 5
	events := func(nan bool) []stream.Event {
		evs := make([]stream.Event, n)
		for i := range evs {
			evs[i] = stream.Event{Time: float64(i), Key: "k", Value: 99.56, SigUp: 0.8, SigDown: 0.8}
		}
		if nan {
			evs[nanAt].Value = math.NaN()
		}
		return evs
	}
	// run replays evs through a fresh operator and returns its verdicts in
	// firing order and the bucket's collapsed count. With snapAt ≥ 0 the
	// operator is snapshotted after event snapAt and replaced by a fresh
	// one restored from the snapshot (the collapsed count then misses the
	// replaced operator's unpublished tally).
	run := func(t *testing.T, win core.Windower, evs []stream.Event, snapAt int) ([]core.Outcome, int64) {
		t.Helper()
		var trace []core.Outcome
		x := loneMux(t, false, EvictionPolicy{}, MuxCheck{
			Check:     core.Check{Name: "range", Constraint: core.Range(0, 100), SeriesNames: []string{"s"}, Window: win},
			Params:    core.DefaultParams(),
			Seed:      11,
			OnOutcome: func(_ string, o core.Outcome) { trace = append(trace, o) },
		})
		op := x.Factory()()
		for i, ev := range evs {
			op.Process(ev, discardEmit)
			if i != snapAt {
				continue
			}
			enc := checkpoint.NewRawEncoder()
			if err := EncodeOperator(op, enc); err != nil {
				t.Fatal(err)
			}
			op = x.Factory()()
			if err := DecodeOperator(op, checkpoint.NewRawDecoder(enc.Finish())); err != nil {
				t.Fatal(err)
			}
		}
		op.Flush(discardEmit)
		return trace, x.GroupStats()[0].Collapsed
	}
	// holds reports whether window k of a grid of the given size and slide
	// (time units or points: event i sits at t = i) holds the NaN.
	holds := func(size, slide int) func(k int) bool {
		return func(k int) bool { return k*slide <= nanAt && nanAt < k*slide+size }
	}
	for _, tc := range []struct {
		name  string
		win   core.Windower
		holds func(k int) bool
	}{
		{"time:2", core.TimeWindow{Size: 2}, holds(2, 2)},
		{"time:10", core.TimeWindow{Size: 10}, holds(10, 10)},
		{"time:20:5", core.TimeWindow{Size: 20, Slide: 5}, holds(20, 5)},
		{"count:2:1", core.CountWindow{Size: 2, Slide: 1}, holds(2, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clean, cleanCollapsed := run(t, tc.win, events(false), -1)
			dirty, dirtyCollapsed := run(t, tc.win, events(true), -1)
			if len(dirty) != len(clean) {
				t.Fatalf("%d verdicts with the NaN, %d without", len(dirty), len(clean))
			}
			held := 0
			for k := range clean {
				if tc.holds(k) {
					held++
				} else if dirty[k] != clean[k] {
					t.Errorf("window %d holds no NaN but its verdict moved: %v, NaN-free %v", k, dirty[k], clean[k])
				}
			}
			if cleanCollapsed == 0 {
				t.Fatal("the NaN-free run collapsed no window, the test is vacuous")
			}
			if want := cleanCollapsed - int64(held); dirtyCollapsed != want {
				t.Errorf("collapsed %d windows with the NaN, want %d (%d without, %d hold the NaN)",
					dirtyCollapsed, want, cleanCollapsed, held)
			}
			if restored, _ := run(t, tc.win, events(true), nanAt); !slices.Equal(restored, dirty) {
				t.Error("the run restored from a snapshot taken after the NaN delivered other verdicts")
			}
		})
	}
}
