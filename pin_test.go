package sound_test

// Bit-parity pin for the resampling/evaluation stack. The golden strings
// below were captured from the pre-kernel implementation (PR 3); every
// later change to the Draw hot path — SoA extraction, per-class kernels,
// shared stream extractions, batched RNG draws — must reproduce them
// verbatim. Float64s are formatted with %v, whose shortest-roundtrip
// representation identifies the bit pattern uniquely, so a single
// character of drift here is a broken RNG-consumption invariant.

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"sound"
	"sound/internal/astro"
	"sound/internal/checker"
	"sound/internal/checkpoint"
	"sound/internal/core"
	"sound/internal/smartgrid"
	"sound/internal/stream"
	"sound/internal/violation"
)

// pinSeries builds a deterministic series mixing certain, symmetric, and
// asymmetric points with a couple of time gaps, so every kernel class and
// the gap-window paths are all exercised.
func pinSeries(n int, off float64) sound.Series {
	s := make(sound.Series, 0, n)
	t := 0.0
	for i := 0; i < n; i++ {
		p := sound.Point{T: t, V: off + float64(i%17) - 3}
		switch i % 4 {
		case 1:
			p.SigUp, p.SigDown = 1.5, 1.5 // symmetric
		case 2:
			p.SigUp, p.SigDown = 0.5, 2.5 // asymmetric
		case 3:
			p.SigUp, p.SigDown = 2, 0 // asymmetric, one-sided
		}
		s = append(s, p)
		t++
		if i%11 == 10 {
			t += 25 // sparsity gap spanning whole windows
		}
	}
	return s
}

func formatResults(sb *strings.Builder, tag string, rs []sound.Result) {
	for i, r := range rs {
		fmt.Fprintf(sb, "%s[%d] o=%v n=%d s=%d p=%v ci=[%v,%v]\n",
			tag, i, r.Outcome, r.Samples, r.SatisfiedCount, r.ViolationProb, r.Lower, r.Upper)
	}
}

// pinBatch runs the batch scenarios: every resampling strategy, unary and
// binary checks, sequential and parallel execution.
func pinBatch(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	x := pinSeries(40, 10)
	y := pinSeries(40, 12)

	run := func(tag string, ck sound.Check, ss []sound.Series) {
		eval, err := sound.NewEvaluator(sound.DefaultParams(), 42)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := ck.Run(eval, ss)
		if err != nil {
			t.Fatal(err)
		}
		formatResults(&sb, tag, rs)
	}

	// Point strategy, point windows (mixed classes, one point per window).
	run("point", sound.Check{
		Name: "range", Constraint: sound.Range(0, 13),
		SeriesNames: []string{"x"}, Window: sound.PointWindow{},
	}, []sound.Series{x})

	// Set strategy, time windows with gaps: binary check whose windows
	// have unequal lengths (the independent-index path) and empty slots.
	frac := sound.CountAtLeast()
	run("set", sound.Check{
		Name: "count", Constraint: frac,
		SeriesNames: []string{"x", "y"}, Window: sound.TimeWindow{Size: 8},
	}, []sound.Series{x, y[:31]})

	// Sequence strategy: block bootstrap, binary aligned windows.
	run("seq", sound.Check{
		Name: "corr", Constraint: sound.CorrelationAbove(0.6),
		SeriesNames: []string{"x", "y"}, Window: sound.GlobalWindow{},
	}, []sound.Series{x, y})

	// Sequence strategy, unary sliding count windows.
	mono := sound.MonotonicIncrease(false)
	run("mono", sound.Check{
		Name: "mono", Constraint: mono,
		SeriesNames: []string{"x"}, Window: sound.CountWindow{Size: 12, Slide: 5},
	}, []sound.Series{x})

	// Parallel path: identical for 1 and 3 workers by construction, so pin
	// a single worker count.
	for _, workers := range []int{3} {
		pl, err := sound.CompilePlan(sound.Check{
			Name: "gt", Constraint: sound.GreaterThan(5),
			SeriesNames: []string{"x"}, Window: sound.TimeWindow{Size: 10, Slide: 4},
		}, sound.DefaultParams(), 7)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := pl.RunParallel(context.Background(), []sound.Series{x}, workers)
		if err != nil {
			t.Fatal(err)
		}
		formatResults(&sb, fmt.Sprintf("par%d", workers), rs)
	}
	return sb.String()
}

// pinStreamMux registers the pinned stream check — FractionInRange(0,
// 13, 0.8) over win at seed 13 — alone on a Mux.
func pinStreamMux(t *testing.T, forward bool, out *sound.StreamOutcomes, win sound.Windower) *sound.Mux {
	t.Helper()
	x := sound.NewMux(forward, sound.EvictionPolicy{})
	if err := x.Register(sound.MuxCheck{
		Name: "range",
		Check: sound.Check{
			Name: "range", Constraint: sound.FractionInRange(0, 13, 0.8),
			SeriesNames: []string{"x"}, Window: win,
		},
		Params: sound.DefaultParams(),
		Seed:   13,
		Out:    out,
	}); err != nil {
		t.Fatal(err)
	}
	return x
}

// pinStream runs the streaming scenarios: sliding time windows over gaps
// and hopping count windows, with per-event outcomes accumulated.
func pinStream(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	x := pinSeries(40, 10)
	for _, tc := range []struct {
		tag string
		win sound.Windower
	}{
		{"sliding", sound.TimeWindow{Size: 12, Slide: 5}},
		{"tumbling", sound.TimeWindow{Size: 9}},
		{"count", sound.CountWindow{Size: 8, Slide: 3}},
	} {
		out := &sound.StreamOutcomes{}
		p := pinStreamMux(t, false, out, tc.win).Factory()()
		emit := func(stream.Event) {}
		for _, pt := range x {
			p.Process(stream.Event{Time: pt.T, Key: "k", Value: pt.V, SigUp: pt.SigUp, SigDown: pt.SigDown}, emit)
		}
		p.Flush(emit)
		c := out.Counts()
		fmt.Fprintf(&sb, "stream/%s sat=%d viol=%d inc=%d\n", tc.tag, c.Satisfied, c.Violated, c.Inconclusive)
	}
	return sb.String()
}

// loadPinFixture reads the gapped borderline series from the committed
// CSV fixture and cross-checks it against the in-code generator, so the
// fixture and pinSeries cannot drift apart silently.
func loadPinFixture(t *testing.T) sound.Series {
	t.Helper()
	f, err := os.Open("testdata/gapped_borderline.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := sound.ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	want := pinSeries(40, 10)
	if len(s) != len(want) {
		t.Fatalf("fixture has %d points, pinSeries has %d", len(s), len(want))
	}
	for i := range s {
		if s[i] != want[i] {
			t.Fatalf("fixture point %d = %+v, pinSeries = %+v", i, s[i], want[i])
		}
	}
	return s
}

// TestPinnedStreamBatchedGraphParity replays the gapped borderline CSV
// fixture through the keyed stream checker inside a real graph at every
// (transport batch size, worker count) combination and requires the
// byte-identical outcome hashes pinned in pinnedStream — the same golden
// strings the direct single-processor replay (TestPinnedStreamResults)
// must match. Batch size 1 is the degenerate one-event-per-frame
// transport, so this pins batched ≡ unbatched ≡ pre-batching bit for
// bit. Worker counts > 1 stay deterministic because the single route
// group lands on one worker and evaluator seed slots are claimed at
// first evaluation, not at worker startup.
func TestPinnedStreamBatchedGraphParity(t *testing.T) {
	x := loadPinFixture(t)
	for _, batch := range []int{1, 7, 64} {
		for _, workers := range []int{1, 4} {
			var sb strings.Builder
			for _, tc := range []struct {
				tag string
				win sound.Windower
			}{
				{"sliding", sound.TimeWindow{Size: 12, Slide: 5}},
				{"tumbling", sound.TimeWindow{Size: 9}},
				{"count", sound.CountWindow{Size: 8, Slide: 3}},
			} {
				out := &sound.StreamOutcomes{}
				factory := pinStreamMux(t, true, out, tc.win).Factory()
				g := stream.NewGraph()
				g.SetBatchSize(batch)
				src := g.AddSource("csv", func(emit stream.EmitFunc) {
					for _, pt := range x {
						emit(stream.Event{Time: pt.T, Key: "k", Value: pt.V, SigUp: pt.SigUp, SigDown: pt.SigDown})
					}
				})
				chk := g.AddOperator("check", workers, factory)
				if err := g.ConnectKeyed(src, chk); err != nil {
					t.Fatal(err)
				}
				if err := g.Connect(chk, g.AddSink("sink", nil)); err != nil {
					t.Fatal(err)
				}
				m, err := g.Run()
				if err != nil {
					t.Fatal(err)
				}
				if got := m.Count("sink"); got != int64(len(x)) {
					t.Fatalf("batch=%d workers=%d %s: sink saw %d events, want %d", batch, workers, tc.tag, got, len(x))
				}
				c := out.Counts()
				fmt.Fprintf(&sb, "stream/%s sat=%d viol=%d inc=%d\n", tc.tag, c.Satisfied, c.Violated, c.Inconclusive)
			}
			diffLines(t, fmt.Sprintf("stream batch=%d workers=%d", batch, workers), sb.String(), pinnedStream)
		}
	}
}

// TestPinnedStreamApps pins the SOUND-mode verdict counts of the astro and
// smartgrid stream apps behind Figs. 4–6 (A-1..A-4; smartgrid attaches
// S-1, S-4 and S-5) at 20 000 events, seed 1, c = 0.95, N = 100. At
// parallelism 1 every node has one worker and every edge one producer, so
// each check receives its events in one order and its counts are a
// function of the graph alone, whatever the executor's scheduling.
func TestPinnedStreamApps(t *testing.T) {
	const events, seed = 20_000, 1
	params := core.Params{Credibility: 0.95, MaxSamples: 100}
	var sb strings.Builder
	record := func(outs map[string]*checker.StreamOutcomes) {
		names := make([]string, 0, len(outs))
		for name := range outs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			c := outs[name].Counts()
			fmt.Fprintf(&sb, "%s sat=%d viol=%d inc=%d\n", name, c.Satisfied, c.Violated, c.Inconclusive)
		}
	}
	a := astro.BuildStream(astro.DefaultConfig(), astro.Sound, params, 1, events, seed)
	if _, err := a.Run(); err != nil {
		t.Fatal(err)
	}
	record(a.Outcomes)
	s := smartgrid.BuildStream(smartgrid.DefaultConfig(), smartgrid.Sound, params, 1, events, seed)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	record(s.Outcomes)
	diffLines(t, "stream apps", sb.String(), pinnedStreamApps)
}

// TestPinnedCheckpointRestoreParity is the acceptance pin for the
// deterministic state lifecycle (DESIGN.md §4i): a loop hands the
// operator the fixture in frames, snapshots the operator and its
// counters between two frames mid-stream, and abandons that run where it
// stands; a fresh operator restored from the snapshot is handed only the
// remaining events. The combined outcome counts must reproduce the
// uninterrupted pinnedStream goldens byte for byte at frame sizes {1, 64}
// — window grids and shared extraction state both have to survive the
// kill/resume for these literals to hold.
func TestPinnedCheckpointRestoreParity(t *testing.T) {
	x := loadPinFixture(t)
	mid := len(x)/2 + 3 // mid-window for every spec, off the frame grid
	specs := []struct {
		tag string
		win sound.Windower
	}{
		{"sliding", sound.TimeWindow{Size: 12, Slide: 5}},
		{"tumbling", sound.TimeWindow{Size: 9}},
		{"count", sound.CountWindow{Size: 8, Slide: 3}},
	}
	newOp := func(out *sound.StreamOutcomes, win sound.Windower) stream.Processor {
		return pinStreamMux(t, false, out, win).Factory()()
	}
	emit := func(stream.Event) {}
	feed := func(p stream.Processor, pts []sound.Point, frame int) {
		fp := p.(stream.FrameProcessor)
		evs := make([]stream.Event, 0, frame)
		for len(pts) > 0 {
			n := min(frame, len(pts))
			evs = evs[:0]
			for _, pt := range pts[:n] {
				evs = append(evs, stream.Event{Time: pt.T, Key: "k", Value: pt.V, SigUp: pt.SigUp, SigDown: pt.SigDown})
			}
			fp.ProcessFrame(evs, emit)
			pts = pts[n:]
		}
	}
	for _, frame := range []int{1, 64} {
		var sb strings.Builder
		for _, tc := range specs {
			// Interrupted run: hand over the prefix, snapshot, stop. The
			// abandoned operator is never flushed.
			out := &sound.StreamOutcomes{}
			op := newOp(out, tc.win)
			feed(op, x[:mid], frame)
			enc := checkpoint.NewEncoder()
			out.EncodeTo(enc)
			if err := sound.EncodeOperator(op, enc); err != nil {
				t.Fatal(err)
			}
			snap := enc.Finish()

			// Resumed run: fresh counters and a fresh operator load the
			// snapshot, then take the tail on top.
			dec, err := checkpoint.NewDecoder(snap)
			if err != nil {
				t.Fatal(err)
			}
			out2 := &sound.StreamOutcomes{}
			op2 := newOp(out2, tc.win)
			if err := out2.DecodeFrom(dec); err != nil {
				t.Fatal(err)
			}
			if err := sound.DecodeOperator(op2, dec); err != nil {
				t.Fatal(err)
			}
			feed(op2, x[mid:], frame)
			op2.Flush(emit)
			c := out2.Counts()
			fmt.Fprintf(&sb, "stream/%s sat=%d viol=%d inc=%d\n", tc.tag, c.Satisfied, c.Violated, c.Inconclusive)
		}
		diffLines(t, fmt.Sprintf("restore frame=%d", frame), sb.String(), pinnedStream)
	}
}

// pinViolation runs the violation-analysis scenario: change points with
// E2/E4 counterfactual re-evaluations, sequential and parallel.
func pinViolation(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	var s sound.Series
	for i := 0; i < 200; i++ {
		if (i/20)%2 == 1 {
			if i%3 != 0 {
				continue
			}
			s = append(s, sound.Point{T: float64(i), V: 7, SigUp: 3, SigDown: 3})
		} else {
			s = append(s, sound.Point{T: float64(i), V: 30, SigUp: 2, SigDown: 2})
		}
	}
	c := sound.GreaterThan(10)
	c.Granularity = sound.WindowTime
	ck := sound.Check{Name: "gt10", Constraint: c, SeriesNames: []string{"s"}, Window: sound.TimeWindow{Size: 20}}
	eval, err := sound.NewEvaluator(sound.DefaultParams(), 5)
	if err != nil {
		t.Fatal(err)
	}
	results, err := ck.Run(eval, []sound.Series{s})
	if err != nil {
		t.Fatal(err)
	}
	a := violation.MustAnalyzer(sound.DefaultParams(), 9)
	sum := violation.Summarize(ck, results, a, nil, 0.95)
	for i, rep := range sum.Reports {
		fmt.Fprintf(&sb, "cp[%d] idx=%d expl=%v\n", i, rep.ChangePoint.Index, rep.Explanations)
	}
	par, err := violation.SummarizeParallel(context.Background(), ck, results, violation.MustAnalyzer(sound.DefaultParams(), 9), nil, 0.95, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range par.Reports {
		fmt.Fprintf(&sb, "pcp[%d] idx=%d expl=%v\n", i, rep.ChangePoint.Index, rep.Explanations)
	}
	return sb.String()
}

func diffLines(t *testing.T, tag, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Errorf("%s line %d:\n  got  %q\n  want %q", tag, i, gl, wl)
			return
		}
	}
}

func TestPinnedBatchResults(t *testing.T) {
	diffLines(t, "batch", pinBatch(t), pinnedBatch)
}

func TestPinnedStreamResults(t *testing.T) {
	diffLines(t, "stream", pinStream(t), pinnedStream)
}

func TestPinnedViolationResults(t *testing.T) {
	diffLines(t, "violation", pinViolation(t), pinnedViolation)
}

// TestPinPrint regenerates the golden strings (go test -run TestPinPrint -v).
func TestPinPrint(t *testing.T) {
	if os.Getenv("PIN_WRITE") != "" {
		for name, body := range map[string]string{
			"batch": pinBatch(t), "stream": pinStream(t), "violation": pinViolation(t),
		} {
			if err := os.WriteFile("/tmp/pin_"+name+".txt", []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	t.Logf("batch:\n%s", pinBatch(t))
	t.Logf("stream:\n%s", pinStream(t))
	t.Logf("violation:\n%s", pinViolation(t))
}

// Golden strings captured from the pre-kernel implementation (see file
// header); regenerate with TestPinPrint only when the evaluation
// semantics are intentionally changed.
const (
	pinnedBatch = `point[0] o=⊤ n=5 s=5 p=0.1428571428571429 ci=[0.5407418735600996,0.9957892554855106]
point[1] o=⊤ n=5 s=5 p=0.1428571428571429 ci=[0.5407418735600996,0.9957892554855106]
point[2] o=⊤ n=5 s=5 p=0.1428571428571429 ci=[0.5407418735600996,0.9957892554855106]
point[3] o=⊤ n=8 s=7 p=0.19999999999999996 ci=[0.5175034850826628,0.9718550265221019]
point[4] o=⊤ n=5 s=5 p=0.1428571428571429 ci=[0.5407418735600996,0.9957892554855106]
point[5] o=⊤ n=16 s=12 p=0.2777777777777778 ci=[0.5010067267954199,0.8968644856296808]
point[6] o=⊤ n=11 s=9 p=0.23076923076923073 ci=[0.515862251314033,0.9451393554720078]
point[7] o=⊥ n=5 s=0 p=0.8571428571428572 ci=[0.0042107445144894395,0.4592581264399004]
point[8] o=⊥ n=5 s=0 p=0.8571428571428572 ci=[0.0042107445144894395,0.4592581264399004]
point[9] o=⊥ n=5 s=0 p=0.8571428571428572 ci=[0.0042107445144894395,0.4592581264399004]
point[10] o=⊥ n=5 s=0 p=0.8571428571428572 ci=[0.0042107445144894395,0.4592581264399004]
point[11] o=⊥ n=5 s=0 p=0.8571428571428572 ci=[0.0042107445144894395,0.4592581264399004]
point[12] o=⊥ n=5 s=0 p=0.8571428571428572 ci=[0.0042107445144894395,0.4592581264399004]
point[13] o=⊥ n=5 s=0 p=0.8571428571428572 ci=[0.0042107445144894395,0.4592581264399004]
point[14] o=⊥ n=5 s=0 p=0.8571428571428572 ci=[0.0042107445144894395,0.4592581264399004]
point[15] o=⊥ n=5 s=0 p=0.8571428571428572 ci=[0.0042107445144894395,0.4592581264399004]
point[16] o=⊥ n=5 s=0 p=0.8571428571428572 ci=[0.0042107445144894395,0.4592581264399004]
point[17] o=⊤ n=5 s=5 p=0.1428571428571429 ci=[0.5407418735600996,0.9957892554855106]
point[18] o=⊤ n=5 s=5 p=0.1428571428571429 ci=[0.5407418735600996,0.9957892554855106]
point[19] o=⊤ n=5 s=5 p=0.1428571428571429 ci=[0.5407418735600996,0.9957892554855106]
point[20] o=⊤ n=5 s=5 p=0.1428571428571429 ci=[0.5407418735600996,0.9957892554855106]
point[21] o=⊤ n=14 s=11 p=0.25 ci=[0.519108866193147,0.9221284537089565]
point[22] o=⊤ n=5 s=5 p=0.1428571428571429 ci=[0.5407418735600996,0.9957892554855106]
point[23] o=⊥ n=5 s=0 p=0.8571428571428572 ci=[0.0042107445144894395,0.4592581264399004]
point[24] o=⊥ n=5 s=0 p=0.8571428571428572 ci=[0.0042107445144894395,0.4592581264399004]
point[25] o=⊥ n=5 s=0 p=0.8571428571428572 ci=[0.0042107445144894395,0.4592581264399004]
point[26] o=⊥ n=8 s=1 p=0.8 ci=[0.028144973477898176,0.48249651491733736]
point[27] o=⊥ n=5 s=0 p=0.8571428571428572 ci=[0.0042107445144894395,0.4592581264399004]
point[28] o=⊥ n=5 s=0 p=0.8571428571428572 ci=[0.0042107445144894395,0.4592581264399004]
point[29] o=⊥ n=5 s=0 p=0.8571428571428572 ci=[0.0042107445144894395,0.4592581264399004]
point[30] o=⊥ n=5 s=0 p=0.8571428571428572 ci=[0.0042107445144894395,0.4592581264399004]
point[31] o=⊥ n=5 s=0 p=0.8571428571428572 ci=[0.0042107445144894395,0.4592581264399004]
point[32] o=⊥ n=5 s=0 p=0.8571428571428572 ci=[0.0042107445144894395,0.4592581264399004]
point[33] o=⊥ n=5 s=0 p=0.8571428571428572 ci=[0.0042107445144894395,0.4592581264399004]
point[34] o=⊤ n=5 s=5 p=0.1428571428571429 ci=[0.5407418735600996,0.9957892554855106]
point[35] o=⊤ n=5 s=5 p=0.1428571428571429 ci=[0.5407418735600996,0.9957892554855106]
point[36] o=⊤ n=5 s=5 p=0.1428571428571429 ci=[0.5407418735600996,0.9957892554855106]
point[37] o=⊤ n=5 s=5 p=0.1428571428571429 ci=[0.5407418735600996,0.9957892554855106]
point[38] o=⊤ n=5 s=5 p=0.1428571428571429 ci=[0.5407418735600996,0.9957892554855106]
point[39] o=⊥ n=76 s=29 p=0.6153846153846154 ci=[0.2804622611792988,0.494375179508165]
set[0] o=⊤ n=5 s=5 p=0.1428571428571429 ci=[0.5407418735600996,0.9957892554855106]
set[1] o=⊤ n=5 s=5 p=0.1428571428571429 ci=[0.5407418735600996,0.9957892554855106]
set[2] o=⊣ n=0 s=0 p=0.5 ci=[0.025000000000000022,0.975]
set[3] o=⊣ n=0 s=0 p=0.5 ci=[0.025000000000000022,0.975]
set[4] o=⊤ n=5 s=5 p=0.1428571428571429 ci=[0.5407418735600996,0.9957892554855106]
set[5] o=⊤ n=5 s=5 p=0.1428571428571429 ci=[0.5407418735600996,0.9957892554855106]
set[6] o=⊣ n=0 s=0 p=0.5 ci=[0.025000000000000022,0.975]
set[7] o=⊣ n=0 s=0 p=0.5 ci=[0.025000000000000022,0.975]
set[8] o=⊣ n=0 s=0 p=0.5 ci=[0.025000000000000022,0.975]
set[9] o=⊤ n=5 s=5 p=0.1428571428571429 ci=[0.5407418735600996,0.9957892554855106]
set[10] o=⊤ n=5 s=5 p=0.1428571428571429 ci=[0.5407418735600996,0.9957892554855106]
set[11] o=⊣ n=0 s=0 p=0.5 ci=[0.025000000000000022,0.975]
set[12] o=⊣ n=0 s=0 p=0.5 ci=[0.025000000000000022,0.975]
set[13] o=⊤ n=5 s=5 p=0.1428571428571429 ci=[0.5407418735600996,0.9957892554855106]
set[14] o=⊤ n=5 s=5 p=0.1428571428571429 ci=[0.5407418735600996,0.9957892554855106]
seq[0] o=⊤ n=5 s=5 p=0.1428571428571429 ci=[0.5407418735600996,0.9957892554855106]
mono[0] o=⊥ n=5 s=0 p=0.8571428571428572 ci=[0.0042107445144894395,0.4592581264399004]
mono[1] o=⊥ n=5 s=0 p=0.8571428571428572 ci=[0.0042107445144894395,0.4592581264399004]
mono[2] o=⊥ n=5 s=0 p=0.8571428571428572 ci=[0.0042107445144894395,0.4592581264399004]
mono[3] o=⊥ n=5 s=0 p=0.8571428571428572 ci=[0.0042107445144894395,0.4592581264399004]
mono[4] o=⊥ n=5 s=0 p=0.8571428571428572 ci=[0.0042107445144894395,0.4592581264399004]
mono[5] o=⊥ n=5 s=0 p=0.8571428571428572 ci=[0.0042107445144894395,0.4592581264399004]
par3[0] o=⊤ n=14 s=11 p=0.25 ci=[0.519108866193147,0.9221284537089565]
par3[1] o=⊤ n=5 s=5 p=0.1428571428571429 ci=[0.5407418735600996,0.9957892554855106]
par3[2] o=⊤ n=5 s=5 p=0.1428571428571429 ci=[0.5407418735600996,0.9957892554855106]
par3[3] o=⊣ n=0 s=0 p=0.5 ci=[0.025000000000000022,0.975]
par3[4] o=⊣ n=0 s=0 p=0.5 ci=[0.025000000000000022,0.975]
par3[5] o=⊣ n=0 s=0 p=0.5 ci=[0.025000000000000022,0.975]
par3[6] o=⊣ n=0 s=0 p=0.5 ci=[0.025000000000000022,0.975]
par3[7] o=⊤ n=5 s=5 p=0.1428571428571429 ci=[0.5407418735600996,0.9957892554855106]
par3[8] o=⊤ n=5 s=5 p=0.1428571428571429 ci=[0.5407418735600996,0.9957892554855106]
par3[9] o=⊤ n=27 s=19 p=0.31034482758620685 ci=[0.513331684551059,0.8412239621138475]
par3[10] o=⊤ n=60 s=38 p=0.3709677419354839 ci=[0.5062703405301042,0.7439064996561013]
par3[11] o=⊤ n=5 s=5 p=0.1428571428571429 ci=[0.5407418735600996,0.9957892554855106]
par3[12] o=⊣ n=0 s=0 p=0.5 ci=[0.025000000000000022,0.975]
par3[13] o=⊣ n=0 s=0 p=0.5 ci=[0.025000000000000022,0.975]
par3[14] o=⊣ n=0 s=0 p=0.5 ci=[0.025000000000000022,0.975]
par3[15] o=⊣ n=0 s=0 p=0.5 ci=[0.025000000000000022,0.975]
par3[16] o=⊤ n=5 s=5 p=0.1428571428571429 ci=[0.5407418735600996,0.9957892554855106]
par3[17] o=⊤ n=5 s=5 p=0.1428571428571429 ci=[0.5407418735600996,0.9957892554855106]
par3[18] o=⊤ n=8 s=7 p=0.19999999999999996 ci=[0.5175034850826628,0.9718550265221019]
par3[19] o=⊤ n=5 s=5 p=0.1428571428571429 ci=[0.5407418735600996,0.9957892554855106]
par3[20] o=⊤ n=5 s=5 p=0.1428571428571429 ci=[0.5407418735600996,0.9957892554855106]
par3[21] o=⊣ n=0 s=0 p=0.5 ci=[0.025000000000000022,0.975]
par3[22] o=⊣ n=0 s=0 p=0.5 ci=[0.025000000000000022,0.975]
par3[23] o=⊣ n=0 s=0 p=0.5 ci=[0.025000000000000022,0.975]
par3[24] o=⊣ n=0 s=0 p=0.5 ci=[0.025000000000000022,0.975]
par3[25] o=⊤ n=82 s=50 p=0.3928571428571429 ci=[0.5011881702971464,0.7082631678474512]
par3[26] o=⊤ n=34 s=23 p=0.33333333333333337 ci=[0.5071199996848256,0.8086758978117338]
par3[27] o=⊤ n=8 s=7 p=0.19999999999999996 ci=[0.5175034850826628,0.9718550265221019]
par3[28] o=⊤ n=5 s=5 p=0.1428571428571429 ci=[0.5407418735600996,0.9957892554855106]
`
	pinnedStream = `stream/sliding sat=2 viol=12 inc=9
stream/tumbling sat=1 viol=5 inc=7
stream/count sat=1 viol=10 inc=0
`
	pinnedStreamApps = `A-1 sat=16044 viol=918 inc=122
A-2 sat=1994 viol=0 inc=0
A-3 sat=75 viol=73 inc=11
A-4 sat=98 viol=1 inc=7
S-1 sat=19797 viol=203 inc=0
S-4 sat=772 viol=0 inc=1
S-5 sat=236 viol=13 inc=7
`
	pinnedViolation = `cp[0] idx=1 expl=[E1 (difference in data values)]
cp[1] idx=2 expl=[E1 (difference in data values)]
cp[2] idx=3 expl=[E1 (difference in data values)]
cp[3] idx=4 expl=[E1 (difference in data values)]
cp[4] idx=5 expl=[E1 (difference in data values)]
cp[5] idx=6 expl=[E1 (difference in data values)]
cp[6] idx=7 expl=[E1 (difference in data values)]
cp[7] idx=8 expl=[E1 (difference in data values)]
cp[8] idx=9 expl=[E1 (difference in data values)]
pcp[0] idx=1 expl=[E1 (difference in data values)]
pcp[1] idx=2 expl=[E1 (difference in data values)]
pcp[2] idx=3 expl=[E1 (difference in data values)]
pcp[3] idx=4 expl=[E1 (difference in data values)]
pcp[4] idx=5 expl=[E1 (difference in data values)]
pcp[5] idx=6 expl=[E1 (difference in data values)]
pcp[6] idx=7 expl=[E1 (difference in data values)]
pcp[7] idx=8 expl=[E1 (difference in data values)]
pcp[8] idx=9 expl=[E1 (difference in data values)]
`
)
