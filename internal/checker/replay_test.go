package checker

import (
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"sound/internal/checkpoint"
	"sound/internal/core"
	"sound/internal/series"
	"sound/internal/stream"
)

// placeable restates the grid's admission rule for one time: a time
// window needs |t|·2⁻⁵³ below its smallest step, a session a finite t;
// point, count and global windows place every time.
func placeable(a core.WindowAssigner, t float64) bool {
	switch a.Kind {
	case core.KindTumblingTime, core.KindSlidingTime:
		return math.Abs(t)*0x1p-53 < min(a.Size, a.Slide)
	case core.KindSession:
		return !math.IsNaN(t) && !math.IsInf(t, 0)
	}
	return true
}

// replayWindows hands one key's events, arriving at the given times
// (event i carries value i, its arrival index, with error bars 2 up and
// 1 down), one at a time to a Mux operator, then flushes. The operator
// hosts a naive member that records every window it scores and, in a
// second bucket on the tag route soundcheck -stream uses, two SOUND
// members. It checks the operator's windows against the batch windower
// over the events the operator accepted, and each SOUND verdict against
// CheckPlan.Run's over them: batch seeds every window as the stream does.
// It returns the window count and the naive bucket's DroppedLate.
//
// The accepted events are the ones a window held — every time window
// with Slide ≤ Size tiles its span, and sessions, point windows and the
// global window hold every point — and for count windows all of them. A window holds
// the events that had arrived when it fired: a sliding window fired
// before an event of its span arrived lacks it, while the windows still
// open get it. So each batch window is compared with those of its events
// that had arrived when the stream fired it, and only a sliding window
// may lack one. Accepted and dropped events add up to the sent ones; in
// time order, only times the window cannot place are dropped.
func replayWindows(t testing.TB, win core.Windower, arrivals []float64) (windows, dropped int) {
	t.Helper()
	var (
		arrived  int   // events handed to the operator so far
		firedAt  []int // arrived when each window fired
		trace    []core.Outcome
		contents [][]float64 // values of each non-empty window, as scored
		record   = true
	)
	cons := core.Constraint{Name: "ids", Granularity: core.WindowTime, Orderedness: core.SequenceTime, Arity: 1,
		Fn: func(vals [][]float64) bool {
			if record {
				contents = append(contents, slices.Clone(vals[0]))
			}
			return len(vals[0])%2 == 1
		}}
	asg := core.ClassifyWindow(win)
	out := &StreamOutcomes{}
	x := loneMux(t, false, EvictionPolicy{}, MuxCheck{
		Check: core.Check{Name: "ids", Constraint: cons, SeriesNames: []string{"s"}, Window: win},
		Naive: true, Out: out,
		OnOutcome: func(_ string, o core.Outcome) {
			trace = append(trace, o)
			firedAt = append(firedAt, arrived)
		},
	})
	// The SOUND members: a level template, decided from its closed form,
	// and one that draws rows, borderline on the middle arrivals.
	soundChecks := []core.Check{
		{Name: "gt", Constraint: core.GreaterThan(float64(len(arrivals)) / 2), SeriesNames: []string{"s"}, Window: win},
		{Name: "delta", Constraint: core.MaxDelta(3), SeriesNames: []string{"s"}, Window: win},
	}
	soundParams := core.Params{MaxSamples: 30}
	soundTrace := make([][]core.Outcome, len(soundChecks))
	for i, ck := range soundChecks {
		if err := x.Register(MuxCheck{
			Name: ck.Name, Check: ck, Params: soundParams, Seed: 3,
			Route: ByInputKeys("k"), RouteID: "tags",
			OnOutcome: func(_ string, o core.Outcome) { soundTrace[i] = append(soundTrace[i], o) },
		}); err != nil {
			t.Fatal(err)
		}
	}
	op := x.Factory()()
	for i, ts := range arrivals {
		arrived = i + 1
		op.Process(stream.Event{Time: ts, Key: "k", Value: float64(i), SigUp: 2, SigDown: 1}, discardEmit)
	}
	op.Flush(discardEmit)
	record = false
	dropped = out.Lifecycle().DroppedLate

	held := make([]bool, len(arrivals))
	for _, c := range contents {
		for _, v := range c {
			held[int(v)] = true
		}
	}
	var acc series.Series // in arrival order
	for i, ts := range arrivals {
		if held[i] || asg.Kind == core.KindCount {
			acc = append(acc, series.Point{T: ts, V: float64(i), SigUp: 2, SigDown: 1})
		}
	}
	if len(acc)+dropped != len(arrivals) {
		t.Fatalf("%v: %d events accepted and %d dropped of %d sent", win, len(acc), dropped, len(arrivals))
	}
	unplaceable, inOrder, last := 0, true, math.Inf(-1)
	for _, ts := range arrivals {
		if !placeable(asg, ts) {
			unplaceable++
			continue
		}
		inOrder = inOrder && !(ts < last)
		last = ts
	}
	byArrival := asg.Kind == core.KindCount || asg.Kind == core.KindPoint
	if (inOrder || byArrival || asg.Kind == core.KindGlobal) && dropped != unplaceable {
		t.Fatalf("%v: %d dropped, want the %d times it cannot place", win, dropped, unplaceable)
	}

	if !byArrival {
		sortByTime(acc) // the order the stream's buffers are sliced in
	}
	ss := []series.Series{acc}
	tuples := win.Windows(ss)
	if len(tuples) != len(trace) {
		t.Fatalf("%v: the stream fired %d windows, batch over the accepted events has %d", win, len(trace), len(tuples))
	}
	lacked, next := false, 0
	for k, tu := range tuples {
		var want []float64
		for _, p := range tu.Windows[0] {
			if int(p.V) < firedAt[k] {
				want = append(want, p.V)
			} else {
				lacked = true
			}
		}
		o := core.Inconclusive
		if len(want) > 0 {
			if next >= len(contents) || !slices.Equal(contents[next], want) {
				t.Fatalf("%v window %d: the stream scored %v, want %v", win, k, contents[next:min(next+1, len(contents))], want)
			}
			next++
			o = core.Violated
			if cons.Eval([][]float64{want}) {
				o = core.Satisfied
			}
		}
		if trace[k] != o {
			t.Fatalf("%v window %d: stream outcome %v, want %v", win, k, trace[k], o)
		}
	}
	if lacked && asg.Kind != core.KindSlidingTime {
		t.Fatalf("%v: a window fired before an event it holds in batch arrived", win)
	}
	if !lacked {
		if batch := core.EvaluateAllNaive(cons, win, ss); !slices.Equal(trace, batch) {
			t.Fatalf("%v: stream outcomes %v, batch over the accepted events %v", win, trace, batch)
		}
		for i, ck := range soundChecks {
			pl, err := core.CompilePlan(ck, soundParams, 3)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := pl.Run(ss)
			if err != nil {
				t.Fatal(err)
			}
			batch := make([]core.Outcome, len(rs))
			for k, r := range rs {
				batch[k] = r.Outcome
			}
			if !slices.Equal(soundTrace[i], batch) {
				t.Fatalf("%v %s: stream verdicts %v, CheckPlan.Run over the accepted events %v", win, ck.Name, soundTrace[i], batch)
			}
		}
	}
	return len(trace), dropped
}

// timesBytes encodes times as FuzzWindowReplay's raw input.
func timesBytes(ts ...float64) []byte {
	b := make([]byte, 0, 8*len(ts))
	for _, t := range ts {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t))
	}
	return b
}

// FuzzWindowReplay is batch↔stream parity for every grid window: one
// key's events go through a Mux operator (replayWindows) and must give
// the windows, window contents and naive outcomes of the batch windower
// over the events the operator accepted. kind picks a tumbling (0),
// sliding (1), count (2), session (3), global (4) or point (5) window of
// the given size and slide (count: both as integers; session: size is
// the gap; point and global: neither).
// raw holds the times, 8 little-endian bytes each; with order k > 0 they
// are sorted and each run of k%8+1 consecutive events arrives reversed,
// with order 0 they arrive as given. Inputs without an event, and inputs
// whose time windows would number more than 4096, are skipped.
func FuzzWindowReplay(f *testing.F) {
	const tumbling, sliding, count, session, global, point = 0, 1, 2, 3, 4, 5
	seq := func(n int) []float64 {
		ts := make([]float64, n)
		for i := range ts {
			ts[i] = float64(i)
		}
		return ts
	}
	// The off-grid case: the first timestamp is not a multiple of the
	// slide, spacing is irregular, the anchor arrives second (the grid
	// re-anchors), and silences wider than the window leave empty slots.
	offGrid := timesBytes(4.2, 3.7, 9.9, 17.3, 21.0, 22.5, 48.1, 103.6, 110.2, 111.9)
	// The borderline case of TestBatchStreamParitySlidingSharedExtraction:
	// 0..119 without 30..49 and 80..86, four adjacent pairs swapped.
	var gapped []float64
	for i := 0; i < 120; i++ {
		if (i < 30 || i >= 50) && (i < 80 || i >= 87) {
			gapped = append(gapped, float64(i))
		}
	}
	shuffled := slices.Clone(gapped)
	for _, i := range []int{10, 25, 60, 90} {
		shuffled[i], shuffled[i+1] = shuffled[i+1], shuffled[i]
	}
	for _, s := range []struct {
		kind        uint8
		size, slide float64
		order       uint8
		raw         []byte
	}{
		{tumbling, 10, 0, 0, timesBytes(seq(100)...)},
		{tumbling, 10, 0, 0, offGrid},
		{sliding, 10, 4, 0, offGrid},
		{sliding, 12, 5, 0, timesBytes(shuffled...)},
		{count, 8, 3, 0, timesBytes(gapped...)},
		{count, 2, 5, 0, timesBytes(seq(12)...)},
		{count, 4, 2, 2, timesBytes(seq(10)...)},
		{session, 5, 0, 0, timesBytes(0, 4, 2, 8)},
		{session, 5, 0, 0, timesBytes(0, 1, 10, 0.5)},
		{session, 5, 0, 0, timesBytes(5, 3, 20)},
		{session, 5, 0, 3, timesBytes(0, 1, 2, 3, 4, 20, 21, 22, 23, 24)},
		{global, 0, 0, 1, timesBytes(seq(20)...)},
		{tumbling, 5, 0, 4, timesBytes(seq(40)...)},
		{sliding, 20, 5, 5, timesBytes(seq(60)...)},
		{tumbling, 10, 0, 0, timesBytes(0, math.NaN(), 1.7e18, math.Inf(1), 5, 30, math.Inf(-1))},
		{session, 5, 0, 0, timesBytes(math.NaN(), 1, math.Inf(1), 2)},
		{point, 0, 0, 0, timesBytes(3, math.NaN(), 1, math.Inf(1), 2, math.Inf(-1), 2)},
		{point, 0, 0, 3, offGrid},
	} {
		f.Add(s.kind, s.size, s.slide, s.order, s.raw)
	}
	f.Fuzz(func(t *testing.T, kind uint8, size, slide float64, order uint8, raw []byte) {
		var win core.Windower
		switch kind % 6 {
		case tumbling:
			win = core.TimeWindow{Size: size}
		case sliding:
			if !(slide > 0 && slide <= size) {
				return // a hopping window holds no point between its windows
			}
			win = core.TimeWindow{Size: size, Slide: slide}
		case count:
			if !(size >= 1 && size <= 64 && slide >= 1 && slide <= 64) {
				return
			}
			win = core.CountWindow{Size: int(size), Slide: int(slide)}
		case session:
			win = core.SessionWindow{Gap: size}
		case global:
			win = core.GlobalWindow{}
		default:
			win = core.PointWindow{}
		}
		ck := core.Check{Name: "w", Constraint: core.Range(0, 1), SeriesNames: []string{"s"}, Window: win}
		if ck.Validate() != nil {
			return
		}
		ts := make([]float64, 0, min(len(raw)/8, 256))
		for i := 0; i+8 <= len(raw) && len(ts) < 256; i += 8 {
			ts = append(ts, math.Float64frombits(binary.LittleEndian.Uint64(raw[i:])))
		}
		if len(ts) == 0 {
			return // batch gives an empty global window; the stream, no key
		}
		if order > 0 {
			slices.Sort(ts)
			run := int(order%8) + 1
			for lo := 0; lo < len(ts); lo += run {
				slices.Reverse(ts[lo:min(lo+run, len(ts))])
			}
		}
		asg := core.ClassifyWindow(win)
		if asg.Kind == core.KindTumblingTime || asg.Kind == core.KindSlidingTime {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, x := range ts {
				if placeable(asg, x) {
					lo, hi = min(lo, x), max(hi, x)
				}
			}
			if hi-lo > 4096*asg.Slide {
				return
			}
		}
		replayWindows(t, win, ts)
	})
}

// TestSessionDisorder: out-of-order arrivals give the sessions batch
// gives over the events the stream accepted. A time below the open
// session's start is late, except within the gap of it while nothing
// has fired; the largest time of a session never falls. A session that
// took its largest time from the latest arrival would split 0, 4, 2, 8
// in two, and one that took late times would put 0.5 of 0, 1, 10, 0.5
// into the session at 10.
func TestSessionDisorder(t *testing.T) {
	for _, tc := range []struct {
		arrivals          []float64
		sessions, dropped int
	}{
		{[]float64{0, 4, 2, 8}, 1, 0},
		{[]float64{0, 1, 10, 0.5}, 2, 1},
		{[]float64{5, 3, 20}, 2, 0},
		{[]float64{5, 3, 20, -1, 19, 4}, 2, 3},
	} {
		sessions, dropped := replayWindows(t, core.SessionWindow{Gap: 5}, tc.arrivals)
		if sessions != tc.sessions || dropped != tc.dropped {
			t.Errorf("arrivals %v: %d sessions, %d dropped; want %d and %d", tc.arrivals, sessions, dropped, tc.sessions, tc.dropped)
		}
	}
}

// TestUnresolvableEventTime: an event at a time the window cannot place
// is dropped and counted, and the key's other events are windowed as if
// it never came. Admitted, each of these times would hang its shard:
// start + size == start at 1.7e18 and beyond, a window at +Inf never
// closes, and a NaN first time freezes the grid and then fires without
// end at Flush, publishing ⊣ verdicts as fast as it can. Each run gets a
// deadline, and a run that publishes more verdicts than it has events
// stops.
func TestUnresolvableEventTime(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name             string
		win              core.Windower
		arrivals         []float64
		windows, dropped int
	}{
		{"time:10 at 1.7e18", core.TimeWindow{Size: 10}, []float64{1.7e18}, 0, 1},
		{"time:10 at 1e300", core.TimeWindow{Size: 10}, []float64{1e300}, 0, 1},
		{"time:10 at +Inf", core.TimeWindow{Size: 10}, []float64{inf}, 0, 1},
		{"time:10 at 0 then +Inf", core.TimeWindow{Size: 10}, []float64{0, inf}, 1, 1},
		{"time:60:10 at 1.7e18", core.TimeWindow{Size: 60, Slide: 10}, []float64{1.7e18}, 0, 1},
		{"time:1 at 2^53+2 and 2^53+6", core.TimeWindow{Size: 1}, []float64{0x1p53 + 2, 0x1p53 + 6}, 0, 2},
		{"time:10 after NaN", core.TimeWindow{Size: 10}, []float64{nan, 1, 2, 30}, 3, 1},
		{"session:5 around NaN and ±Inf", core.SessionWindow{Gap: 5}, []float64{nan, 1, inf, 2, -inf}, 1, 3},
		{"session:5 at NaN alone", core.SessionWindow{Gap: 5}, []float64{nan}, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A bounded run first: it must end, and publish a verdict per
			// window at most.
			var verdicts int
			ck := core.Check{Name: "range", Constraint: core.Range(0, 100), SeriesNames: []string{"s"}, Window: tc.win}
			op := loneMux(t, false, EvictionPolicy{}, MuxCheck{Check: ck, Naive: true,
				OnOutcome: func(string, core.Outcome) {
					if verdicts++; verdicts > len(tc.arrivals) {
						runtime.Goexit()
					}
				}}).Factory()()
			done := make(chan struct{})
			go func() {
				defer close(done)
				for _, ts := range tc.arrivals {
					op.Process(stream.Event{Time: ts, Key: "k", Value: 1}, discardEmit)
				}
				op.Flush(discardEmit)
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("the operator still runs after 10 s")
			}
			if verdicts > len(tc.arrivals) {
				t.Fatalf("%d events published more than %d verdicts", len(tc.arrivals), len(tc.arrivals))
			}
			windows, dropped := replayWindows(t, tc.win, tc.arrivals)
			if windows != tc.windows || dropped != tc.dropped {
				t.Errorf("%d windows, %d dropped; want %d and %d", windows, dropped, tc.windows, tc.dropped)
			}
		})
	}
}

// TestBinaryPointParity: a binary point check on a tag route pairs each
// input's i-th point, however unevenly the inputs arrive. x runs 150
// points ahead of y, then both come in bursts of uneven length, and
// each input's times run backwards within each run of four, so a time
// sort would reorder them. The stream's tuples and naive outcomes must be batch
// PointWindow's over each input's points in arrival order. A snapshot
// taken while x is over 100 points ahead and restored into a fresh
// operator must deliver the rest of the uninterrupted run's outcomes,
// SOUND and naive alike.
func TestBinaryPointParity(t *testing.T) {
	const nx, ny, ahead, snapAt = 400, 370, 150, 170
	xs, ys := make(series.Series, nx), make(series.Series, ny)
	for i := range xs {
		xs[i] = series.Point{T: float64(i) + 3 - 2*float64(i%4), V: float64(i) + 0.25*float64(i%3), SigUp: 1, SigDown: 0.5}
	}
	for i := range ys {
		ys[i] = series.Point{T: float64(i) + 3.5 - 2*float64(i%4), V: float64(i) + 0.5*float64(i%5) - 0.75, SigUp: 0.5, SigDown: 1}
	}
	var events []stream.Event
	send := func(key string, p series.Point) {
		events = append(events, stream.Event{Key: key, Time: p.T, Value: p.V, SigUp: p.SigUp, SigDown: p.SigDown})
	}
	for _, p := range xs[:ahead] {
		send("x", p)
	}
	for i, x, y := 0, ahead, 0; x < nx || y < ny; i++ {
		for n := 1 + i%4; n > 0 && x < nx; n, x = n-1, x+1 {
			send("x", xs[x])
		}
		for n := 1 + i*7%5; n > 0 && y < ny; n, y = n-1, y+1 {
			send("y", ys[y])
		}
	}

	le := func(v [][]float64) bool { return v[0][0] <= v[1][0] }
	type run struct {
		op           *muxOp
		sound, naive []core.Outcome
		pairs        [][2]float64 // the values of each tuple the naive member scored
	}
	newRun := func() *run {
		r := &run{}
		x := NewMux(false, EvictionPolicy{})
		for _, naive := range []bool{false, true} {
			cons := core.Constraint{Name: "x<=y", Granularity: core.PointWise, Orderedness: core.Set, Arity: 2, Fn: le}
			mc := MuxCheck{Name: "le", Params: core.Params{MaxSamples: 100}, Seed: 7, Route: ByInputKeys("x", "y"), RouteID: "xy",
				OnOutcome: func(_ string, o core.Outcome) { r.sound = append(r.sound, o) }}
			if naive {
				cons.Fn = func(v [][]float64) bool {
					r.pairs = append(r.pairs, [2]float64{v[0][0], v[1][0]})
					return le(v)
				}
				mc.Name, mc.Naive = "le-naive", true
				mc.OnOutcome = func(_ string, o core.Outcome) { r.naive = append(r.naive, o) }
			}
			mc.Check = core.Check{Name: mc.Name, Constraint: cons, SeriesNames: []string{"x", "y"}, Window: core.PointWindow{}}
			if err := x.Register(mc); err != nil {
				t.Fatal(err)
			}
		}
		r.op = x.Factory()().(*muxOp)
		return r
	}

	full, cut := newRun(), newRun()
	var snap []byte
	var soundAt, naiveAt int
	for i, ev := range events {
		if i == snapAt {
			if g := full.op.instances[0].op.peek("", globalKeyHash); g == nil || len(g.bufs[0])-len(g.bufs[1]) < 100 {
				t.Fatalf("x is not 100 points ahead of y at the snapshot")
			}
			enc := checkpoint.NewRawEncoder()
			if err := EncodeOperator(full.op, enc); err != nil {
				t.Fatal(err)
			}
			snap, soundAt, naiveAt = enc.Finish(), len(full.sound), len(full.naive)
			if err := DecodeOperator(cut.op, checkpoint.NewRawDecoder(snap)); err != nil {
				t.Fatal(err)
			}
		}
		full.op.Process(ev, discardEmit)
		if i >= snapAt {
			cut.op.Process(ev, discardEmit)
		}
	}
	full.op.Flush(discardEmit)
	cut.op.Flush(discardEmit)

	ss := []series.Series{xs, ys}
	tuples := core.PointWindow{}.Windows(ss)
	if len(tuples) != ny || len(full.pairs) != ny || len(full.sound) != ny {
		t.Fatalf("%d batch tuples, the stream scored %d and gave %d SOUND verdicts; want %d", len(tuples), len(full.pairs), len(full.sound), ny)
	}
	for i, tu := range tuples {
		if want := [2]float64{tu.Windows[0][0].V, tu.Windows[1][0].V}; full.pairs[i] != want {
			t.Fatalf("tuple %d: the stream scored %v, batch has %v", i, full.pairs[i], want)
		}
	}
	if batch := core.EvaluateAllNaive(core.Constraint{Name: "x<=y", Granularity: core.PointWise, Arity: 2, Fn: le}, core.PointWindow{}, ss); !slices.Equal(full.naive, batch) {
		t.Fatalf("stream naive outcomes %v, batch %v", full.naive, batch)
	}
	if !slices.Equal(cut.sound, full.sound[soundAt:]) || !slices.Equal(cut.naive, full.naive[naiveAt:]) {
		t.Fatalf("the restored run's outcomes differ from the uninterrupted run's after the snapshot")
	}
	if len(cut.naive) == 0 || len(cut.naive) == ny {
		t.Fatalf("the restored run gave %d of %d verdicts: the snapshot is not mid-stream", len(cut.naive), ny)
	}
}
