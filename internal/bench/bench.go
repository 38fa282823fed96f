// Package bench holds the micro-benchmark bodies for the Alg. 1 hot path
// and its ablations as one table, Specs, which BenchmarkSpecs in the
// repo root ranges over: `go test -run '^$' -bench 'Specs/<name>' .`
// is how a micro number or a profile is produced.
package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"sound"
	"sound/internal/checker"
	"sound/internal/checkpoint"
	"sound/internal/core"
	"sound/internal/resample"
	"sound/internal/rng"
	"sound/internal/series"
	"sound/internal/stat"
	"sound/internal/stream"
	"sound/internal/wire"
)

// Spec names one benchmark workload. Variants of an ablation appear as
// separate specs with the conventional "Parent/variant" name.
type Spec struct {
	Name string
	Fn   func(*testing.B)
}

// Specs returns the benchmark workloads: the core Evaluate* paths, the
// DESIGN.md §5 ablations, and the per-layer costs (operator, codecs,
// draws, scoring, explanation, checkpoint) no end-to-end run isolates.
func Specs() []Spec {
	return []Spec{
		{"EvaluatePointCheck", EvaluatePointCheck},
		{"EvaluateSequenceCheck", EvaluateSequenceCheck},
		{"EvaluateAllParallel", EvaluateAllParallel},
		{"AblationEarlyStop/adaptive", func(b *testing.B) { AblationEarlyStop(b, 1) }},
		{"AblationEarlyStop/fixedN", func(b *testing.B) { AblationEarlyStop(b, 100) }},
		{"AblationBlockBootstrap/block", func(b *testing.B) { AblationBlockBootstrap(b, true) }},
		{"AblationBlockBootstrap/iid", func(b *testing.B) { AblationBlockBootstrap(b, false) }},
		{"AblationDecisionRule/credible95", func(b *testing.B) { AblationDecisionRule(b, 0.95) }},
		{"AblationDecisionRule/pointEstimate", func(b *testing.B) { AblationDecisionRule(b, 0.05) }},
		{"StreamCheck/point", func(b *testing.B) { StreamCheck(b, sound.PointWindow{}) }},
		{"StreamCheck/tumbling", func(b *testing.B) { StreamCheck(b, sound.TimeWindow{Size: 60}) }},
		{"StreamCheck/sliding", func(b *testing.B) { StreamCheck(b, sound.TimeWindow{Size: 60, Slide: 30}) }},
		{"StreamCheck/count", func(b *testing.B) { StreamCheck(b, sound.CountWindow{Size: 32}) }},
		{"StreamCheck/keyed", StreamCheckKeyed},
		{"StreamCheck/evict", StreamCheckEvict},
		{"Decode/frame", DecodeFrame},
		{"Decode/ndjson", func(b *testing.B) { DecodeNDJSON(b, wireEvents(1<<13)) }},
		{"Decode/ndjson-manykeys", func(b *testing.B) { DecodeNDJSON(b, manyKeyEvents(1<<17)) }},
		{"Decode/csv", DecodeCSV},
		{"Draw/point/kernel", func(b *testing.B) { Draw(b, resample.Point) }},
		{"Draw/set/kernel", func(b *testing.B) { Draw(b, resample.Set) }},
		{"Draw/sequence/kernel", func(b *testing.B) { Draw(b, resample.Sequence) }},
		{"Kernel/certain", func(b *testing.B) { Kernel(b, 0, 0) }},
		{"Kernel/symmetric", func(b *testing.B) { Kernel(b, 2, 2) }},
		{"Kernel/asymmetric", func(b *testing.B) { Kernel(b, 3, 1) }},
		{"DrawBlock/point/asymmetric", func(b *testing.B) { DrawBlock(b, resample.Point, 64) }},
		{"DrawBlock/set/asymmetric", func(b *testing.B) { DrawBlock(b, resample.Set, 64) }},
		{"DrawBlock/sequence/asymmetric", func(b *testing.B) { DrawBlock(b, resample.Sequence, 64) }},
		{"DrawBlock/point/asymmetric-sparse", func(b *testing.B) { DrawBlock(b, resample.Point, 5) }},
		{"DrawBlock/set/asymmetric-sparse", func(b *testing.B) { DrawBlock(b, resample.Set, 5) }},
		{"DrawBlock/sequence/asymmetric-sparse", func(b *testing.B) { DrawBlock(b, resample.Sequence, 5) }},
		{"Explain/unary", func(b *testing.B) { Explain(b, 1) }},
		{"Explain/binary", func(b *testing.B) { Explain(b, 2) }},
		{"Summarize/parallel", Summarize},
		{"Checkpoint/snapshot", func(b *testing.B) { Checkpoint(b, false, sound.TimeWindow{Size: 60}, 16) }},
		{"Checkpoint/restore", func(b *testing.B) { Checkpoint(b, true, sound.TimeWindow{Size: 60}, 16) }},
		{"Checkpoint/snapshot-sliding", func(b *testing.B) { Checkpoint(b, false, sound.TimeWindow{Size: 60, Slide: 10}, 250) }},
		{"Checkpoint/restore-sliding", func(b *testing.B) { Checkpoint(b, true, sound.TimeWindow{Size: 60, Slide: 10}, 250) }},
		{"MultiCheck/shared/checks1", func(b *testing.B) { MultiCheck(b, 1) }},
		{"MultiCheck/shared/checks8", func(b *testing.B) { MultiCheck(b, 8) }},
		{"MultiCheck/shared/checks64", func(b *testing.B) { MultiCheck(b, 64) }},
		{"MultiCheck/shared/sliding24", MultiCheckSliding},
		{"Exact/range/n60/bracket", func(b *testing.B) { Exact(b, core.Range(0, 100), 60, 13) }},
		{"Exact/range/n60/erfc", func(b *testing.B) { Exact(b, core.Range(0, 100), 60, 5.8) }},
		{"Exact/range/n1080/bracket", func(b *testing.B) { Exact(b, core.Range(0, 100), 1080, 14) }},
		{"Exact/range/n1080/erfc", func(b *testing.B) { Exact(b, core.Range(0, 100), 1080, 8.2) }},
		{"Exact/fraction/n60/bracket", func(b *testing.B) { Exact(b, core.FractionInRange(0, 100, 0.5), 60, 4) }},
		{"Exact/fraction/n60/erfc", func(b *testing.B) { Exact(b, core.FractionInRange(0, 100, 0.5), 60, 0.8) }},
		{"Exact/fraction/n1080/bracket", func(b *testing.B) { Exact(b, core.FractionInRange(0, 100, 0.5), 1080, 4) }},
		{"Exact/fraction/n1080/erfc", func(b *testing.B) { Exact(b, core.FractionInRange(0, 100, 0.5), 1080, 0.72) }},
		{"DecisionTable/n100", func(b *testing.B) { DecisionTable(b, 100) }},
		{"DecisionTable/n1000", func(b *testing.B) { DecisionTable(b, 1000) }},
		{"Score/fraction/borderline/n60", func(b *testing.B) { score(b, core.FractionInRange(0, 100, 0.5), 60, 100) }},
		{"Score/fraction/borderline/n1080", func(b *testing.B) { score(b, core.FractionInRange(0, 100, 0.5), 1080, 100) }},
		{"Score/fraction/clear/n60", func(b *testing.B) { score(b, core.FractionInRange(0, 100, 0.5), 60, 50) }},
		{"Score/fraction/clear/n1080", func(b *testing.B) { score(b, core.FractionInRange(0, 100, 0.5), 1080, 50) }},
		{"Score/maxdelta/n60", func(b *testing.B) { score(b, core.MaxDelta(20), 60, 100) }},
		{"Score/maxdelta/n1080", func(b *testing.B) { score(b, core.MaxDelta(20), 1080, 100) }},
	}
}

// score prices scoring one drawn row of n values — the constraint applied
// to one realization, which Alg. 1 pays once per sample — with no draw on
// the clock. The rows are N(mean, 3): against the upper bound of
// FractionInRange(0, 100, ·), mean 100 puts every value on the bound (the
// windows Alg. 1 samples deepest, where an in-range test per value is a
// coin flip) and mean 50 well inside it. 256 distinct rows cycle so that a
// branch predictor cannot memorize one row's outcomes. The constraint is
// applied through Constraint.Eval, the only scoring form reachable from
// outside internal/core: it runs the kernel's row reduction behind the
// template's finiteness guard, which is on the clock for both kinds of
// row (internal/core's BenchmarkCountIn times the reduction alone).
func score(b *testing.B, c core.Constraint, n int, mean float64) {
	r := rng.New(1)
	rows := make([][][]float64, 256)
	for i := range rows {
		row := make([]float64, n)
		for j := range row {
			row[j] = mean + 3*r.NormFloat64()
		}
		rows[i] = [][]float64{row}
	}
	sat := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Eval(rows[i%len(rows)]) {
			sat++
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/value")
	b.ReportMetric(float64(sat)/float64(b.N), "sat/row")
}

// EvaluatePointCheck measures the core evaluation loop on a single
// certain point — the deterministic-collapse fast path.
func EvaluatePointCheck(b *testing.B) {
	data := sound.FromValues(50)
	c := sound.Range(0, 100)
	eval, err := sound.NewEvaluator(sound.DefaultParams(), 4)
	if err != nil {
		b.Fatal(err)
	}
	tuple := sound.PointWindow{}.Windows([]sound.Series{data})[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = eval.Evaluate(c, tuple)
	}
}

// EvaluateSequenceCheck measures a windowed sequence evaluation (block
// bootstrap + correlation) on a 64-point binary window.
func EvaluateSequenceCheck(b *testing.B) {
	n := 64
	x := make(sound.Series, n)
	y := make(sound.Series, n)
	for i := range x {
		x[i] = sound.Point{T: float64(i), V: float64(i), SigUp: 1, SigDown: 1}
		y[i] = sound.Point{T: float64(i), V: float64(i) + 5, SigUp: 1, SigDown: 1}
	}
	c := sound.CorrelationAbove(0.2)
	eval, err := sound.NewEvaluator(sound.DefaultParams(), 5)
	if err != nil {
		b.Fatal(err)
	}
	tuple := sound.GlobalWindow{}.Windows([]sound.Series{x, y})[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = eval.Evaluate(c, tuple)
	}
}

// EvaluateAllParallel measures the parallel batch path over 500
// uncertain point windows, compiling the check and running it at
// GOMAXPROCS workers; allocs/op tracks that a worker's PlanGroup is built
// once, not per window.
func EvaluateAllParallel(b *testing.B) {
	s := make(sound.Series, 500)
	for i := range s {
		s[i] = sound.Point{T: float64(i), V: 10, SigUp: 1, SigDown: 1}
	}
	check := sound.Check{Name: "gt", Constraint: sound.GreaterThan(5), SeriesNames: []string{"s"}, Window: sound.PointWindow{}}
	params := sound.Params{Credibility: 0.95, MaxSamples: 100}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl, err := sound.CompilePlan(check, params, 1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pl.RunParallel(context.Background(), []sound.Series{s}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// mixedDrawWindow builds a 64-point window with all three point classes
// in runs of eight — the shape quality flags take in practice, where
// sensor quality degrades and recovers in stretches rather than
// alternating point by point.
func mixedDrawWindow() series.Series {
	w := make(series.Series, 64)
	for i := range w {
		w[i] = series.Point{T: float64(i), V: float64(i % 17)}
		switch (i / 8) % 3 {
		case 1:
			w[i].SigUp, w[i].SigDown = 2, 2
		case 2:
			w[i].SigUp, w[i].SigDown = 3, 1
		}
	}
	return w
}

// Draw isolates one resampling iteration over a 64-point mixed-class
// window on the compiled SoA kernel path — primed, as every draw in
// core is.
func Draw(b *testing.B, strat resample.Strategy) {
	windows := []series.Series{mixedDrawWindow()}
	rs := resample.New(strat, rng.New(1))
	rs.PrimeViews(windows, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rs.Draw(windows)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(windows[0])), "ns/point")
}

// classWindow builds an n-point window whose points all carry the
// uncertainty (σ↑, σ↓) — a single perturbation class.
func classWindow(n int, sigUp, sigDown float64) series.Series {
	w := make(series.Series, n)
	for i := range w {
		w[i] = series.Point{T: float64(i), V: float64(i), SigUp: sigUp, SigDown: sigDown}
	}
	return w
}

// Kernel measures one primed point-strategy draw over a 64-point window
// of a single class (σ↑, σ↓) — the per-class kernels a homogeneous window
// lands on: the certain memcpy, the symmetric NormFill + axpy pass, or
// the asymmetric CoinNormFill + branch-free split-normal apply.
func Kernel(b *testing.B, sigUp, sigDown float64) {
	w := classWindow(64, sigUp, sigDown)
	windows := []series.Series{w}
	rs := resample.New(resample.Point, rng.New(1))
	rs.PrimeViews(windows, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rs.Draw(windows)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(w)), "ns/point")
}

// DrawBlock measures the fused block draw on asymmetric uncertainty —
// resample.DrawBlock as core.PlanGroup and the block evaluator call it —
// over one all-asymmetric (σ↑ = 3σ↓) window of n points, 16 samples per
// block: one coin/normal fill per block for the point strategy, one
// index fill plus one coin/normal fill per sample for set and sequence.
// n = 64 is the dense window of the Kernel specs, n = 5 a sparse one,
// where per-sample dispatch rather than per-point work sets the price.
func DrawBlock(b *testing.B, strat resample.Strategy, n int) {
	const samples = 16
	windows := []series.Series{classWindow(n, 3, 1)}
	rs := resample.New(strat, rng.New(1))
	rs.PrimeViews(windows, nil)
	var blk resample.Block
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.DrawBlock(windows, samples, &blk)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*samples*n), "ns/value")
}

// loneCheck returns the operator factory of a Mux hosting ck alone at
// c = 0.95, N = 100, seed 7; forward makes the operator pass every event
// through.
func loneCheck(b *testing.B, forward bool, ck core.Check) func() stream.Processor {
	x := checker.NewMux(forward, checker.EvictionPolicy{})
	if err := x.Register(checker.MuxCheck{
		Name:   ck.Name,
		Check:  ck,
		Params: core.Params{Credibility: 0.95, MaxSamples: 100},
		Seed:   7,
	}); err != nil {
		b.Fatal(err)
	}
	return x.Factory()
}

// StreamCheck measures the online stream-check operator on a
// keyed event stream (8 keys, 4096 events per iteration), driving
// Process directly with a no-op emit so only the operator's own cost —
// routing, window bookkeeping, and evaluation — is on the clock. The
// ns/event metric is the per-event instrumentation overhead the paper's
// throughput experiments (Figs. 4-6) pay.
func StreamCheck(b *testing.B, win sound.Windower) {
	ck := core.Check{
		Name:        "range",
		Constraint:  core.Range(0, 100),
		SeriesNames: []string{"s"},
		Window:      win,
	}
	factory := loneCheck(b, true, ck)
	keys := [8]string{"h0", "h1", "h2", "h3", "h4", "h5", "h6", "h7"}
	events := make([]stream.Event, 4096)
	for i := range events {
		events[i] = stream.Event{Time: float64(i / 8), Key: keys[i%8], Value: 50, SigUp: 2, SigDown: 2}
	}
	emit := func(stream.Event) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := factory()
		for _, ev := range events {
			p.Process(ev, emit)
		}
		p.Flush(emit)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
}

// StreamCheckKeyed measures the operator's frame path: the same keyed
// tumbling-window workload as StreamCheck/tumbling, but delivered in
// 64-event transport frames through ProcessFrame the way a batched
// graph edge hands them over. Against StreamCheck/tumbling this prices
// what frame-at-a-time ingestion saves inside the operator (shared group
// lookups, deferred fire scans) on top of the engine's transport
// savings.
func StreamCheckKeyed(b *testing.B) {
	ck := core.Check{
		Name:        "range",
		Constraint:  core.Range(0, 100),
		SeriesNames: []string{"s"},
		Window:      sound.TimeWindow{Size: 60},
	}
	factory := loneCheck(b, true, ck)
	keys := [8]string{"h0", "h1", "h2", "h3", "h4", "h5", "h6", "h7"}
	events := make([]stream.Event, 4096)
	for i := range events {
		events[i] = stream.Event{Time: float64(i / 8), Key: keys[i%8], Value: 50, SigUp: 2, SigDown: 2}
	}
	const frameSize = 64
	emit := func(stream.Event) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := factory()
		fp := p.(stream.FrameProcessor)
		for at := 0; at < len(events); at += frameSize {
			fp.ProcessFrame(events[at:at+frameSize], emit)
		}
		p.Flush(emit)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
}

// StreamCheckEvict measures the operator's churn path: one lone-bucket
// Mux operator over 20 000 keys of Zipf(1.1) popularity under an idle TTL
// and a 1024-group cap, fed 64-event frames through ProcessFrame. Most
// events of a cold key find its group evicted, so the cap evicts another
// before the key's group is made again from the evicted state (DESIGN.md
// §4i). The operator lives across iterations, each of which replays the
// same 8192 events one span later in event time, so allocs/op prices the
// steady state of eviction and re-admission, not the operator's warm-up.
func StreamCheckEvict(b *testing.B) {
	const nKeys, nEvents, frameSize, tick = 20_000, 8192, 64, 1.0 / 16
	ck := core.Check{
		Name:        "range",
		Constraint:  core.Range(0, 100),
		SeriesNames: []string{"s"},
		Window:      sound.TimeWindow{Size: 60},
	}
	x := checker.NewMux(false, checker.EvictionPolicy{TTL: 64, MaxGroups: 1024})
	out := &checker.StreamOutcomes{}
	if err := x.Register(checker.MuxCheck{
		Name: ck.Name, Check: ck, Params: core.Params{Credibility: 0.95, MaxSamples: 100}, Seed: 7, Out: out,
	}); err != nil {
		b.Fatal(err)
	}
	fp := x.Factory()().(stream.FrameProcessor)
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("z%05d", i)
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, nKeys-1)
	events := make([]stream.Event, nEvents)
	for i := range events {
		events[i] = stream.Event{Time: float64(i) * tick, Key: keys[zipf.Uint64()], Value: 50}
	}
	emit := func(stream.Event) {}
	pass := func() {
		for at := 0; at < len(events); at += frameSize {
			fp.ProcessFrame(events[at:at+frameSize], emit)
		}
		for i := range events {
			events[i].Time += nEvents * tick
		}
	}
	pass()
	evicted := out.Lifecycle().EvictedGroups
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nEvents), "ns/event")
	b.ReportMetric(float64(out.Lifecycle().EvictedGroups-evicted)/float64(b.N*nEvents), "evicted/event")
}

// Checkpoint measures the deterministic state lifecycle's snapshot
// codec (DESIGN.md §4i) on a populated keyed operator: 256 live groups
// of an uncertain-range check on window win, each fed perKey events one
// time unit apart. With 16 events into 60-unit windows no window has
// fired and no group holds an extraction; with 250 events into sliding
// windows every group has fired and holds one, which a restore rebuilds
// at its next fire. snapshot prices EncodeOperator — the stall the loop
// driving the operator pays per checkpoint. restore prices decoding the
// document into a fresh operator (DecodeOperator), the resume cost after
// a kill. The ns/group metric normalizes by live group count.
func Checkpoint(b *testing.B, restore bool, win core.Windower, perKey int) {
	ck := core.Check{
		Name:        "range",
		Constraint:  core.Range(0, 100),
		SeriesNames: []string{"s"},
		Window:      win,
	}
	const nGroups = 256
	factory := loneCheck(b, false, ck)
	p := factory()
	emit := func(stream.Event) {}
	for i := 0; i < nGroups*perKey; i++ {
		p.Process(stream.Event{
			Time:    float64(i / nGroups),
			Key:     fmt.Sprintf("k%04d", i%nGroups),
			Value:   50,
			SigUp:   2,
			SigDown: 2,
		}, emit)
	}
	snapshot := func() []byte {
		enc := checkpoint.NewEncoder()
		if err := checker.EncodeOperator(p, enc); err != nil {
			b.Fatal(err)
		}
		return enc.Finish()
	}
	snap := snapshot()
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !restore {
			snapshot()
			continue
		}
		dec, err := checkpoint.NewDecoder(snap)
		if err != nil {
			b.Fatal(err)
		}
		if err := checker.DecodeOperator(factory(), dec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nGroups), "ns/group")
}

// multiCheckSuite builds n distinct borderline unary constraints over
// one shared count window: same multiplexing class (params, window
// assigner, arity, seed), different decision surfaces — the shape a
// real suite of per-metric sanity checks takes.
func multiCheckSuite(n int) []core.Check {
	checks := make([]core.Check, n)
	for i := range checks {
		name := fmt.Sprintf("frac%02d", i)
		checks[i] = core.Check{
			Name:        name,
			Constraint:  core.FractionInRange(0, 9+float64(i%5), 0.7),
			SeriesNames: []string{"s"},
			Window:      sound.CountWindow{Size: 32},
		}
	}
	return checks
}

// slidingSuite is the 24-member mix of the standing benchmark's
// suite-sliding workload: ten point-wise members (range, gt, nonneg)
// that read a row only through its extremes, and fourteen set members
// (nine fractions over three distinct ranges, four max-deltas, one
// std-nonzero).
func slidingSuite() []core.Constraint {
	var cs []core.Constraint
	for _, max := range []float64{101, 103, 106, 110, 115} {
		cs = append(cs, core.Range(0, max))
	}
	for _, t := range []float64{60, 75, 85, 92} {
		cs = append(cs, core.GreaterThan(t))
	}
	cs = append(cs, core.NonNegative())
	for _, max := range []float64{98, 100, 102} {
		for _, f := range []float64{0.70, 0.85, 0.95} {
			cs = append(cs, core.FractionInRange(0, max, f))
		}
	}
	for _, d := range []float64{12, 17, 22, 28} {
		cs = append(cs, core.MaxDelta(d))
	}
	return append(cs, core.StdNonZero())
}

// MultiCheckSliding prices core.PlanGroup's scoring of one shared
// sample matrix on the shape where it dominates: the 24 suite-sliding
// members in one bucket over 1080-point windows with split-normal error
// bars (σ↑ = 2σ↓), eight windows whose margin below the range bound 100
// steps from borderline to clear so some members sample deep and others
// retire early. shared/checks1 beside it is the bypass: a lone member
// never shares a row statistic.
func MultiCheckSliding(b *testing.B) {
	const size, nWindows = 1080, 8
	params := core.Params{Credibility: 0.95, MaxSamples: 100}
	var plans []*core.CheckPlan
	for _, c := range slidingSuite() {
		pl, err := core.CompilePlan(core.Check{
			Name: c.Name, Constraint: c, SeriesNames: []string{"s"},
			Window: sound.TimeWindow{Size: size, Slide: size / 6},
		}, params, 7)
		if err != nil {
			b.Fatal(err)
		}
		plans = append(plans, pl)
	}
	g, err := core.NewPlanGroup(plans)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(11)
	tuples := make([]core.WindowTuple, nWindows)
	for wi := range tuples {
		margin := 1 + 23*float64(wi)/(nWindows-1)
		w := make(series.Series, size)
		for i := range w {
			w[i] = series.Point{T: float64(i), V: 100 - margin + 1.5*r.NormFloat64(), SigUp: 2, SigDown: 1}
		}
		tuples[wi] = core.WindowTuple{Windows: []series.Series{w}, End: size, Index: wi}
	}
	out := make([]core.Result, len(plans))
	draws := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wi := i % nWindows
		draws += g.Evaluate(g.WindowSeed(uint64(wi), uint64(i)), tuples[wi], out).Draws
	}
	b.ReportMetric(float64(draws)/float64(b.N), "draws/window")
}

// Exact prices one window verdict of a level template decided without
// rows (core/level.go): a lone member in a PlanGroup on an n-point window
// with split-normal error bars (σ↑ = 2σ↓) whose values sit margin below
// the bound 100. The /bracket rows take a margin at which the satisfaction
// probability is near 1 but no point is out of the bound's reach, so the
// verdict costs the table pass and a handful of Bernoulli bits; the /erfc
// rows take one near p = ½, where the first uniform lands inside the table
// bracket and the window is integrated with erfc as well. sat/sample
// reports the probability each row ran at.
func Exact(b *testing.B, c core.Constraint, n int, margin float64) {
	pl, err := core.CompilePlan(core.Check{
		Name: c.Name, Constraint: c, SeriesNames: []string{"s"}, Window: sound.CountWindow{Size: n},
	}, core.Params{Credibility: 0.95, MaxSamples: 100}, 7)
	if err != nil {
		b.Fatal(err)
	}
	g, err := core.NewPlanGroup([]*core.CheckPlan{pl})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(11)
	w := make(series.Series, n)
	for i := range w {
		w[i] = series.Point{T: float64(i), V: 100 - margin + 1.5*r.NormFloat64(), SigUp: 2, SigDown: 1}
	}
	tuple := core.WindowTuple{Windows: []series.Series{w}, End: float64(n)}
	out := make([]core.Result, 1)
	samples, sat := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ev := g.Evaluate(g.WindowSeed(1, uint64(i)), tuple, out); ev.Draws != 0 || ev.Collapsed != 1 {
			b.Fatalf("window scored on rows: %+v", ev)
		}
		samples += out[0].Samples
		sat += out[0].SatisfiedCount
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/point")
	b.ReportMetric(float64(samples)/float64(b.N), "samples/window")
	b.ReportMetric(float64(sat)/float64(samples), "sat/sample")
}

// DecisionTable prices building Alg. 1's decision table from scratch at
// c = 0.95, flat prior, budget n: the two thresholds per sample index
// stat.SequentialBounds computes, one tail mass per probe, which a check's
// first registration pays before its first event (the core cache holds a
// built table thereafter). The terminal credible intervals are not part
// of the build: a verdict computes each the first time it reads it.
func DecisionTable(b *testing.B, n int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		accept, _ := stat.SequentialBounds(1, 1, 0.95, n)
		if accept[n] > n {
			b.Fatalf("no count accepts at n = %d", n)
		}
	}
}

// MultiCheck prices a suite of n co-window checks on one uncertain
// keyed stream, registered in one Mux bucket: one extraction, one
// shared sample matrix drawn from the window-derived RNG, members
// retiring as their decisions land. The draws/window metric staying
// flat from checks8 to checks64 is the shared-matrix claim measured
// directly.
func MultiCheck(b *testing.B, nChecks int) {
	const nEvents = 2048
	params := core.Params{Credibility: 0.95, MaxSamples: 100}
	keys := [8]string{"h0", "h1", "h2", "h3", "h4", "h5", "h6", "h7"}
	events := make([]stream.Event, nEvents)
	for i := range events {
		// Borderline values with real uncertainty: every window resolves
		// by sampling, so draw cost dominates and sharing has something
		// to save.
		events[i] = stream.Event{Time: float64(i / 8), Key: keys[i%8], Value: 5 + float64(i%9), SigUp: 2, SigDown: 2}
	}
	emit := func(stream.Event) {}
	mux := checker.NewMux(false, checker.EvictionPolicy{})
	for _, ck := range multiCheckSuite(nChecks) {
		if err := mux.Register(checker.MuxCheck{
			Name: ck.Name, Check: ck, Params: params, Seed: 7, RouteID: "event",
		}); err != nil {
			b.Fatal(err)
		}
	}
	factory := mux.Factory()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := factory()
		for _, ev := range events {
			p.Process(ev, emit)
		}
		p.Flush(emit)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nEvents), "ns/event")
	for _, g := range mux.GroupStats() {
		if g.Shared && g.Windows > 0 {
			b.ReportMetric(float64(g.Draws)/float64(g.Windows), "draws/window")
		}
	}
}

// trendWindow builds an n-point window with a linear trend plus a small
// deterministic ripple, uniform uncertainty sigma, and unit time spacing.
func trendWindow(n int, base, slope, sigma float64) sound.Series {
	s := make(sound.Series, n)
	for i := range s {
		s[i] = sound.Point{
			T: float64(i), V: base + slope*float64(i) + 0.1*float64(i%5),
			SigUp: sigma, SigDown: sigma,
		}
	}
	return s
}

// Explain measures the explanation of one change point (paper §V-B
// what-if re-evaluations) for a check of the given arity. The windows
// differ in sparsity and uncertainty, so the E2 and E4 counterfactual
// Monte-Carlo evaluations both run — the per-unit work the parallel
// engine fans out.
func Explain(b *testing.B, arity int) {
	var c sound.Constraint
	switch arity {
	case 1:
		c = sound.GreaterThan(10)
		c.Granularity = sound.WindowTime
	case 2:
		c = sound.CorrelationAbove(0.2)
	default:
		b.Fatalf("unsupported arity %d", arity)
	}
	pos := make([]sound.Series, arity)
	neg := make([]sound.Series, arity)
	for j := range pos {
		pos[j] = trendWindow(48, 12, 0.05*float64(j+1), 2)
		neg[j] = trendWindow(16, 7, -0.05*float64(j+1), 3)
	}
	cp := sound.ChangePoint{
		Index: 1,
		Pos:   sound.WindowTuple{Windows: pos, Start: 0, End: 1, Index: 0},
		Neg:   sound.WindowTuple{Windows: neg, Start: 1, End: 2, Index: 1},
	}
	a, err := sound.NewAnalyzer(sound.Params{Credibility: 0.95, MaxSamples: 100}, 11)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Explain(c, cp)
	}
}

// Summarize measures the full violation analysis of a result sequence
// with ~19 change points, fanned out over GOMAXPROCS workers (vary it
// with `go test -cpu`; the summary is bit-identical at every count).
func Summarize(b *testing.B) {
	// Alternating regimes of 20 time units: dense satisfied windows
	// (30±2, clearly above threshold) and sparse, more uncertain violated
	// windows (7±3), so every regime boundary is a change point whose
	// E2/E4 what-ifs re-run the Monte-Carlo evaluation.
	var s sound.Series
	for i := 0; i < 400; i++ {
		if (i/20)%2 == 1 {
			if i%3 != 0 {
				continue // sparse violated windows
			}
			s = append(s, sound.Point{T: float64(i), V: 7, SigUp: 3, SigDown: 3})
		} else {
			s = append(s, sound.Point{T: float64(i), V: 30, SigUp: 2, SigDown: 2})
		}
	}
	c := sound.GreaterThan(10)
	c.Granularity = sound.WindowTime
	check := sound.Check{
		Name:        "gt10",
		Constraint:  c,
		SeriesNames: []string{"s"},
		Window:      sound.TimeWindow{Size: 20},
	}
	params := sound.Params{Credibility: 0.95, MaxSamples: 100}
	eval, err := sound.NewEvaluator(params, 5)
	if err != nil {
		b.Fatal(err)
	}
	results, err := check.Run(eval, []sound.Series{s})
	if err != nil {
		b.Fatal(err)
	}
	a, err := sound.NewAnalyzer(params, 9)
	if err != nil {
		b.Fatal(err)
	}
	cps := len(sound.ChangePoints(results))
	if cps < 5 {
		b.Fatalf("workload has only %d change points", cps)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sound.Summarize(check, results, a, nil, 0.95)
	}
	b.ReportMetric(float64(cps), "changepoints")
}

// clearCutSeries returns an uncertain series whose range check is
// clear-cut for every point: the case where adaptive early stopping
// should save nearly all of the sampling budget.
func clearCutSeries(n int) sound.Series {
	s := make(sound.Series, n)
	for i := range s {
		s[i] = sound.Point{T: float64(i), V: 50, SigUp: 2, SigDown: 2}
	}
	return s
}

// AblationEarlyStop compares Alg. 1's adaptive decision rule
// (checkInterval = 1) against a fixed-budget variant that decides only
// after all N samples (checkInterval = N). The samples/window metric
// shows the adaptive rule consuming a fraction of the budget.
func AblationEarlyStop(b *testing.B, checkInterval int) {
	data := clearCutSeries(64)
	check := sound.Check{
		Name:        "range",
		Constraint:  sound.Range(0, 100),
		SeriesNames: []string{"s"},
		Window:      sound.PointWindow{},
	}
	params := sound.Params{Credibility: 0.95, MaxSamples: 100, CheckInterval: checkInterval}
	eval, err := sound.NewEvaluator(params, 1)
	if err != nil {
		b.Fatal(err)
	}
	samples := 0
	windows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := check.Run(eval, []sound.Series{data})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			samples += r.Samples
			windows++
		}
	}
	b.ReportMetric(float64(samples)/float64(windows), "samples/window")
}

// AblationBlockBootstrap compares the block bootstrap against a naive
// i.i.d. bootstrap for a sequence constraint on autocorrelated data. The
// falseviol/window metric is the rate of spurious violations on a
// genuinely monotone series — the failure mode the block bootstrap
// bounds and E6 controls.
func AblationBlockBootstrap(b *testing.B, block bool) {
	n := 64
	data := make(sound.Series, n)
	for i := range data {
		data[i] = sound.Point{T: float64(i), V: float64(i) * 10, SigUp: 0.01, SigDown: 0.01}
	}
	constraint := sound.MonotonicIncrease(false) // sequence constraint: block bootstrap
	if !block {
		constraint.Orderedness = sound.Set // forces the i.i.d. bootstrap strategy
	}
	check := sound.Check{
		Name:        "mono",
		Constraint:  constraint,
		SeriesNames: []string{"s"},
		Window:      sound.CountWindow{Size: 16},
	}
	eval, err := sound.NewEvaluator(sound.Params{Credibility: 0.95, MaxSamples: 100}, 2)
	if err != nil {
		b.Fatal(err)
	}
	falseViol, windows := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A batch window is seeded from the window itself: each iteration
		// takes its own seed, so it is an independent realization.
		eval.Reseed(2 + uint64(i))
		results, err := check.Run(eval, []sound.Series{data})
		if err != nil {
			b.Fatal(err)
		}
		results = sound.ControlE6(constraint, results)
		for _, r := range results {
			windows++
			if r.Outcome == sound.Violated {
				falseViol++
			}
		}
	}
	b.ReportMetric(float64(falseViol)/float64(windows), "falseviol/window")
}

// AblationDecisionRule compares the credible-interval decision rule
// against an aggressive near-point-estimate rule (c = 0.05) on a
// borderline window. The falseconcl/window metric counts conclusions
// drawn on data that only supports ⊣.
func AblationDecisionRule(b *testing.B, credibility float64) {
	borderline := sound.Series{{T: 0, V: 10, SigUp: 5, SigDown: 5}}
	check := sound.Check{
		Name:        "gt",
		Constraint:  sound.GreaterThan(10),
		SeriesNames: []string{"s"},
		Window:      sound.PointWindow{},
	}
	eval, err := sound.NewEvaluator(sound.Params{Credibility: credibility, MaxSamples: 100}, 3)
	if err != nil {
		b.Fatal(err)
	}
	falseConcl, windows := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A batch window is seeded from the window itself: each iteration
		// takes its own seed, so it is an independent realization.
		eval.Reseed(3 + uint64(i))
		results, err := check.Run(eval, []sound.Series{borderline})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			windows++
			if r.Outcome != sound.Inconclusive {
				falseConcl++
			}
		}
	}
	b.ReportMetric(float64(falseConcl)/float64(windows), "falseconcl/window")
}

// wireEvents builds the canonical decode workload: nEvents certain
// points cycling over 8 series keys.
func wireEvents(n int) []stream.Event {
	keys := [8]string{"h0", "h1", "h2", "h3", "h4", "h5", "h6", "h7"}
	evs := make([]stream.Event, n)
	for i := range evs {
		evs[i] = stream.Event{Time: float64(i / 8), Key: keys[i%8], Value: 50 + float64(i%7), SigUp: 0.5, SigDown: 0.25}
	}
	return evs
}

// DecodeFrame prices the binary frame decode path: pre-encoded frames
// decoded by one warm decoder, zero allocations per event in steady
// state (the wire contract — a regression here costs GC pressure on
// every ingest byte the server ever sees).
func DecodeFrame(b *testing.B) {
	const nEvents = 1 << 13
	evs := wireEvents(nEvents)
	var data []byte
	var err error
	for off := 0; off < nEvents; off += 256 {
		if data, err = wire.AppendFrame(data, evs[off:off+256]); err != nil {
			b.Fatal(err)
		}
	}
	r := bytes.NewReader(data)
	dec := wire.NewFrameDecoder(r)
	decodeAll := func() {
		r.Reset(data)
		dec.Reset(r)
		n := 0
		for {
			fr, err := dec.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n += len(fr)
		}
		if n != nEvents {
			b.Fatalf("decoded %d events, want %d", n, nEvents)
		}
	}
	decodeAll() // warm the intern table and buffers
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decodeAll()
	}
	b.ReportMetric(float64(b.N)*nEvents/b.Elapsed().Seconds(), "points/sec")
}

// manyKeyEvents returns n events over 65 536 distinct keys in a
// scrambled order, with seven-digit times and values of three decimals:
// the line shapes of the benchmark's ndjson-manykeys workload, and a key
// universe that fills the decoder's intern table and misses the caches.
func manyKeyEvents(n int) []stream.Event {
	const nKeys = 1 << 16
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("m%06d", i)
	}
	r := rand.New(rand.NewSource(5))
	evs := make([]stream.Event, n)
	for i := range evs {
		k := (i * 40503) % nKeys
		evs[i] = stream.Event{
			Time:  math.Round((1e6+float64(i)*0.037)*1e3) / 1e3,
			Key:   keys[k],
			Value: math.Round((50+30*math.Sin(float64(k))+0.5*r.NormFloat64())*1e3) / 1e3,
		}
	}
	return evs
}

// DecodeNDJSON prices the hand-rolled NDJSON fast path on well-formed
// lines (the steady state of HTTP ingest): no encoding/json, zero
// allocations per event once the intern table holds every key.
func DecodeNDJSON(b *testing.B, evs []stream.Event) {
	nEvents := len(evs)
	var data []byte
	for _, ev := range evs {
		data = wire.AppendNDJSON(data, ev)
	}
	r := bytes.NewReader(data)
	dec := wire.NewNDJSONDecoder(r)
	decodeAll := func() {
		r.Reset(data)
		dec.Reset(r)
		n := 0
		for {
			_, err := dec.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != nEvents {
			b.Fatalf("decoded %d events, want %d", n, nEvents)
		}
	}
	decodeAll()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decodeAll()
	}
	b.ReportMetric(float64(b.N)*float64(nEvents)/b.Elapsed().Seconds(), "points/sec")
}

// DecodeCSV prices the streaming CSV scanner soundcheck -stream reads
// files through — the replacement for the O(file) slurp.
func DecodeCSV(b *testing.B) {
	const nPoints = 1 << 13
	var buf bytes.Buffer
	for i := 0; i < nPoints; i++ {
		fmt.Fprintf(&buf, "%d,%g,0.5,0.25\n", i, 50+float64(i%7))
	}
	data := buf.Bytes()
	r := bytes.NewReader(data)
	sc := wire.NewCSVScanner(r)
	scanAll := func() {
		r.Reset(data)
		sc.Reset(r)
		n := 0
		for {
			_, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != nPoints {
			b.Fatalf("scanned %d points, want %d", n, nPoints)
		}
	}
	scanAll()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanAll()
	}
	b.ReportMetric(float64(b.N)*nPoints/b.Elapsed().Seconds(), "points/sec")
}
