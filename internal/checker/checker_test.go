package checker

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sound/internal/core"
	"sound/internal/pipeline"
	"sound/internal/rng"
	"sound/internal/series"
	"sound/internal/stream"
)

func buildSuite(t *testing.T) *Suite {
	t.Helper()
	p := pipeline.New()
	r := rng.New(1)
	s := make(series.Series, 50)
	for i := range s {
		s[i] = series.Point{T: float64(i), V: 5 + r.NormFloat64()*0.1, SigUp: 0.1, SigDown: 0.1}
	}
	p.AddSeries("load", s)
	return &Suite{
		Pipeline: p,
		Checks: []core.Check{
			{
				Name:        "range",
				Constraint:  core.Range(0, 10),
				SeriesNames: []string{"load"},
				Window:      core.PointWindow{},
			},
			{
				Name:        "delta",
				Constraint:  core.MaxDelta(100),
				SeriesNames: []string{"load"},
				Window:      core.TimeWindow{Size: 10},
			},
		},
	}
}

func TestSuiteRunAndNaiveAligned(t *testing.T) {
	s := buildSuite(t)
	sound, err := s.Run(core.DefaultParams(), 42)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := s.RunNaive()
	if err != nil {
		t.Fatal(err)
	}
	for _, ck := range s.Checks {
		if len(sound[ck.Name]) != len(naive[ck.Name]) {
			t.Errorf("check %q: %d SOUND vs %d naive results", ck.Name, len(sound[ck.Name]), len(naive[ck.Name]))
		}
		if len(sound[ck.Name]) == 0 {
			t.Errorf("check %q produced no results", ck.Name)
		}
	}
	// All data is deep inside the range: everything satisfied.
	for _, r := range sound["range"] {
		if r.Outcome != core.Satisfied {
			t.Errorf("range outcome = %v", r.Outcome)
		}
	}
}

func TestSuiteUnknownSeries(t *testing.T) {
	s := buildSuite(t)
	s.Checks[0].SeriesNames = []string{"nope"}
	if _, err := s.Run(core.DefaultParams(), 1); err == nil {
		t.Error("unknown series accepted by Run")
	}
	if _, err := s.RunNaive(); err == nil {
		t.Error("unknown series accepted by RunNaive")
	}
}

func TestCompareOutcomes(t *testing.T) {
	sound := []core.Result{
		{Outcome: core.Satisfied}, {Outcome: core.Satisfied},
		{Outcome: core.Violated}, {Outcome: core.Violated},
		{Outcome: core.Inconclusive},
	}
	naive := []core.Outcome{
		core.Satisfied, core.Violated, // 1/2 satisfied agree
		core.Violated, core.Satisfied, // 1/2 violated agree
		core.Satisfied,
	}
	a, err := CompareOutcomes(sound, naive)
	if err != nil {
		t.Fatalf("CompareOutcomes: %v", err)
	}
	if a.SatisfiedAcc != 0.5 || a.ViolatedAcc != 0.5 {
		t.Errorf("accuracies = %v, %v", a.SatisfiedAcc, a.ViolatedAcc)
	}
	if a.InconclusiveRatio != 0.2 {
		t.Errorf("inconclusive ratio = %v", a.InconclusiveRatio)
	}
	if a.NTotal != 5 || a.NSatisfied != 2 || a.NViolated != 2 || a.NInconclusive != 1 {
		t.Errorf("counts = %+v", a)
	}
}

func TestMergeAccuracies(t *testing.T) {
	a, err := CompareOutcomes(
		[]core.Result{{Outcome: core.Satisfied}, {Outcome: core.Satisfied}},
		[]core.Outcome{core.Satisfied, core.Satisfied},
	)
	if err != nil {
		t.Fatalf("CompareOutcomes: %v", err)
	}
	b, err := CompareOutcomes(
		[]core.Result{{Outcome: core.Satisfied}, {Outcome: core.Inconclusive}},
		[]core.Outcome{core.Violated, core.Satisfied},
	)
	if err != nil {
		t.Fatalf("CompareOutcomes: %v", err)
	}
	m := Merge(a, b)
	if math.Abs(m.SatisfiedAcc-2.0/3.0) > 1e-12 {
		t.Errorf("merged satisfied acc = %v", m.SatisfiedAcc)
	}
	if m.NTotal != 4 || m.NInconclusive != 1 {
		t.Errorf("merged counts = %+v", m)
	}
}

func TestCount(t *testing.T) {
	c := Count([]core.Result{
		{Outcome: core.Satisfied}, {Outcome: core.Violated},
		{Outcome: core.Violated}, {Outcome: core.Inconclusive},
	})
	if c.Satisfied != 1 || c.Violated != 2 || c.Inconclusive != 1 || c.Total() != 4 {
		t.Errorf("counts = %+v", c)
	}
}

func TestUnaryStreamCheckerPointWise(t *testing.T) {
	ck := core.Check{
		Name:        "range",
		Constraint:  core.Range(0, 10),
		SeriesNames: []string{"s"},
		Window:      core.PointWindow{},
	}
	var out StreamOutcomes
	g := stream.NewGraph()
	src := g.AddSource("src", func(emit stream.EmitFunc) {
		for i := 0; i < 200; i++ {
			v := 5.0
			if i%10 == 0 {
				v = 50 // clear violation
			}
			emit(stream.Event{Time: float64(i), Key: "k", Value: v, Created: time.Now()})
		}
	})
	chk := g.AddOperator("check", 2, MustStreamChecker(StreamCheck{Check: ck, Params: core.DefaultParams(), Seed: 7, Forward: true, Out: &out}))
	var n int64
	sink := g.AddSink("sink", func(stream.Event) { atomic.AddInt64(&n, 1) })
	if err := g.ConnectKeyed(src, chk); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(chk, sink); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 200 {
		t.Errorf("pass-through delivered %d events", n)
	}
	counts := out.Counts()
	if counts.Total() != 200 {
		t.Errorf("evaluated %d windows, want 200", counts.Total())
	}
	if counts.Violated != 20 {
		t.Errorf("violated = %d, want 20", counts.Violated)
	}
	if counts.Satisfied != 180 {
		t.Errorf("satisfied = %d", counts.Satisfied)
	}
}

func TestUnaryStreamCheckerTimeWindows(t *testing.T) {
	ck := core.Check{
		Name:        "delta",
		Constraint:  core.MaxDelta(100),
		SeriesNames: []string{"s"},
		Window:      core.TimeWindow{Size: 10},
	}
	var out StreamOutcomes
	g := stream.NewGraph()
	src := g.AddSource("src", func(emit stream.EmitFunc) {
		for i := 0; i < 100; i++ {
			emit(stream.Event{Time: float64(i), Key: "k", Value: float64(i % 5)})
		}
	})
	chk := g.AddOperator("check", 1, MustStreamChecker(StreamCheck{Check: ck, Params: core.DefaultParams(), Seed: 9, Forward: true, Out: &out}))
	sink := g.AddSink("sink", nil)
	if err := g.ConnectKeyed(src, chk); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(chk, sink); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	counts := out.Counts()
	// 100 points in windows of 10 time units: 10 windows (last flushed).
	if counts.Total() != 10 {
		t.Errorf("evaluated %d windows, want 10", counts.Total())
	}
	if counts.Satisfied != 10 {
		t.Errorf("satisfied = %d", counts.Satisfied)
	}
}

func TestUnaryStreamCheckerCountWindowsNaive(t *testing.T) {
	ck := core.Check{
		Name:        "mono",
		Constraint:  core.MonotonicIncrease(true),
		SeriesNames: []string{"s"},
		Window:      core.CountWindow{Size: 5},
	}
	var out StreamOutcomes
	g := stream.NewGraph()
	src := g.AddSource("src", func(emit stream.EmitFunc) {
		for i := 0; i < 50; i++ {
			emit(stream.Event{Time: float64(i), Key: "k", Value: float64(i)})
		}
	})
	chk := g.AddOperator("check", 1, MustStreamChecker(StreamCheck{Check: ck, Params: core.DefaultParams(), Seed: 9, Naive: true, Forward: true, Out: &out}))
	sink := g.AddSink("sink", nil)
	if err := g.ConnectKeyed(src, chk); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(chk, sink); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	counts := out.Counts()
	if counts.Total() != 10 || counts.Satisfied != 10 {
		t.Errorf("counts = %+v", counts)
	}
}

func TestBinaryStreamChecker(t *testing.T) {
	ck := core.Check{
		Name:        "count",
		Constraint:  core.CountAtLeast(),
		SeriesNames: []string{"a", "b"},
		Window:      core.TimeWindow{Size: 10},
	}
	var out StreamOutcomes
	g := stream.NewGraph()
	src := g.AddSource("src", func(emit stream.EmitFunc) {
		for i := 0; i < 100; i++ {
			emit(stream.Event{Time: float64(i), Key: "a", Value: 1})
			emit(stream.Event{Time: float64(i), Key: "a", Value: 2})
			emit(stream.Event{Time: float64(i), Key: "b", Value: 3})
		}
	})
	chk := g.AddOperator("check", 1, MustStreamChecker(StreamCheck{Check: ck, Params: core.DefaultParams(), Seed: 11, Forward: true, Out: &out, Route: ByInputKeys("a", "b")}))
	var n int64
	sink := g.AddSink("sink", func(stream.Event) { atomic.AddInt64(&n, 1) })
	if err := g.Connect(src, chk); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(chk, sink); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 300 {
		t.Errorf("pass-through delivered %d", n)
	}
	counts := out.Counts()
	if counts.Total() != 10 {
		t.Errorf("evaluated %d windows", counts.Total())
	}
	// |a| = 2|b| in every window: always satisfied.
	if counts.Satisfied != 10 {
		t.Errorf("satisfied = %d of %d", counts.Satisfied, counts.Total())
	}
}

func TestStreamOutcomesConcurrent(t *testing.T) {
	var out StreamOutcomes
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			for i := 0; i < 1000; i++ {
				out.Add(core.Satisfied)
			}
			done <- struct{}{}
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if c := out.Counts(); c.Satisfied != 4000 {
		t.Errorf("satisfied = %d", c.Satisfied)
	}
}

func TestRunParallelMatchesOutcomeShape(t *testing.T) {
	s := buildSuite(t)
	seq, err := s.RunParallel(core.Params{Credibility: 0.95, MaxSamples: 50}, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := s.RunParallel(core.Params{Credibility: 0.95, MaxSamples: 50}, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, ck := range s.Checks {
		if len(seq[ck.Name]) != len(par[ck.Name]) {
			t.Fatalf("%s: result counts differ", ck.Name)
		}
		for i := range seq[ck.Name] {
			if seq[ck.Name][i].Outcome != par[ck.Name][i].Outcome {
				t.Fatalf("%s window %d: outcomes differ across worker counts", ck.Name, i)
			}
		}
	}
	if _, err := s.RunParallel(core.Params{Credibility: 5}, 1, 2); err == nil {
		t.Error("invalid params accepted")
	}
	s.Checks[0].SeriesNames = []string{"missing"}
	if _, err := s.RunParallel(core.DefaultParams(), 1, 2); err == nil {
		t.Error("unknown series accepted")
	}
}

func TestConfusionMatrix(t *testing.T) {
	sound := []core.Result{
		{Outcome: core.Satisfied}, {Outcome: core.Satisfied},
		{Outcome: core.Violated}, {Outcome: core.Inconclusive},
	}
	naive := []core.Outcome{
		core.Satisfied, core.Violated,
		core.Satisfied, core.Violated,
	}
	c, err := Confuse(sound, naive)
	if err != nil {
		t.Fatalf("Confuse: %v", err)
	}
	if c.Total() != 4 {
		t.Fatalf("total = %d", c.Total())
	}
	if c.M[0][0] != 1 || c.M[0][1] != 1 || c.M[1][0] != 1 || c.M[2][1] != 1 {
		t.Errorf("matrix = %+v", c.M)
	}
	// Agreement: 1 of 3 SOUND-conclusive windows.
	if got := c.Agreement(); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("agreement = %v", got)
	}
	out := c.String()
	if !strings.Contains(out, "⊤") || !strings.Contains(out, "⊣") {
		t.Errorf("render = %q", out)
	}
	if (Confusion{}).Agreement() != 0 {
		t.Error("empty agreement should be 0")
	}
}
