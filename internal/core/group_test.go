package core

import (
	"math"
	"sort"
	"testing"

	"sound/internal/resample"
	"sound/internal/rng"
	"sound/internal/series"
	"sound/internal/stat"
)

func groupTestSeries(n int) series.Series {
	s := make(series.Series, n)
	for i := range s {
		s[i] = series.Point{T: float64(i), V: 5 + float64(i%7), SigUp: 2, SigDown: 2}
	}
	return s
}

func groupTestPlans(t *testing.T, seed uint64) []*CheckPlan {
	t.Helper()
	win := CountWindow{Size: 8}
	cons := []Constraint{Range(0, 13), GreaterThan(1), MaxDelta(9), FractionInRange(3, 12, 0.5)}
	plans := make([]*CheckPlan, len(cons))
	for i, c := range cons {
		pl, err := CompilePlan(Check{
			Name:        c.Name,
			Constraint:  c,
			SeriesNames: []string{"s"},
			Window:      win,
		}, DefaultParams(), seed)
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = pl
	}
	return plans
}

func sameResult(a, b Result) bool {
	return a.Outcome == b.Outcome && a.Samples == b.Samples &&
		a.SatisfiedCount == b.SatisfiedCount && a.ViolationProb == b.ViolationProb &&
		a.Lower == b.Lower && a.Upper == b.Upper
}

// collapsedOn reports whether g decided member mi of the window it last
// evaluated from the closed form of its sample bit, without rows (the
// member's lane is still primed with that window).
func collapsedOn(g *PlanGroup, mi int) bool {
	for _, lane := range g.lanes {
		for _, li := range lane.members {
			if li == mi {
				return g.member[mi].level >= 0 && modelled(lane.rs) &&
					!(lane.strat == resample.Point && lane.rs.PrimedAllCertain())
			}
		}
	}
	return false
}

// A member's verdict in a shared group must equal its verdict in a
// group of one at the same window seed: the lane's streams are a pure
// function of (class, key, window), a row-scoring member's trajectory
// reads only the prefix of the draw stream that its own decision schedule
// consumes, and a collapsed member's only its own probability and the
// lane's uniforms. A row-scoring group of one runs the single-check loop,
// so this is also the parity pin between PlanGroup's two loops.
func TestPlanGroupMemberInvariance(t *testing.T) {
	plans := groupTestPlans(t, 42)
	g, err := NewPlanGroup(plans)
	if err != nil {
		t.Fatal(err)
	}
	ss := []series.Series{groupTestSeries(64)}
	tuples := plans[0].Check().Window.Windows(ss)
	if len(tuples) == 0 {
		t.Fatal("no windows")
	}
	shared := make([]Result, len(plans))
	solo := make([]Result, 1)
	rowMembers := 0
	for wi, tu := range tuples {
		winSeed := g.WindowSeed(0xfeed, uint64(wi))
		g.Evaluate(winSeed, tu, shared)
		for i, pl := range plans {
			g1, err := NewPlanGroup([]*CheckPlan{pl})
			if err != nil {
				t.Fatal(err)
			}
			ev1 := g1.Evaluate(winSeed, tu, solo)
			if !sameResult(shared[i], solo[0]) {
				t.Fatalf("window %d member %d: shared %+v != solo %+v", wi, i, shared[i], solo[0])
			}
			if collapsedOn(g1, 0) {
				if want := (GroupEval{Collapsed: 1, Primes: 1}); ev1 != want {
					t.Fatalf("window %d member %d: collapsed alone with %+v, want %+v", wi, i, ev1, want)
				}
				continue
			}
			rowMembers++
			// Evaluate chose the single-check loop for the lone lane; the
			// multi-member loop on the same primed lane must report the
			// same Result and the same GroupEval.
			lane := g1.lanes[0]
			lane.r.Reseed(rng.Derive(winSeed, laneStream(lane.strat)))
			lane.rs.Reseed(lane.r)
			lane.rs.PrimeViews(tu.Windows, nil)
			evL, viaLane := GroupEval{Primes: 1}, make([]Result, 1)
			g1.evaluateLane(lane, lane.members, tu, viaLane, &evL)
			if !sameResult(viaLane[0], solo[0]) || evL != ev1 {
				t.Fatalf("window %d member %d: lane loop %+v %+v != single-check loop %+v %+v", wi, i, viaLane[0], evL, solo[0], ev1)
			}
		}
	}
	if rowMembers == 0 {
		t.Fatal("no member scored rows: the loop parity was never exercised")
	}
}

// Registration order must not matter: evaluating a permuted group
// yields the permutation of the original results.
func TestPlanGroupOrderInvariance(t *testing.T) {
	plans := groupTestPlans(t, 7)
	perm := []int{2, 0, 3, 1}
	permuted := make([]*CheckPlan, len(plans))
	for i, j := range perm {
		permuted[i] = plans[j]
	}
	ga, err := NewPlanGroup(plans)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := NewPlanGroup(permuted)
	if err != nil {
		t.Fatal(err)
	}
	ss := []series.Series{groupTestSeries(48)}
	tuples := plans[0].Check().Window.Windows(ss)
	ra := make([]Result, len(plans))
	rb := make([]Result, len(plans))
	for wi, tu := range tuples {
		winSeed := ga.WindowSeed(0xabc, uint64(wi))
		if gb.WindowSeed(0xabc, uint64(wi)) != winSeed {
			t.Fatal("window seed depends on member order")
		}
		ga.Evaluate(winSeed, tu, ra)
		gb.Evaluate(winSeed, tu, rb)
		for i, j := range perm {
			if !sameResult(rb[i], ra[j]) {
				t.Fatalf("window %d: permuted member %d != original member %d", wi, i, j)
			}
		}
	}
}

// A row-scoring group of one is the per-check evaluator at the
// lane-derived seed: the degeneration argument that makes shared mode safe
// to reuse the scalar pipeline's decision tables and posterior epilogue. A
// collapsed member draws no rows and shares only its law with the
// evaluator (TestCollapseOperatingCharacteristic); here it must report a
// verdict reached without a draw.
func TestPlanGroupSingleMatchesEvaluator(t *testing.T) {
	plans := groupTestPlans(t, 99)
	plans = append(plans, compilePlans(t, []Constraint{StdNonZero(), MonotonicIncrease(false), forceClosure(Range(0, 13))},
		CountWindow{Size: 8}, DefaultParams(), 99)...)
	ss := []series.Series{groupTestSeries(40)}
	tuples := plans[0].Check().Window.Windows(ss)
	out := make([]Result, 1)
	rowMembers := 0
	for _, pl := range plans {
		g, err := NewPlanGroup([]*CheckPlan{pl})
		if err != nil {
			t.Fatal(err)
		}
		strat := pl.Check().Constraint.Strategy()
		for wi, tu := range tuples {
			winSeed := g.WindowSeed(0x55, uint64(wi))
			ev := g.Evaluate(winSeed, tu, out)
			if collapsedOn(g, 0) {
				if ev.Draws != 0 || ev.Collapsed != 1 || out[0].Samples == 0 {
					t.Fatalf("plan %q window %d: collapsed with %+v and %d samples", pl.Check().Name, wi, ev, out[0].Samples)
				}
				continue
			}
			rowMembers++
			e := MustEvaluator(pl.Params(), rng.Derive(winSeed, laneStream(strat)))
			want := e.Evaluate(pl.Check().Constraint, tu)
			if !sameResult(out[0], want) {
				t.Fatalf("plan %q window %d: group %+v != evaluator %+v", pl.Check().Name, wi, out[0], want)
			}
		}
	}
	if rowMembers == 0 {
		t.Fatal("no plan scored rows")
	}
}

// Shared draws are flat in member count: a 1-member and a 4-member
// group over the same window consume sample matrices whose size is
// governed by the slowest member, never by K independent runs.
func TestPlanGroupDrawsFlat(t *testing.T) {
	plans := groupTestPlans(t, 3)
	g4, _ := NewPlanGroup(plans)
	ss := []series.Series{groupTestSeries(64)}
	tuples := plans[0].Check().Window.Windows(ss)
	out4 := make([]Result, len(plans))
	out1 := make([]Result, 1)
	for wi, tu := range tuples {
		winSeed := g4.WindowSeed(1, uint64(wi))
		ev4 := g4.Evaluate(winSeed, tu, out4)
		// Draw cost is per strategy lane, not per member: the shared
		// budget is bounded by the slowest member of each lane.
		maxSolo := map[resample.Strategy]int{}
		for _, pl := range plans {
			g1, _ := NewPlanGroup([]*CheckPlan{pl})
			ev1 := g1.Evaluate(winSeed, tu, out1)
			strat := pl.Check().Constraint.Strategy()
			maxSolo[strat] = max(maxSolo[strat], ev1.Draws)
		}
		budget := 0
		for _, d := range maxSolo {
			budget += d
		}
		if ev4.Draws > budget {
			t.Fatalf("window %d: shared draws %d exceed per-lane slowest-member budget %d", wi, ev4.Draws, budget)
		}
		if ev4.Primes != len(maxSolo) {
			t.Fatalf("window %d: %d extractions primed, want one per strategy lane (%d)", wi, ev4.Primes, len(maxSolo))
		}
	}

	// The 24-member suite-sliding bucket on 1080-point windows, margins
	// from borderline to clear: its nineteen level-template members are
	// decided without rows in every window, the point lane draws nothing,
	// and the set lane draws for its four max-deltas and std-nonzero only —
	// each window's draws are the scalar oracle's over those five. (Scoring
	// all 24 on rows took {Draws: 229, Retired: 44}.)
	g24, tuples24 := slidingBucket(t)
	out24 := make([]Result, g24.Members())
	var total GroupEval
	for wi, tu := range tuples24 {
		winSeed := g24.WindowSeed(0x51, uint64(wi))
		ev := g24.Evaluate(winSeed, tu, out24)
		oracle := 0
		for _, lane := range g24.lanes {
			oracle += replayLane(g24, lane, winSeed, tu).draws
		}
		if ev.Draws != oracle {
			t.Fatalf("sliding window %d: %d draws, oracle %d", wi, ev.Draws, oracle)
		}
		total.Draws += ev.Draws
		total.Collapsed += ev.Collapsed
		total.Retired += ev.Retired
		total.Primes += ev.Primes
	}
	if want := (GroupEval{Draws: 40, Collapsed: 152, Primes: 16}); total != want {
		t.Fatalf("sliding bucket: %+v, want %+v", total, want)
	}
}

// slidingBucket compiles the suite-sliding member mix into one group and
// builds eight 1080-point windows for it.
func slidingBucket(t testing.TB) (*PlanGroup, []WindowTuple) {
	t.Helper()
	const size = 1080
	plans := compilePlans(t, slidingSuite(), TimeWindow{Size: size, Slide: size / 6}, Params{MaxSamples: 100}, 7)
	g, err := NewPlanGroup(plans)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	tuples := make([]WindowTuple, 8)
	for wi := range tuples {
		w := slidingWindowSeries(r, size, 1+23*float64(wi)/7)
		tuples[wi] = WindowTuple{Windows: []series.Series{w}, End: size, Index: wi}
	}
	return g, tuples
}

// A warm group evaluates the sliding bucket without allocating: the
// statistics, the live set and the sample matrix are all reused scratch.
func TestPlanGroupEvaluateNoAllocs(t *testing.T) {
	g, tuples := slidingBucket(t)
	out := make([]Result, g.Members())
	for wi, tu := range tuples {
		g.Evaluate(g.WindowSeed(0x51, uint64(wi)), tu, out)
	}
	wi := 0
	if avg := testing.AllocsPerRun(16, func() {
		g.Evaluate(g.WindowSeed(0x51, uint64(wi%len(tuples))), tuples[wi%len(tuples)], out)
		wi++
	}); avg != 0 {
		t.Fatalf("warm PlanGroup.Evaluate allocates %v times per window, want 0", avg)
	}
}

// Mixed strategies split into per-strategy lanes but stay in one group
// when the class matches; class mismatches are rejected.
func TestPlanGroupClasses(t *testing.T) {
	plans := groupTestPlans(t, 5)
	ordered, err := CompilePlan(Check{
		Name:        "mono",
		Constraint:  MonotonicIncrease(false),
		SeriesNames: []string{"s"},
		Window:      CountWindow{Size: 8},
	}, DefaultParams(), 5)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewPlanGroup(append(plans[:2:2], ordered))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.lanes) != 2 {
		t.Fatalf("lanes = %d, want 2 (point + sequence)", len(g.lanes))
	}
	if ordered.Check().Constraint.Strategy() != resample.Sequence {
		t.Fatalf("expected sequence strategy for monotone")
	}
	otherSeed, err := CompilePlan(plans[0].Check(), DefaultParams(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPlanGroup([]*CheckPlan{plans[0], otherSeed}); err == nil {
		t.Fatal("expected class mismatch error for differing seeds")
	}
	if _, err := NewPlanGroup(nil); err == nil {
		t.Fatal("expected error for empty group")
	}
}

// slidingSuite is the member mix of the standing benchmark's
// suite-sliding bucket: ten point-lane members that read a row through
// its extremes, fourteen set-lane members (nine fractions over three
// ranges, four max-deltas, one std-nonzero).
func slidingSuite() []Constraint {
	var cs []Constraint
	for _, max := range []float64{101, 103, 106, 110, 115} {
		cs = append(cs, Range(0, max))
	}
	for _, th := range []float64{60, 75, 85, 92} {
		cs = append(cs, GreaterThan(th))
	}
	cs = append(cs, NonNegative())
	for _, max := range []float64{98, 100, 102} {
		for _, f := range []float64{0.70, 0.85, 0.95} {
			cs = append(cs, FractionInRange(0, max, f))
		}
	}
	for _, d := range []float64{12, 17, 22, 28} {
		cs = append(cs, MaxDelta(d))
	}
	return append(cs, StdNonZero())
}

// slidingWindowSeries builds one suite-sliding-shaped window: n values a
// margin below the range bound 100 with split-normal error bars σ↑ = 2σ↓.
func slidingWindowSeries(r *rng.Rand, n int, margin float64) series.Series {
	s := make(series.Series, n)
	for i := range s {
		s[i] = series.Point{T: float64(i), V: 100 - margin + 1.5*r.NormFloat64(), SigUp: 2, SigDown: 1}
	}
	return s
}

func compilePlans(t testing.TB, cons []Constraint, win Windower, p Params, seed uint64) []*CheckPlan {
	t.Helper()
	plans := make([]*CheckPlan, len(cons))
	for i, c := range cons {
		pl, err := CompilePlan(Check{Name: c.Name, Constraint: c, SeriesNames: []string{"s"}, Window: win}, p, seed)
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = pl
	}
	return plans
}

// laneReplay is the scalar oracle of one strategy lane's row-scoring
// members on a modelled window (the collapsible ones draw no rows there and
// are left out): it draws the lane's window-derived stream one sample at a
// time, scores every such member with its reference closure, and runs
// Alg. 1 per member plus the block schedule evaluateLane derives from the
// live members (nextDecision edges, chunk cap) — so it knows each member's
// stopping index, the lane's physical draws, and which block every
// retirement fell in.
type laneReplay struct {
	samples, satisfied []int // per member (lane order)
	outcome            []Outcome
	scored             []bool // the member scores rows
	draws              int
	blocks             []int // block end indices, ascending
}

func replayLane(g *PlanGroup, lane *groupLane, winSeed uint64, w WindowTuple) laneReplay {
	p := g.params
	maxS, minS, ci := p.MaxSamples, p.MinSamples, p.CheckInterval
	r := rng.New(0)
	rs := resample.New(lane.strat, r.Split())
	if lane.strat == resample.Sequence && p.BlockSize > 0 {
		rs.SetBlockSize(p.BlockSize)
	}
	r.Reseed(rng.Derive(winSeed, laneStream(lane.strat)))
	rs.Reseed(r)
	rs.PrimeViews(w.Windows, nil)
	n := len(lane.members)
	rep := laneReplay{samples: make([]int, n), satisfied: make([]int, n), outcome: make([]Outcome, n), scored: make([]bool, n)}
	chunk := blockChunk(w, maxS)
	live := 0
	for li, mi := range lane.members {
		if rep.scored[li] = g.member[mi].level < 0; rep.scored[li] {
			live++
		}
	}
	for i := 0; i < maxS && live > 0; {
		edge := 0
		for li := range lane.members {
			if !rep.scored[li] || rep.outcome[li] != Inconclusive {
				continue
			}
			j := g.bounds.nextDecision(rep.satisfied[li], i, minS, ci, maxS)
			if j == 0 {
				j = maxS
			}
			edge = max(edge, j)
		}
		for i < edge && live > 0 {
			k := min(edge-i, chunk)
			for s := 1; s <= k; s++ {
				vals := rs.Draw(w.Windows)
				for li, mi := range lane.members {
					if !rep.scored[li] || rep.outcome[li] != Inconclusive {
						continue
					}
					if referenceSat(g.member[mi].cons, vals) {
						rep.satisfied[li]++
					}
					rep.samples[li] = i + s
					if rep.outcome[li] = g.bounds.decide(rep.satisfied[li], i+s, minS, ci, maxS); rep.outcome[li] != Inconclusive {
						live--
					}
				}
			}
			i += k
			rep.draws += k
			rep.blocks = append(rep.blocks, i)
		}
	}
	return rep
}

// The sample-major loop shares a row statistic only while two or more
// undecided members read it, so inside one drawn block a statistic can go
// from shared to a lone consumer's kernel call to unused as members retire
// at different samples. Every row-scoring member must come out exactly as
// the scalar oracle, a two-member group, and the per-check evaluator at
// the lane-derived seed say — the collapsed fractions riding along exactly
// as in a two-member group — and the windows swept must actually contain
// that 2 → 1 → 0 hand-over inside a block.
func TestPlanGroupStaggeredRetirement(t *testing.T) {
	meanAbove := Constraint{
		Name: "mean-above", Granularity: WindowTime, Orderedness: Set, Arity: 1,
		Fn: func(vals [][]float64) bool { return stat.Mean(vals[0]) > 10 },
	}
	cons := []Constraint{
		MaxDelta(5), MaxDelta(6.5), MaxDelta(8), // one (min, max) statistic, three retirement times
		FractionInRange(8, 12, 0.6), FractionInRange(8, 12, 0.75), // one level set, collapsed
		FractionInRange(9, 11, 0.4), // another
		StdNonZero(),                // needs the row itself
		meanAbove,                   // user Fn near p = 0.5: holds the blocks open
	}
	plans := compilePlans(t, cons, CountWindow{Size: 12}, DefaultParams(), 17)
	g, err := NewPlanGroup(plans)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.lanes) != 1 {
		t.Fatalf("lanes = %d, want one set lane", len(g.lanes))
	}
	lane := g.lanes[0]
	mmSlot := g.member[0].slot
	if mmSlot < 0 || g.member[1].slot != mmSlot || g.member[2].slot != mmSlot {
		t.Fatalf("max-delta members must share one statistic slot")
	}
	r := rng.New(5)
	out := make([]Result, len(plans))
	pair := make([]Result, 2)
	handovers := 0
	for wi := 0; wi < 300; wi++ {
		w := make(series.Series, 12)
		for i := range w {
			w[i] = series.Point{T: float64(i), V: 10 + 1.2*r.NormFloat64(), SigUp: 1.5, SigDown: 0.75}
		}
		tu := WindowTuple{Windows: []series.Series{w}, Index: wi}
		winSeed := g.WindowSeed(0xabcd, uint64(wi))
		ev := g.Evaluate(winSeed, tu, out)
		rep := replayLane(g, lane, winSeed, tu)
		if ev.Draws != rep.draws {
			t.Fatalf("window %d: %d draws, oracle %d", wi, ev.Draws, rep.draws)
		}
		if ev.Collapsed != 3 {
			t.Fatalf("window %d: %d members collapsed, want the three fractions", wi, ev.Collapsed)
		}
		for mi, pl := range plans {
			got := out[mi]
			if rep.scored[mi] && (got.Outcome != rep.outcome[mi] || got.Samples != rep.samples[mi] || got.SatisfiedCount != rep.satisfied[mi]) {
				t.Fatalf("window %d %s: group {%v n=%d s=%d}, oracle {%v n=%d s=%d}", wi, pl.Check().Name,
					got.Outcome, got.Samples, got.SatisfiedCount, rep.outcome[mi], rep.samples[mi], rep.satisfied[mi])
			}
			// In a group of two with another consumer of the same statistic
			// (or any other member, for those without one).
			other := plans[(mi+1)%3]
			g2, err := NewPlanGroup([]*CheckPlan{pl, other})
			if err != nil {
				t.Fatal(err)
			}
			g2.Evaluate(winSeed, tu, pair)
			if !sameResult(got, pair[0]) {
				t.Fatalf("window %d %s: group %+v != two-member group %+v", wi, pl.Check().Name, got, pair[0])
			}
			if !rep.scored[mi] {
				continue
			}
			e := MustEvaluator(pl.Params(), rng.Derive(winSeed, laneStream(lane.strat)))
			if want := e.Evaluate(pl.Check().Constraint, tu); !sameResult(got, want) {
				t.Fatalf("window %d %s: group %+v != evaluator %+v", wi, pl.Check().Name, got, want)
			}
		}
		// Hand-over inside a block: all three max-delta members decide (so
		// the statistic ends unused) and the last two do so at distinct
		// samples of one block — 2 consumers, then 1, then 0.
		if rep.outcome[0] == Inconclusive || rep.outcome[1] == Inconclusive || rep.outcome[2] == Inconclusive {
			continue
		}
		retired := []int{rep.samples[0], rep.samples[1], rep.samples[2]}
		sort.Ints(retired)
		start := 0
		for _, end := range rep.blocks {
			if start < retired[1] && retired[1] < retired[2] && retired[2] <= end {
				handovers++
			}
			start = end
		}
	}
	if handovers == 0 {
		t.Fatal("no window took a statistic from two consumers to one to none inside one block; retune the thresholds")
	}
}

// FuzzGroupScoreParity fuzzes the member set, the thresholds and the
// window (values, error bars, length) of one bucket and requires every
// row-scoring member's shared-lane result to equal the per-check
// Evaluator's on the same window-derived stream, and every collapsed
// member's to equal what it gets alone in a group of one (its law is
// TestCollapseOperatingCharacteristic's subject). Thresholds are taken raw
// — NaN and ±Inf included — and non-finite or negative error bars push the
// lane off the collapse and the kernel precondition onto the closures, so
// every scoring form is in reach.
func FuzzGroupScoreParity(f *testing.F) {
	f.Add(uint64(1), uint16(0xffff), 6.0, 2.0, 0.5, uint8(12), uint8(1), uint8(0))
	f.Add(uint64(42), uint16(0x0e07), 3.0, -1.0, 0.0, uint8(1), uint8(3), uint8(7))
	f.Add(uint64(7), uint16(0x01f8), math.Inf(1), math.NaN(), 1.5, uint8(5), uint8(1), uint8(4))
	f.Add(uint64(99), uint16(0x7fff), 1e308, 4.0, 1e308, uint8(9), uint8(2), uint8(0))
	f.Add(uint64(5), uint16(0x1fff), 6.0, 2.0, -0.5, uint8(12), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, mask uint16, a, b, sig float64, nRaw, ciRaw, minRaw uint8) {
		p := Params{CheckInterval: int(ciRaw%5) + 1, MinSamples: int(minRaw % 9), MaxSamples: 30}
		all := []Constraint{
			Range(-a, a), Range(b, a), GreaterThan(b), GreaterThan(a / 2), NonNegative(),
			MaxDelta(a), MaxDelta(a - b),
			FractionInRange(b, a, 0.5), FractionInRange(b, a, math.Mod(a, 1)), FractionInRange(-a, b, 0.25),
			StdNonZero(), MonotonicIncrease(false), forceClosure(MaxDelta(a)),
		}
		var cons []Constraint
		for i, c := range all {
			if mask&(1<<i) != 0 {
				cons = append(cons, c)
			}
		}
		if len(cons) == 0 {
			t.Skip()
		}
		plans := compilePlans(t, cons, CountWindow{Size: 4}, p, seed)
		g, err := NewPlanGroup(plans)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(seed)
		w := make(series.Series, int(nRaw%24)+1)
		for i := range w {
			pt := series.Point{T: float64(i), V: b + (a-b)*r.Float64()}
			switch i % 3 {
			case 1:
				pt.SigUp, pt.SigDown = sig, sig
			case 2:
				pt.SigUp, pt.SigDown = sig, sig/2
			}
			w[i] = pt
		}
		tu := WindowTuple{Windows: []series.Series{w}}
		out := make([]Result, len(plans))
		solo := make([]Result, 1)
		for wi := uint64(0); wi < 3; wi++ {
			winSeed := g.WindowSeed(seed, wi)
			ev := g.Evaluate(winSeed, tu, out)
			collapsed := 0
			for mi, pl := range plans {
				c := pl.Check().Constraint
				if collapsedOn(g, mi) {
					collapsed++
					g1, err := NewPlanGroup([]*CheckPlan{pl})
					if err != nil {
						t.Fatal(err)
					}
					if ev1 := g1.Evaluate(winSeed, tu, solo); !resultsEqual(out[mi], solo[0]) || ev1.Draws != 0 {
						t.Errorf("window %d %s collapsed: in the bucket %+v, alone %+v (%+v)", wi, c.Name, out[mi], solo[0], ev1)
					}
					continue
				}
				e := MustEvaluator(p, rng.Derive(winSeed, laneStream(c.Strategy())))
				if want := e.Evaluate(c, tu); !resultsEqual(out[mi], want) {
					t.Errorf("window %d %s: %s", wi, c.Name, diffResults(out[mi], want))
				}
			}
			if ev.Collapsed != collapsed {
				t.Errorf("window %d: GroupEval reports %d collapsed members, %d were", wi, ev.Collapsed, collapsed)
			}
		}
	})
}

// TestPlanGroupRebind holds a rebound group — the batch runs' pooled
// groups are rebound to every plan they run — to a group built fresh for
// the same plans: across strategies, block sizes, parameter sets and
// member counts, on a certain window (decided past its boundary under
// CheckInterval 7, so the interval comes from the memo) and an uncertain
// one, every Result and GroupEval must be equal.
func TestPlanGroupRebind(t *testing.T) {
	certain := WindowTuple{Windows: []series.Series{series.FromValues(50, 51, 52, 53)}}
	uncertain := WindowTuple{Windows: []series.Series{groupTestSeries(12)}}
	win := CountWindow{Size: 4}
	suites := [][]*CheckPlan{
		compilePlans(t, []Constraint{Range(0, 100)}, win, Params{Credibility: 0.9, CheckInterval: 7}, 1),
		compilePlans(t, []Constraint{Range(0, 100)}, win, Params{Credibility: 0.8, CheckInterval: 7}, 1),
		compilePlans(t, []Constraint{MonotonicIncrease(false), MaxDelta(4)}, win, Params{BlockSize: 2, MaxSamples: 40}, 2),
		compilePlans(t, []Constraint{FractionInRange(0, 60, 0.5), MaxDelta(4), GreaterThan(3)}, win, Params{MaxSamples: 40}, 3),
		compilePlans(t, []Constraint{MonotonicIncrease(true)}, win, Params{MaxSamples: 40}, 4),
	}
	var g PlanGroup
	for i, plans := range suites {
		if err := g.bind(plans); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewPlanGroup(plans)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []WindowTuple{certain, uncertain} {
			got, want := make([]Result, len(plans)), make([]Result, len(plans))
			seed := fresh.WindowSeed(0x51, 7)
			if g.WindowSeed(0x51, 7) != seed {
				t.Fatalf("suite %d: rebound window seed differs", i)
			}
			evGot, evWant := g.Evaluate(seed, w, got), fresh.Evaluate(seed, w, want)
			if evGot != evWant {
				t.Errorf("suite %d: rebound %+v, fresh %+v", i, evGot, evWant)
			}
			for m := range got {
				if !sameResult(got[m], want[m]) {
					t.Errorf("suite %d member %d: rebound %+v, fresh %+v", i, m, got[m], want[m])
				}
			}
		}
	}
}
