package core

import (
	"fmt"
	"math"
	"testing"

	"sound/internal/resample"
	"sound/internal/rng"
	"sound/internal/series"
	"sound/internal/stat"
)

// These tests carry the claim level.go makes: a collapsed member's bits
// have the law of the bits the row-scoring loops would have produced. The
// reference is always the code that stays — Resampler.Draw rows scored by
// kernelSat, and evaluateBlocks on the same lane — never a second copy of
// the closed form.

// levelMix builds an n-point window around 0 in one of the class mixes the
// closed form distinguishes: all asymmetric, all symmetric, asymmetric with
// every third point certain (one of them exactly 0, on the closed end of
// non-negative and the open end of gt[0]), and one-sided points whose σ↑
// or σ↓ is 0.
func levelMix(mix string, n int) series.Series {
	w := make(series.Series, n)
	for i := range w {
		p := series.Point{T: float64(i), V: 0.3*float64(i%5) - 0.6}
		switch mix {
		case "asym":
			p.SigUp, p.SigDown = 1+0.1*float64(i%3), 0.5
		case "sym":
			p.SigUp, p.SigDown = 0.8, 0.8
		case "certain-mixed":
			if i%3 != 0 {
				p.SigUp, p.SigDown = 0.6, 1.1
			}
		case "one-sided":
			if i%2 == 0 {
				p.SigUp = 1
			} else {
				p.SigDown = 0.7
			}
		}
		w[i] = p
	}
	return w
}

var levelMixes = []string{"asym", "sym", "certain-mixed", "one-sided"}

// levelSpecs is the template grid scored on each window: one- and
// two-sided ranges, gt, non-negative and — on set lanes — fractions, with
// the thresholds walking from inside the values to well outside them.
func levelSpecs(strat resample.Strategy) []Constraint {
	var cs []Constraint
	for _, off := range []float64{-0.5, 0.3, 1, 2, 3.5} {
		cs = append(cs, Range(-50, off), Range(-1-off/2, 1+off/2), GreaterThan(-off))
		if strat == resample.Set {
			for _, c := range []float64{0.3, 0.5, 0.8} {
				cs = append(cs, FractionInRange(-50, off-0.5, c))
			}
		}
	}
	cs = append(cs, NonNegative())
	if strat == resample.Set {
		cs = append(cs, FractionInRange(-1, 1, 0.5), FractionInRange(-1, 1, 0.9), FractionInRange(0, 50, 0.4))
	}
	return cs
}

// primedLane returns a resampler of the strategy primed with the window.
func primedLane(strat resample.Strategy, seed uint64, w series.Series) *resample.Resampler {
	rs := resample.New(strat, rng.New(seed))
	rs.Prime([]series.Series{w})
	return rs
}

// modelled reports whether the closed form covers the primed window.
func modelled(rs *resample.Resampler) bool {
	return rs.WindowSafe(0) && rs.MissBounds(0, &resample.Intervals{}, nil)
}

// levelP integrates sp's level set over the primed n-point window both
// ways a lane does: the table bracket of p, and p itself.
func levelP(t testing.TB, rs *resample.Resampler, sp *KernelSpec, strat resample.Strategy, n int) (lo, hi, p float64) {
	t.Helper()
	iv, ok := levelSet(sp, strat)
	if !ok {
		t.Fatalf("%+v on a %v lane is not collapsible", *sp, strat)
	}
	var set resample.Intervals
	set.Add(iv)
	var b [1]resample.MissBound
	if !rs.MissBounds(0, &set, b[:]) {
		t.Fatalf("window not modelled")
	}
	lo, hi = bracketP(b[0], sp, strat, n)
	missSum, hitAll := rs.Miss(0, iv)
	return lo, hi, exactP(sp, strat, n, missSum, hitAll)
}

// TestLevelProbMatchesDraws is closed form against drawn frequency: every
// template of the grid, on point and set lanes, over the four class mixes
// at five window lengths. Each window's rows are drawn once and scored by
// every spec through kernelSat, so the frequencies come from the sampler
// and the kernels, and the probability beside them from exactP; the table
// bracket must hold the same value.
func TestLevelProbMatchesDraws(t *testing.T) {
	const rows = 12000
	cases, mid, worst := 0, 0, 0.0
	for _, strat := range []resample.Strategy{resample.Point, resample.Set} {
		for _, mix := range levelMixes {
			cases0, mid0, worst0 := cases, mid, 0.0
			for _, n := range []int{1, 2, 5, 17, 60} {
				w := levelMix(mix, n)
				ws := []series.Series{w}
				rs := primedLane(strat, uint64(1000*n)+uint64(len(mix)), w)
				if !modelled(rs) {
					t.Fatalf("%s n=%d: window not modelled", mix, n)
				}
				cons := levelSpecs(strat)
				hits := make([]int, len(cons))
				for r := 0; r < rows; r++ {
					vals := rs.Draw(ws)
					for ci := range cons {
						if kernelSat(&cons[ci].Spec, vals) {
							hits[ci]++
						}
					}
				}
				for ci := range cons {
					lo, hi, p := levelP(t, rs, &cons[ci].Spec, strat, n)
					if !(lo <= p && p <= hi) || !(p >= 0 && p <= 1) {
						t.Errorf("%v %s n=%d %s: p=%v outside bracket [%v, %v]", strat, mix, n, cons[ci].Name, p, lo, hi)
					}
					freq := float64(hits[ci]) / rows
					z := (freq - p) / math.Sqrt(math.Max(p*(1-p), 1.0/rows)/rows)
					cases++
					if p > 0.02 && p < 0.98 {
						mid++
					}
					worst0 = math.Max(worst0, math.Abs(z))
					if math.Abs(z) >= 4.5 {
						t.Errorf("%v %s n=%d %s: closed form %v, drawn %v over %d rows (z = %.2f)", strat, mix, n, cons[ci].Name, p, freq, rows, z)
					}
				}
			}
			t.Logf("%-5v lane, %-13s: %3d cases, %3d with 0.02 < p < 0.98, worst |z| %.2f", strat, mix, cases-cases0, mid-mid0, worst0)
			worst = math.Max(worst, worst0)
		}
	}
	t.Logf("%d cases, %d with 0.02 < p < 0.98, worst |z| %.2f at %d rows", cases, mid, worst, rows)
	if mid < cases/5 {
		t.Errorf("only %d of %d cases are away from 0 and 1: the grid no longer tests the integral", mid, cases)
	}
}

// TestKmin pins kmin to the float test the fraction template applies, for
// (n, C) pairs where ⌈C·n⌉ and the quotient's rounding disagree, and for C
// outside (0, 1].
func TestKmin(t *testing.T) {
	cs := []float64{0.1, 0.3, 0.7, 0.85, 0.95, 1.0 / 3, 2.0 / 3, 0.07, 0.29, 0.57, 0.999999, 1, math.Nextafter(1, 0),
		math.Nextafter(0.5, 1), math.Nextafter(0.5, 0), 5e-324, 0, math.Copysign(0, -1), -1, 1.0000001, 2, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, n := range []int{1, 2, 3, 7, 10, 17, 49, 60, 100, 1080, 4093} {
		all := append([]float64{}, cs...)
		for k := 0; k <= n; k += 1 + n/50 {
			f := float64(k) / float64(n)
			all = append(all, f, math.Nextafter(f, 2), math.Nextafter(f, -1))
		}
		for _, c := range all {
			want := n + 1
			for k := n; k >= 0; k-- {
				if float64(k)/float64(n) >= c {
					want = k
				}
			}
			if got := kmin(n, c); got != want {
				t.Errorf("kmin(%d, %v) = %d, the template's own test says %d", n, c, got, want)
			}
		}
	}
}

// TestBinomTail checks the one-sided summation against the full sum of
// log-space terms, including tails that underflow and p at 0 and 1.
func TestBinomTail(t *testing.T) {
	for _, n := range []int{1, 2, 9, 60, 1080} {
		for _, p := range []float64{0, 1e-12, 0.003, 0.2, 0.5, 0.63, 0.95, 1 - 1e-9, 1} {
			pmf := make([]float64, n+1)
			for k := range pmf {
				lg := func(x int) float64 { v, _ := math.Lgamma(float64(x + 1)); return v }
				switch {
				case p == 0 || p == 1:
					if k == int(p)*n {
						pmf[k] = 1
					}
				default:
					pmf[k] = math.Exp(lg(n) - lg(k) - lg(n-k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p))
				}
			}
			for k := -1; k <= n+1; k++ {
				want := 0.0
				for j := n; j >= max(k, 0); j-- {
					want += pmf[j]
				}
				want = math.Min(1, want)
				if got := binomTail(n, k, p); math.Abs(got-want) > 1e-10 {
					t.Errorf("binomTail(%d, %d, %v) = %v, want %v", n, k, p, got, want)
				}
			}
		}
	}
}

// FuzzLevelProb is the bracket property: on any modelled window, for every
// level template on both lanes, pLo ≤ p ≤ pHi with p in [0, 1] and never
// NaN, and the exact 0/1 shortcut agrees with the integral.
func FuzzLevelProb(f *testing.F) {
	f.Add(uint64(1), 0.0, 1.0, 0.5, 1.0, 0.5, uint8(12), uint8(0))
	f.Add(uint64(2), -3.0, 3.0, 0.9, 0.2, 0.2, uint8(60), uint8(1))
	f.Add(uint64(3), 0.5, 0.5, 1.0, 0.0, 2.0, uint8(1), uint8(2))
	f.Add(uint64(4), math.Inf(-1), 0.0, 0.0, 1e-300, 1e300, uint8(200), uint8(3))
	f.Add(uint64(5), 100.0, 101.0, 0.3, 1e-3, 0.0, uint8(7), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, a, b, c, up, down float64, nRaw, mix uint8) {
		r := rng.New(seed)
		w := make(series.Series, int(nRaw)+1)
		for i := range w {
			p := series.Point{T: float64(i), V: a + (b-a)*(1.5*r.Float64()-0.25)}
			if math.IsNaN(p.V) || math.IsInf(p.V, 0) {
				p.V = r.NormFloat64()
			}
			switch (i + int(mix)) % 4 {
			case 1:
				p.SigUp, p.SigDown = up, up
			case 2:
				p.SigUp, p.SigDown = up, down
			case 3:
				p.SigDown = down
			}
			w[i] = p
		}
		n := len(w)
		cons := []Constraint{Range(a, b), Range(b, a), GreaterThan(a), GreaterThan(b), NonNegative(), FractionInRange(a, b, c), FractionInRange(b, a, math.Mod(c, 1))}
		for _, strat := range []resample.Strategy{resample.Point, resample.Set} {
			rs := primedLane(strat, seed, w)
			if !modelled(rs) {
				return
			}
			for ci := range cons {
				sp := &cons[ci].Spec
				if _, ok := levelSet(sp, strat); !ok {
					continue
				}
				lo, hi, p := levelP(t, rs, sp, strat, n)
				if !(lo <= p && p <= hi) || !(p >= 0 && p <= 1) || !(lo >= 0 && hi <= 1) {
					t.Errorf("%v %s n=%d: p=%v, bracket [%v, %v]", strat, cons[ci].Name, n, p, lo, hi)
				}
			}
		}
	})
}

// collapseWindow is an n-point asymmetric window whose values sit margin
// below the range bound 100.
func collapseWindow(r *rng.Rand, n int, margin float64) series.Series {
	w := make(series.Series, n)
	for i := range w {
		w[i] = series.Point{T: float64(i), V: 100 - margin + 0.5*r.NormFloat64(), SigUp: 2, SigDown: 1}
	}
	return w
}

// TestCollapseOperatingCharacteristic runs Alg. 1 both ways on the same
// lane — collapsed (PlanGroup.Evaluate) and row-scoring (evaluateBlocks on
// the lane's draw stream) — over thousands of window seeds at satisfaction
// probabilities on both sides of ½ and near 1, and compares what a caller
// can observe: the outcome histogram (χ², 2 d.o.f.) and the mean number of
// samples (z). The two use different random streams, so agreement is in
// law, which is the whole claim.
func TestCollapseOperatingCharacteristic(t *testing.T) {
	const seeds = 2500
	for _, tc := range []struct {
		cons   Constraint
		n      int
		margin float64
	}{
		{Range(0, 100), 3, 0.80},                 // p ≈ 0.20
		{FractionInRange(0, 100, 0.5), 40, 0.55}, // p ≈ 0.46
		{Range(0, 100), 5, 2.60},                 // p ≈ 0.55
		{FractionInRange(0, 100, 0.5), 40, 0.70}, // p ≈ 0.64
		{Range(0, 100), 3, 4.95},                 // p ≈ 0.98
	} {
		plans := compilePlans(t, []Constraint{tc.cons}, CountWindow{Size: tc.n}, Params{MaxSamples: 60}, 9)
		g, err := NewPlanGroup(plans)
		if err != nil {
			t.Fatal(err)
		}
		lane := g.lanes[0]
		w := collapseWindow(rng.New(uint64(tc.n)), tc.n, tc.margin)
		tu := WindowTuple{Windows: []series.Series{w}}
		out := make([]Result, 1)
		var hist [2][3]float64
		var samples [2][]float64
		for s := uint64(0); s < seeds; s++ {
			winSeed := g.WindowSeed(0x0c, s)
			if ev := g.Evaluate(winSeed, tu, out); ev.Collapsed != 1 || ev.Draws != 0 {
				t.Fatalf("%s: not collapsed: %+v", tc.cons.Name, ev)
			}
			hist[0][out[0].Outcome]++
			samples[0] = append(samples[0], float64(out[0].Samples))
			lane.r.Reseed(rng.Derive(winSeed, laneStream(lane.strat)))
			lane.rs.Reseed(lane.r)
			lane.rs.Prime(tu.Windows)
			var mc Result
			g.evaluateBlocks(&mc, &tc.cons, lane.rs, tu)
			hist[1][mc.Outcome]++
			samples[1] = append(samples[1], float64(mc.Samples))
		}
		_, _, p := levelP(t, lane.rs, &tc.cons.Spec, lane.strat, tc.n)
		chi2 := 0.0
		for o := range hist[0] {
			if a, b := hist[0][o], hist[1][o]; a+b > 0 {
				chi2 += (a - b) * (a - b) / (a + b)
			}
		}
		m0, m1 := stat.Mean(samples[0]), stat.Mean(samples[1])
		z := (m0 - m1) / math.Sqrt((stat.Variance(samples[0])+stat.Variance(samples[1]))/seeds)
		t.Logf("%s n=%d p=%.3f: collapsed ⊣/⊤/⊥ %v mean samples %.2f, rows %v %.2f; χ² %.2f, z %.2f", tc.cons.Name, tc.n, p, hist[0], m0, hist[1], m1, chi2, z)
		if chi2 > 18.4 { // P(χ²₂ > 18.4) = 10⁻⁴
			t.Errorf("%s p=%.3f: outcome histograms differ, collapsed %v rows %v (χ² = %.1f)", tc.cons.Name, p, hist[0], hist[1], chi2)
		}
		if math.Abs(z) > 4 {
			t.Errorf("%s p=%.3f: mean samples %.2f collapsed, %.2f on rows (z = %.2f)", tc.cons.Name, p, m0, m1, z)
		}
	}
}

// TestCollapseComonotone pins the coupling: all collapsed members of a
// lane read one uniform per sample, so a member with the larger p has the
// larger satisfied count at every sample index, as nested thresholds have
// on a shared row. The counts at index N are read with a fixed-budget
// schedule (one check, at N) on one window seed, for every N up to 48.
func TestCollapseComonotone(t *testing.T) {
	cons := []Constraint{Range(0, 100.2), Range(0, 100.9), Range(0, 101.5), Range(0, 103), GreaterThan(98), GreaterThan(96.5), NonNegative()}
	w := collapseWindow(rng.New(3), 4, 1.2)
	tu := WindowTuple{Windows: []series.Series{w}}
	rs := primedLane(resample.Point, 1, w)
	ps := make([]float64, len(cons))
	for ci := range cons {
		_, _, ps[ci] = levelP(t, rs, &cons[ci].Spec, resample.Point, len(w))
	}
	prev := make([]int, len(cons))
	out := make([]Result, len(cons))
	moved := 0
	for n := 1; n <= 48; n++ {
		g, err := NewPlanGroup(compilePlans(t, cons, CountWindow{Size: len(w)}, Params{MaxSamples: n, CheckInterval: n}, 5))
		if err != nil {
			t.Fatal(err)
		}
		if ev := g.Evaluate(0x5eed, tu, out); ev.Collapsed != len(cons) {
			t.Fatalf("N=%d: %+v, want every member collapsed", n, ev)
		}
		for a := range cons {
			if out[a].Samples != n {
				t.Fatalf("N=%d %s: %d samples under a fixed budget", n, cons[a].Name, out[a].Samples)
			}
			if d := out[a].SatisfiedCount - prev[a]; d < 0 || d > 1 {
				t.Fatalf("N=%d %s: count moved by %d; the bits are not a prefix-stable stream", n, cons[a].Name, d)
			}
			for b := range cons {
				if ps[a] <= ps[b] && out[a].SatisfiedCount > out[b].SatisfiedCount {
					t.Errorf("N=%d: %s (p=%.3f) has %d satisfied, %s (p=%.3f) only %d", n,
						cons[a].Name, ps[a], out[a].SatisfiedCount, cons[b].Name, ps[b], out[b].SatisfiedCount)
				}
			}
			prev[a] = out[a].SatisfiedCount
		}
		if out[0].SatisfiedCount != out[3].SatisfiedCount {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("the nested members never disagreed on a bit; retune the thresholds")
	}
}

// TestCollapseFallbacks is the table of what keeps Monte Carlo: every row
// must draw rows and collapse nothing, and the control beside it — the
// same template on a window the closed form covers — must draw none.
func TestCollapseFallbacks(t *testing.T) {
	onLane := func(c Constraint, g Granularity, o Orderedness) Constraint {
		c.Granularity, c.Orderedness = g, o
		return c
	}
	good := collapseWindow(rng.New(8), 6, 2)
	with := func(edit func(w series.Series)) []series.Series {
		w := append(series.Series(nil), good...)
		edit(w)
		return []series.Series{w}
	}
	plain := []series.Series{good}
	userFn := Constraint{Name: "user-max-below", Granularity: WindowTime, Orderedness: Set, Arity: 1,
		Fn: func(vals [][]float64) bool { return stat.Max(vals[0]) <= 100 }}
	binary := Constraint{Name: "binary-range", Granularity: PointWise, Orderedness: Set, Arity: 2,
		Spec: KernelSpec{Op: KernelRange, A: 0, B: 100}, Fn: func(vals [][]float64) bool { return Range(0, 100).Fn(vals[:1]) }}
	for _, tc := range []struct {
		name    string
		cons    Constraint
		windows []series.Series
	}{
		{"other template", MaxDelta(9), plain},
		{"std-nonzero", StdNonZero(), plain},
		{"user Fn", userFn, plain},
		{"cleared spec", forceClosure(Range(0, 100)), plain},
		{"arity 2", binary, []series.Series{good, good}},
		{"sequence lane", onLane(Range(0, 100), WindowTime, SequenceIndex), plain},
		{"fraction under point", onLane(FractionInRange(0, 100, 0.5), PointWise, Set), plain},
		{"NaN sigma", Range(0, 100), with(func(w series.Series) { w[2].SigUp = math.NaN() })},
		{"infinite sigma", onLane(Range(0, 100), WindowTime, Set), with(func(w series.Series) { w[0].SigDown = math.Inf(1) })},
		{"overflowing sigma", Range(0, 100), with(func(w series.Series) { w[1].SigUp = math.MaxFloat64 })},
		{"negative sigma", Range(0, 100), with(func(w series.Series) { w[3].SigDown = -1 })},
		{"negative symmetric sigma", onLane(GreaterThan(90), WindowTime, Set), with(func(w series.Series) { w[3].SigUp, w[3].SigDown = -1, -1 })},
		{"NaN bound", Range(math.NaN(), 100), plain},
		{"crossed bounds", Range(100, 0), plain},
		{"crossed fraction bounds", FractionInRange(100, 0, 0.5), plain},
		{"NaN gt threshold", GreaterThan(math.NaN()), plain},
	} {
		win := Windower(CountWindow{Size: len(good)})
		plans := compilePlansArity(t, tc.cons, win, len(tc.windows))
		g, err := NewPlanGroup(plans)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		out := make([]Result, 1)
		ev := g.Evaluate(g.WindowSeed(1, 2), WindowTuple{Windows: tc.windows}, out)
		if ev.Collapsed != 0 || ev.Draws == 0 || ev.Draws != out[0].Samples {
			t.Errorf("%s: %+v with %d samples, want rows drawn for every sample and nothing collapsed", tc.name, ev, out[0].Samples)
		}
	}
	for _, c := range []Constraint{Range(0, 100), onLane(Range(0, 100), WindowTime, Set), GreaterThan(90), NonNegative(),
		FractionInRange(0, 100, 0.5), onLane(NonNegative(), WindowIndex, Set)} {
		g, err := NewPlanGroup(compilePlansArity(t, c, CountWindow{Size: len(good)}, 1))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]Result, 1)
		if ev := g.Evaluate(g.WindowSeed(1, 2), WindowTuple{Windows: plain}, out); ev.Collapsed != 1 || ev.Draws != 0 || out[0].Samples == 0 {
			t.Errorf("%s on %v lane: %+v with %d samples, want collapsed without rows", c.Name, c.Strategy(), ev, out[0].Samples)
		}
	}
}

// compilePlansArity compiles one check binding arity copies of a series.
func compilePlansArity(t testing.TB, c Constraint, win Windower, arity int) []*CheckPlan {
	t.Helper()
	names := make([]string, arity)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	pl, err := CompilePlan(Check{Name: c.Name, Constraint: c, SeriesNames: names, Window: win}, DefaultParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	return []*CheckPlan{pl}
}
