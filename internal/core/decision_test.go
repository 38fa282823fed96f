package core

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"sound/internal/series"
	"sound/internal/stat"
)

// directRule replays Alg. 1's decision schedule with per-check
// CredibleInterval calls — the rule the boundary tables replaced — on a
// pre-recorded sequence of constraint verdicts. It is the reference for
// the parity tests below.
func directRule(p Params, verdicts []bool) Result {
	var res Result
	countSatisfied := 0
	for i := 1; i <= p.MaxSamples; i++ {
		if verdicts[i-1] {
			countSatisfied++
		}
		res.Samples = i
		if i < p.MinSamples {
			continue
		}
		if i%p.CheckInterval != 0 && i != p.MaxSamples {
			continue
		}
		post := stat.Beta{Alpha: p.PriorAlpha + float64(countSatisfied), Beta: p.PriorBeta + float64(i-countSatisfied)}
		lower, upper := post.CredibleInterval(p.Credibility)
		res.Lower, res.Upper = lower, upper
		if lower > 0.5 {
			res.Outcome = Satisfied
			break
		}
		if upper < 0.5 {
			res.Outcome = Violated
			break
		}
	}
	res.SatisfiedCount = countSatisfied
	res.ViolationProb = 1 - (p.PriorAlpha+float64(countSatisfied))/(p.PriorAlpha+p.PriorBeta+float64(res.Samples))
	return res
}

func sameDecision(a, b Result) bool {
	return a.Outcome == b.Outcome && a.Samples == b.Samples &&
		a.SatisfiedCount == b.SatisfiedCount && a.ViolationProb == b.ViolationProb &&
		a.Lower == b.Lower && a.Upper == b.Upper
}

// TestEvaluateMatchesDirectRule proves the tentpole's parity claim on
// stochastic evaluations: the boundary-table row loop and a direct
// quantile-rule replay of the same resample verdicts produce
// bit-identical results — outcome, stopping time, counts, and the
// terminal credible interval — across parameterizations that exercise
// the precomputed-CI shortcut (CheckInterval 1) and the overshoot
// fallback (CheckInterval > 1, burn-in).
func TestEvaluateMatchesDirectRule(t *testing.T) {
	paramSets := []Params{
		{Credibility: 0.95, MaxSamples: 100},
		{Credibility: 0.99, MaxSamples: 60, PriorAlpha: 2, PriorBeta: 5},
		{Credibility: 0.9, MaxSamples: 80, CheckInterval: 3},
		{Credibility: 0.95, MaxSamples: 50, MinSamples: 10},
	}
	for pi, params := range paramSets {
		for seed := uint64(1); seed <= 20; seed++ {
			// A borderline uncertain point: verdicts flip draw to draw, so
			// every (s, i) trajectory region gets visited across seeds.
			w := WindowTuple{Windows: []series.Series{{{T: 0, V: 10, SigUp: 4, SigDown: 4}}}}
			c := GreaterThan(10)

			got := rowsAt(t, c, params, seed, w)

			// Replay the identical draw stream: a same-seed lane's
			// resampler produces the same perturbations in the same order.
			ref := newRowLane(t, c, params, seed)
			rs := ref.lane.rs
			rs.PrimeViews(w.Windows, nil)
			p := ref.g.params
			verdicts := make([]bool, p.MaxSamples)
			for i := range verdicts {
				verdicts[i] = c.Eval(rs.Draw(w.Windows))
			}
			want := directRule(p, verdicts)

			if !sameDecision(got, want) {
				t.Errorf("params[%d] seed %d: table rule %+v, direct rule %+v", pi, seed, got, want)
			}
		}
	}
}

// TestCertainFastPathMatchesDirectRule checks the deterministic-collapse
// fast path: all-certain point windows must yield exactly what the
// sampling loop plus direct rule would, for both constant verdicts.
func TestCertainFastPathMatchesDirectRule(t *testing.T) {
	for _, params := range []Params{
		{Credibility: 0.95, MaxSamples: 100},
		{Credibility: 0.999, MaxSamples: 40, PriorAlpha: 3, PriorBeta: 1},
		{Credibility: 0.9, MaxSamples: 30, CheckInterval: 4, MinSamples: 5},
	} {
		for _, sat := range []bool{true, false} {
			v := 20.0
			if !sat {
				v = 1.0
			}
			w := WindowTuple{Windows: []series.Series{{{T: 0, V: v}}}}
			g := loneGroup(t, GreaterThan(10), params)
			got := make([]Result, 1)
			g.Evaluate(9, w, got)

			p := g.params
			verdicts := make([]bool, p.MaxSamples)
			for i := range verdicts {
				verdicts[i] = sat
			}
			want := directRule(p, verdicts)
			if !sameDecision(got[0], want) {
				t.Errorf("sat=%v %+v: fast path %+v, direct rule %+v", sat, params, got[0], want)
			}
		}
	}
}

// tableDigest folds into h every decision-table entry finish or the
// no-data path can read: both thresholds at every index, the accept and
// reject intervals at i where the boundary is a real count, the exhaust
// intervals at the counts strictly between the thresholds at N, and the
// prior interval. It reads the intervals through finish's accessors.
func tableDigest(h hash.Hash64, b *decisionBounds, n int) {
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	interval := func(lower, upper float64) {
		word(math.Float64bits(lower))
		word(math.Float64bits(upper))
	}
	for i := 0; i <= n; i++ {
		word(uint64(b.acceptAt[i]))
		word(uint64(b.rejectAt[i]))
		if i > 0 && b.acceptAt[i] <= i {
			interval(b.acceptInterval(i))
		}
		if i > 0 && b.rejectAt[i] >= 0 {
			interval(b.rejectInterval(i))
		}
	}
	for s := b.rejectAt[n] + 1; s < b.acceptAt[n]; s++ {
		interval(b.exhaustInterval(s, n))
	}
	interval(b.priorLower, b.priorUpper)
}

// pinnedTableDigests are FNV-64a digests of tableDigest over every
// credibility c ∈ {0.5, 0.8, 0.9, 0.95, 0.99, 0.999} × prior ∈ {(1, 1),
// (½, ½), (2, 3), (1, 5), (7, 1)} at each budget N, and over (1, 1) at
// c ∈ {0.95, 0.99} for N = 1000, recorded from the binary-search table
// build with two-sided probes and an exhaustCI filled for every count.
var pinnedTableDigests = map[int]string{
	1:    "f804e9ea56a997f2",
	2:    "86e6d224db7aa112",
	3:    "2d10237fc76e0cd3",
	10:   "6a4869f2e60d61e3",
	25:   "fe467d9ce25aac43",
	60:   "6bf2ec1ec55140a2",
	100:  "172152e54d1dc276",
	200:  "57db1d6189b654ae",
	1000: "2853cd71c5c58fc5",
}

// TestDecisionTableDigests pins every table entry a verdict can report
// to the values of the original construction, so a faster table build
// cannot move a threshold or an interval bit.
func TestDecisionTableDigests(t *testing.T) {
	creds := []float64{0.5, 0.8, 0.9, 0.95, 0.99, 0.999}
	priors := [][2]float64{{1, 1}, {0.5, 0.5}, {2, 3}, {1, 5}, {7, 1}}
	digest := func(n int, creds []float64, priors [][2]float64) string {
		h := fnv.New64a()
		for _, c := range creds {
			for _, pr := range priors {
				p, err := Params{Credibility: c, MaxSamples: n, PriorAlpha: pr[0], PriorBeta: pr[1]}.Normalized()
				if err != nil {
					t.Fatal(err)
				}
				tableDigest(h, boundsFor(p), n)
			}
		}
		return fmt.Sprintf("%016x", h.Sum64())
	}
	got := map[int]string{}
	for _, n := range []int{1, 2, 3, 10, 25, 60, 100, 200} {
		got[n] = digest(n, creds, priors)
	}
	got[1000] = digest(1000, []float64{0.95, 0.99}, priors[:1])
	for _, n := range []int{1, 2, 3, 10, 25, 60, 100, 200, 1000} {
		if got[n] != pinnedTableDigests[n] {
			t.Errorf("N=%d: table digest %s, pinned %s", n, got[n], pinnedTableDigests[n])
		}
	}
}

// checkTerminalIntervals reports the first terminal interval of table b
// (budget n) that differs from Beta.CredibleInterval at its counts, bit
// for bit, reading every boundary and band entry through finish's
// accessors.
func checkTerminalIntervals(t *testing.T, p Params, b *decisionBounds) {
	t.Helper()
	n := p.MaxSamples
	same := func(what string, s, i int, lower, upper float64) {
		wantLo, wantHi := stat.Beta{Alpha: p.PriorAlpha + float64(s), Beta: p.PriorBeta + float64(i-s)}.CredibleInterval(p.Credibility)
		if math.Float64bits(lower) != math.Float64bits(wantLo) || math.Float64bits(upper) != math.Float64bits(wantHi) {
			t.Errorf("%+v %s at s=%d i=%d: [%v, %v], CredibleInterval [%v, %v]", p, what, s, i, lower, upper, wantLo, wantHi)
		}
	}
	for i := 1; i <= n; i++ {
		if s := b.acceptAt[i]; s <= i {
			lower, upper := b.acceptInterval(i)
			same("accept", s, i, lower, upper)
		}
		if s := b.rejectAt[i]; s >= 0 {
			lower, upper := b.rejectInterval(i)
			same("reject", s, i, lower, upper)
		}
	}
	for s := b.rejectAt[n] + 1; s < b.acceptAt[n]; s++ {
		lower, upper := b.exhaustInterval(s, n)
		same("exhaust", s, n, lower, upper)
	}
}

// TestTerminalIntervalsMatchCredibleInterval holds every terminal
// interval a verdict can report to Beta.CredibleInterval at the counts
// it stands for, over every budget × credibility × prior of the stat
// tables' grid.
func TestTerminalIntervalsMatchCredibleInterval(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 25, 60, 100, 200} {
		for _, c := range []float64{0.5, 0.8, 0.9, 0.95, 0.99, 0.999} {
			for _, pr := range [][2]float64{{1, 1}, {0.5, 0.5}, {2, 3}, {1, 5}, {7, 1}, {0.01, 19.9}, {19.9, 0.01}} {
				p, err := Params{Credibility: c, MaxSamples: n, PriorAlpha: pr[0], PriorBeta: pr[1]}.Normalized()
				if err != nil {
					t.Fatal(err)
				}
				checkTerminalIntervals(t, p, newDecisionBounds(p))
			}
		}
	}
}

// TestTerminalIntervalsConcurrentFirstReads has goroutines race to fill
// every terminal interval of one cold N = 1000 table, each reading every
// entry, and then holds every entry to CredibleInterval bit for bit; run
// under -race it also proves the first fills race-free. A filled entry
// must read without allocating.
func TestTerminalIntervalsConcurrentFirstReads(t *testing.T) {
	p, err := Params{Credibility: 0.95, MaxSamples: 1000}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	b := newDecisionBounds(p)
	n := p.MaxSamples
	readAll := func(offset int) {
		for k := 0; k < n; k++ {
			i := 1 + (k+offset)%n
			if b.acceptAt[i] <= i {
				b.acceptInterval(i)
			}
			if b.rejectAt[i] >= 0 {
				b.rejectInterval(i)
			}
		}
		for s := b.rejectAt[n] + 1; s < b.acceptAt[n]; s++ {
			b.exhaustInterval(s, n)
		}
	}
	const readers = 8
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(offset int) {
			defer wg.Done()
			readAll(offset)
		}(g * n / readers)
	}
	wg.Wait()
	checkTerminalIntervals(t, p, b)
	if allocs := testing.AllocsPerRun(10, func() { readAll(0) }); allocs != 0 {
		t.Errorf("reading %d filled intervals allocated %v times", 2*n, allocs)
	}
}

// nextDecisionRef is the straightforward scan nextDecision optimizes:
// every index in (i, maxS] is visited and filtered down to the scheduled
// checks. The production version steps between multiples of ci directly;
// this reference pins that the stepping never skips or reorders a check.
func nextDecisionRef(b *decisionBounds, cs, i, minS, ci, maxS int) int {
	j := i + 1
	if j < minS {
		j = minS
	}
	for ; j <= maxS; j++ {
		if ci != 1 && j%ci != 0 && j != maxS {
			continue
		}
		if cs+(j-i) >= b.acceptAt[j] || cs <= b.rejectAt[j] {
			return j
		}
	}
	return 0
}

func TestNextDecisionMatchesReferenceScan(t *testing.T) {
	for _, maxS := range []int{1, 7, 30, 100} {
		b := boundsFor(Params{Credibility: 0.95, MaxSamples: maxS})
		for _, ci := range []int{1, 2, 3, 7, maxS / 2, maxS - 1, maxS, maxS + 13} {
			if ci < 1 {
				continue
			}
			for _, minS := range []int{0, 1, maxS / 3, maxS} {
				for i := 0; i <= maxS; i++ {
					for cs := 0; cs <= i; cs++ {
						got := b.nextDecision(cs, i, minS, ci, maxS)
						want := nextDecisionRef(b, cs, i, minS, ci, maxS)
						if got != want {
							t.Fatalf("nextDecision(cs=%d,i=%d,minS=%d,ci=%d,maxS=%d) = %d, reference scan = %d",
								cs, i, minS, ci, maxS, got, want)
						}
					}
				}
			}
		}
	}
}

// enumerateOC is oc's oracle: every one of the 2ᴺ bit sequences, each
// walked through decide until it concludes or runs out, weighted by its
// probability pᵏ(1 − p)ᴺ⁻ᵏ. The 2ᴺ terms are summed with compensation,
// so the oracle's own rounding stays far below the tolerance.
func enumerateOC(b *decisionBounds, p float64, minS, ci, maxS int) (sat, viol, inc, samples float64) {
	var sum [4]kahan
	for seq := 0; seq < 1<<maxS; seq++ {
		ones := 0
		for i := 0; i < maxS; i++ {
			ones += seq >> i & 1
		}
		w := math.Pow(p, float64(ones)) * math.Pow(1-p, float64(maxS-ones))
		o, n, cs := Inconclusive, 0, 0
		for n < maxS && o == Inconclusive {
			cs += seq >> n & 1
			n++
			o = b.decide(cs, n, minS, ci, maxS)
		}
		switch o {
		case Satisfied:
			sum[0].add(w)
		case Violated:
			sum[1].add(w)
		default:
			sum[2].add(w)
		}
		sum[3].add(w * float64(n))
	}
	return sum[0].s, sum[1].s, sum[2].s, sum[3].s
}

// kahan is a compensated running sum.
type kahan struct{ s, c float64 }

func (k *kahan) add(x float64) {
	y := x - k.c
	t := k.s + y
	k.c = (t - k.s) - y
	k.s = t
}

// TestOperatingCharacteristicMatchesEnumeration holds the forward DP to
// brute force over all 2ᴺ sample-bit sequences, for N ≤ 14, check
// intervals {1, 3, N}, burn-ins {0, 5}, flat and skewed priors and two
// credibility levels: the two must agree to 1e-12.
func TestOperatingCharacteristicMatchesEnumeration(t *testing.T) {
	for _, n := range []int{1, 2, 5, 9, 14} {
		for _, ci := range []int{1, 3, n} {
			for _, minS := range []int{0, 5} {
				if minS > n {
					continue
				}
				for _, prior := range [][2]float64{{1, 1}, {2, 0.5}} {
					for _, cred := range []float64{0.8, 0.95} {
						p := Params{Credibility: cred, MaxSamples: n, CheckInterval: ci, MinSamples: minS, PriorAlpha: prior[0], PriorBeta: prior[1]}
						pn, err := p.Normalized()
						if err != nil {
							t.Fatal(err)
						}
						b := boundsFor(pn)
						for _, q := range []float64{0, 0.1, 0.5, 0.73, 1} {
							want := [4]float64{}
							want[0], want[1], want[2], want[3] = enumerateOC(b, q, minS, ci, n)
							l, err := OperatingCharacteristic(p, q)
							if err != nil {
								t.Fatal(err)
							}
							got := [4]float64{l.Satisfied, l.Violated, l.Inconclusive, l.Samples}
							for i := range got {
								if math.Abs(got[i]-want[i]) > 1e-12 {
									t.Fatalf("%+v p=%v: DP %v, enumeration %v", p, q, got, want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestOperatingCharacteristicShape checks the two properties that make
// P(⊤ | ½) the worst false-⊤ rate over p < ½: P(⊤ | p) is non-decreasing
// in p, and under a symmetric prior P(⊤ | p) = P(⊥ | 1 − p). It also pins
// the default cell (N = 100, c = 0.95, checked every sample): a window
// exactly on its constraint concludes ⊤ with probability 0.158, after
// 77.2 samples on average.
func TestOperatingCharacteristicShape(t *testing.T) {
	for _, p := range []Params{
		DefaultParams(),
		{Credibility: 0.9, MaxSamples: 60, CheckInterval: 5, MinSamples: 10},
		{Credibility: 0.99, MaxSamples: 200, PriorAlpha: 3, PriorBeta: 3},
		{Credibility: 0.95, MaxSamples: 100, CheckInterval: 100},
	} {
		prev := -1.0
		for i := 0; i <= 100; i++ {
			q := float64(i) / 100
			l, err := OperatingCharacteristic(p, q)
			if err != nil {
				t.Fatal(err)
			}
			if l.Satisfied < prev-1e-15 {
				t.Errorf("%+v: P(⊤ | %v) = %v falls below P(⊤ | %v) = %v", p, q, l.Satisfied, float64(i-1)/100, prev)
			}
			prev = l.Satisfied
			mirror, _ := OperatingCharacteristic(p, 1-q)
			if math.Abs(l.Satisfied-mirror.Violated) > 1e-12 {
				t.Errorf("%+v: P(⊤ | %v) = %v, P(⊥ | %v) = %v", p, q, l.Satisfied, 1-q, mirror.Violated)
			}
		}
	}
	l, err := OperatingCharacteristic(DefaultParams(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%.3f %.1f", l.Satisfied, l.Samples); got != "0.158 77.2" {
		t.Errorf("default cell: P(⊤ | ½), E[samples] = %s, want 0.158 77.2", got)
	}
}
