package core

import (
	"fmt"
	"math"
	"testing"

	"sound/internal/rng"
	"sound/internal/series"
)

// These tests pin the central contract of the compiled kernel path: for
// every template constraint, every parameter configuration, and every
// window class mix, evaluating the template must produce a Result
// bit-identical to evaluating its reference closure (referenceFn) as a
// user constraint — same outcome, same stopping index, same satisfied
// count, and the same posterior floats.

// forceClosure returns c as a user constraint whose Fn is the template's
// reference closure: it evaluates through Fn on every path.
func forceClosure(c Constraint) Constraint {
	c.Fn, c.Spec = referenceFn(c.Spec), KernelSpec{}
	return c
}

// parityWindow builds a deterministic window mixing certain, symmetric,
// and asymmetric points whose values hover around the thresholds used by
// the parity sweep, so the grid lands on all three outcomes.
func parityWindow(r *rng.Rand, n int, off float64) series.Series {
	s := make(series.Series, n)
	for i := range s {
		p := series.Point{T: float64(i), V: off + 8*r.Float64() - 1}
		switch i % 3 {
		case 1:
			sig := r.Float64()
			p.SigUp, p.SigDown = sig, sig
		case 2:
			p.SigUp, p.SigDown = 0.5*r.Float64(), r.Float64()
		}
		s[i] = p
	}
	return s
}

// symWindow builds an all-symmetric uncertain window, the shape the
// batched sequence fast path specializes for.
func symWindow(r *rng.Rand, n int, slope float64) series.Series {
	s := make(series.Series, n)
	for i := range s {
		s[i] = series.Point{T: float64(i), V: slope*float64(i) + r.Float64(), SigUp: 1, SigDown: 1}
	}
	return s
}

func resultsEqual(a, b Result) bool {
	eq := func(x, y float64) bool {
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	}
	return a.Outcome == b.Outcome && a.Samples == b.Samples &&
		a.SatisfiedCount == b.SatisfiedCount &&
		eq(a.ViolationProb, b.ViolationProb) &&
		eq(a.Lower, b.Lower) && eq(a.Upper, b.Upper)
}

func diffResults(a, b Result) string {
	return fmt.Sprintf("kernel = {o=%v n=%d s=%d p=%v ci=[%v,%v]}, closure = {o=%v n=%d s=%d p=%v ci=[%v,%v]}",
		a.Outcome, a.Samples, a.SatisfiedCount, a.ViolationProb, a.Lower, a.Upper,
		b.Outcome, b.Samples, b.SatisfiedCount, b.ViolationProb, b.Lower, b.Upper)
}

// parityConstraints returns every Table IV template with thresholds tuned
// so the sweep windows make them genuinely uncertain.
func parityConstraints() []Constraint {
	return []Constraint{
		Range(0, 6),
		GreaterThan(2),
		NonNegative(),
		FractionInRange(0, 7, 0.6),
		MonotonicIncrease(false),
		MonotonicIncrease(true),
		MaxDelta(7),
		StdNonZero(),
		CountAtLeast(),
		LowerMeanDelta(),
		CorrelationAbove(0.2),
		CorrelationBelow(0.9),
		RSquaredAbove(-2),
		KSDistanceBelow(0.4),
		KLDivergenceBelow(1.5, 8),
	}
}

// TestKernelClosureParity sweeps the decision-schedule parameters that
// shape the block edges — CheckInterval, MinSamples burn-in, bootstrap
// block size — across all templates and window mixes, and requires the
// kernel and closure paths to agree exactly.
func TestKernelClosureParity(t *testing.T) {
	shapes := []struct {
		name string
		mk   func(r *rng.Rand, n int, off float64) series.Series
	}{
		{"mixed", parityWindow},
		{"sym", func(r *rng.Rand, n int, off float64) series.Series { return symWindow(r, n, off/4) }},
	}
	for _, ci := range []int{1, 3, 7} {
		for _, minS := range []int{0, 4, 11} {
			for _, bs := range []int{0, 1, 8, 64} {
				p := Params{CheckInterval: ci, MinSamples: minS, BlockSize: bs, MaxSamples: 40}
				for _, shape := range shapes {
					for seed := uint64(1); seed <= 2; seed++ {
						r := rng.New(seed * 0x9e3779b97f4a7c15)
						wx := shape.mk(r, 20, 1)
						wy := shape.mk(r, 20, 2)
						for _, c := range parityConstraints() {
							w := WindowTuple{Windows: []series.Series{wx}}
							if c.Arity == 2 {
								w.Windows = append(w.Windows, wy)
							}
							rK := rowsAt(t, c, p, seed, w)
							rC := rowsAt(t, forceClosure(c), p, seed, w)
							if !resultsEqual(rK, rC) {
								t.Errorf("ci=%d min=%d bs=%d shape=%s seed=%d %s: %s",
									ci, minS, bs, shape.name, seed, c.Name, diffResults(rK, rC))
							}
						}
					}
				}
			}
		}
	}
}

// TestKernelParityPointwise covers the point-resampling strategy with
// genuinely uncertain single points, where the kernel path replaces the
// per-draw closure calls but the all-certain replay does not apply.
func TestKernelParityPointwise(t *testing.T) {
	points := []series.Point{
		{T: 0, V: 2.5, SigUp: 2, SigDown: 2},
		{T: 0, V: 5.5, SigUp: 1, SigDown: 3},
		{T: 0, V: -0.25, SigUp: 0.5, SigDown: 0.5},
	}
	for _, ci := range []int{1, 3} {
		for _, c := range []Constraint{Range(0, 6), GreaterThan(2), NonNegative()} {
			for i, pt := range points {
				w := WindowTuple{Windows: []series.Series{{pt}}}
				p := Params{CheckInterval: ci, MaxSamples: 60}
				rK := rowsAt(t, c, p, uint64(i+1), w)
				rC := rowsAt(t, forceClosure(c), p, uint64(i+1), w)
				if !resultsEqual(rK, rC) {
					t.Errorf("ci=%d %s point %d: %s", ci, c.Name, i, diffResults(rK, rC))
				}
			}
		}
	}
}

// TestKernelFallbackUnsafeWindow poisons windows so the finiteness proof
// fails — a NaN value, an infinite value, and magnitudes near
// math.MaxFloat64 — and checks both that the row loop falls back (no
// panic, closure semantics) and that the two paths still agree.
func TestKernelFallbackUnsafeWindow(t *testing.T) {
	r := rng.New(7)
	base := symWindow(r, 16, 0.1)
	poison := func(v float64) series.Series {
		w := append(series.Series(nil), base...)
		w[5].V = v
		return w
	}
	windows := []series.Series{
		poison(math.NaN()),
		poison(math.Inf(1)),
		poison(math.MaxFloat64 / 2),
	}
	for i, wx := range windows {
		w := WindowTuple{Windows: []series.Series{wx}}
		c := Range(0, 6)
		rK := rowsAt(t, c, DefaultParams(), 3, w)
		rC := rowsAt(t, forceClosure(c), DefaultParams(), 3, w)
		if !resultsEqual(rK, rC) {
			t.Errorf("poisoned window %d: %s", i, diffResults(rK, rC))
		}
		if i < 2 && rK.Outcome != Violated {
			// Non-finite values must never satisfy a template constraint.
			t.Errorf("poisoned window %d: outcome = %v, want ⊥", i, rK.Outcome)
		}
	}
}

// FuzzKernelClosureParity drives the parity property from fuzzed seeds,
// thresholds, and schedule parameters.
func FuzzKernelClosureParity(f *testing.F) {
	f.Add(uint64(1), 1.0, uint8(1), uint8(0))
	f.Add(uint64(42), 0.3, uint8(3), uint8(7))
	f.Add(uint64(1234567), -2.5, uint8(7), uint8(11))
	f.Fuzz(func(t *testing.T, seed uint64, thresh float64, ciRaw, minRaw uint8) {
		if math.IsNaN(thresh) || math.IsInf(thresh, 0) || math.Abs(thresh) > 1e6 {
			t.Skip()
		}
		p := Params{
			CheckInterval: int(ciRaw%7) + 1,
			MinSamples:    int(minRaw % 13),
			MaxSamples:    30,
		}
		r := rng.New(seed)
		wx := parityWindow(r, 12, thresh/2)
		wy := symWindow(r, 12, 0.2)
		for _, c := range []Constraint{
			Range(-math.Abs(thresh), math.Abs(thresh)),
			GreaterThan(thresh),
			MonotonicIncrease(false),
			CorrelationAbove(math.Mod(thresh, 1)),
			KSDistanceBelow(math.Abs(math.Mod(thresh, 1))),
		} {
			w := WindowTuple{Windows: []series.Series{wx}}
			if c.Arity == 2 {
				w.Windows = append(w.Windows, wy)
			}
			rK := rowsAt(t, c, p, seed, w)
			rC := rowsAt(t, forceClosure(c), p, seed, w)
			if !resultsEqual(rK, rC) {
				t.Errorf("%s: %s", c.Name, diffResults(rK, rC))
			}
		}
	})
}
