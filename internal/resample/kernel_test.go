package resample

import (
	"fmt"
	"math"
	"testing"

	"sound/internal/rng"
	"sound/internal/series"
)

// These tests pin the bit-parity contract of the compiled kernels (see
// the package comment in kernel.go): for identical RNG state, the batched
// per-class kernels draw exactly the sequence the scalar PerturbValue
// path draws — same values, same randomness consumed — for every
// strategy, every point-class mix, and windows primed from a caller's
// extraction. The scalar reference is the unprimed resampler, whose Draw
// falls back to PerturbValue per point (for Point) and per gathered index
// (for Set and Sequence).

// classShapes is the number of point shapes classPoint distinguishes.
const classShapes = 11

// classPoint materializes one point of the requested class shape:
// 0 certain (σ↑ = σ↓ = 0), 1 symmetric (σ↑ = σ↓ ≠ 0), 2 fully
// asymmetric, 3 asymmetric with σ↑ = 0, 4 asymmetric with σ↓ = 0. Shapes
// 5–10 are the hostile asymmetric points, where the branch coin's test
// coin·(σ↑+σ↓) < σ↑ meets a NaN, an infinity or an overflowed sum and
// must fall to the downward side exactly as PerturbValue's comparison
// does: 5 σ↑ = NaN, 6 σ↓ = NaN, 7 σ↑ = +Inf, 8 σ↓ = +Inf, 9 finite σ
// whose sum overflows to +Inf, 10 σ↑ = −Inf against σ↓ = +Inf (a NaN
// sum).
func classPoint(t float64, shape byte, mag float64) series.Point {
	p := series.Point{T: t, V: mag*7 - 3}
	switch shape % classShapes {
	case 1:
		p.SigUp, p.SigDown = mag+0.5, mag+0.5
	case 2:
		p.SigUp, p.SigDown = mag+0.25, 2*mag+1
	case 3:
		p.SigUp, p.SigDown = 0, mag+1
	case 4:
		p.SigUp, p.SigDown = mag+1, 0
	case 5:
		p.SigUp, p.SigDown = math.NaN(), mag+1
	case 6:
		p.SigUp, p.SigDown = mag+1, math.NaN()
	case 7:
		p.SigUp, p.SigDown = math.Inf(1), mag+1
	case 8:
		p.SigUp, p.SigDown = mag+1, math.Inf(1)
	case 9:
		p.SigUp, p.SigDown = math.MaxFloat64, math.MaxFloat64/2
	case 10:
		p.SigUp, p.SigDown = math.Inf(-1), math.Inf(1)
	}
	return p
}

// sameFloat is the parity relation on emitted values: identical bits, or
// both NaN. The split-normal kernel adds |z|·(−σ↓) where PerturbValue
// subtracts |z|·σ↓ — the same value for every operand, but when the
// result is NaN IEEE 754 leaves its sign bit unspecified, and nothing
// downstream can observe it.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// windowFromBytes decodes a fuzz payload into a window: two bytes per
// point (class shape, magnitude).
func windowFromBytes(data []byte) series.Series {
	w := make(series.Series, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		w = append(w, classPoint(float64(i/2), data[i], float64(data[i+1])/16))
	}
	return w
}

// primedPair returns a kernel-primed resampler and the scalar reference —
// an unprimed resampler, which falls back to PerturbValue per point — on
// the same seed.
func primedPair(strat Strategy, seed uint64, windows []series.Series, views []View) (kernel, scalar *Resampler) {
	kernel = New(strat, rng.New(seed))
	scalar = New(strat, rng.New(seed))
	kernel.PrimeViews(windows, views)
	return kernel, scalar
}

// checkSameStream proves two resamplers finished at the same stream
// position: equal generator states, and — the probe any skew in consumed
// randomness would desynchronize — equal draws on a fresh
// uncertainty-heavy window.
func checkSameStream(t *testing.T, what string, kernel, scalar *Resampler) {
	t.Helper()
	if kernel.r.State() != scalar.r.State() {
		t.Fatalf("%s: generator states differ after parity draws", what)
	}
	probe := []series.Series{{
		{T: 0, V: 1, SigUp: 1, SigDown: 3},
		{T: 1, V: 2, SigUp: 2, SigDown: 2},
		{T: 2, V: 3, SigUp: 0.5, SigDown: 0},
	}}
	a, b := kernel.Draw(probe), scalar.Draw(probe)
	for i := range b[0] {
		if a[0][i] != b[0][i] {
			t.Fatalf("%s: RNG state diverged after parity draws (probe point %d: %v vs %v)",
				what, i, a[0][i], b[0][i])
		}
	}
}

// checkDrawParity drives a kernel-primed resampler and a scalar fallback
// resampler from the same seed over the same windows and requires
// identical draws throughout (sameFloat), then proves the RNG states
// finished identical.
func checkDrawParity(t *testing.T, strat Strategy, seed uint64, windows []series.Series, views []View, draws int) {
	t.Helper()
	kernel, scalar := primedPair(strat, seed, windows, views)
	for d := 0; d < draws; d++ {
		got := kernel.Draw(windows)
		want := scalar.Draw(windows)
		for wi := range want {
			if len(got[wi]) != len(want[wi]) {
				t.Fatalf("%v draw %d window %d: len %d, want %d", strat, d, wi, len(got[wi]), len(want[wi]))
			}
			for i := range want[wi] {
				if !sameFloat(got[wi][i], want[wi][i]) {
					t.Fatalf("%v draw %d window %d point %d: kernel %v, scalar %v",
						strat, d, wi, i, got[wi][i], want[wi][i])
				}
			}
		}
	}
	checkSameStream(t, strat.String(), kernel, scalar)
}

// checkBlockParity is checkDrawParity for DrawBlock: each K-sample block
// of the kernel-primed resampler must equal K scalar Draw calls row for
// row, and the two generators must sit in the same state at each block
// boundary.
func checkBlockParity(t *testing.T, strat Strategy, seed uint64, windows []series.Series, views []View, K, blocks int) {
	t.Helper()
	kernel, scalar := primedPair(strat, seed, windows, views)
	var blk Block
	for b := 0; b < blocks; b++ {
		if kernel.r.State() != scalar.r.State() {
			t.Fatalf("%v K=%d block %d: generators differ at the block's start", strat, K, b)
		}
		kernel.DrawBlock(windows, K, &blk)
		for s := 0; s < K; s++ {
			want := scalar.Draw(windows)
			for wi := range want {
				got := blk.Row(wi, s)
				if len(got) != len(want[wi]) {
					t.Fatalf("%v K=%d block %d sample %d window %d: len %d, want %d",
						strat, K, b, s, wi, len(got), len(want[wi]))
				}
				for i := range got {
					if !sameFloat(got[i], want[wi][i]) {
						t.Fatalf("%v K=%d block %d sample %d window %d point %d: kernel %v, scalar %v",
							strat, K, b, s, wi, i, got[i], want[wi][i])
					}
				}
			}
		}
		if kernel.r.State() != scalar.r.State() {
			t.Fatalf("%v K=%d block %d: generators differ at the block's end", strat, K, b)
		}
	}
	checkSameStream(t, fmt.Sprintf("%v K=%d", strat, K), kernel, scalar)
}

// patternWindow builds an n-point window whose point i takes shape
// shapes[(i/run) % len(shapes)] — class runs of the given length.
func patternWindow(n int, shapes []byte, run int) series.Series {
	w := make(series.Series, n)
	for i := range w {
		w[i] = classPoint(float64(i), shapes[(i/run)%len(shapes)], float64((i*7)%64)/16)
	}
	return w
}

// TestKernelScalarParityAsymmetricSweep sweeps the shapes the split-normal
// kernels serve — all-asymmetric windows (fused fills), certain+asymmetric
// (counting-pass gathers, run dispatch) and symmetric+asymmetric (run
// dispatch, scalar mixed gather) — plus the hostile σ of classPoint,
// through every strategy, Draw and DrawBlock at K ∈ {1, 8, 64}, window
// lengths on both sides of every former cutoff, and k ∈ {1, 2} aligned
// windows. The binary tuples pair each mix with a second window of a
// different class, so the fused block paths see same-class tuples,
// certain+uncertain tuples, and the symmetric-next-to-asymmetric tuples
// they must refuse.
func TestKernelScalarParityAsymmetricSweep(t *testing.T) {
	mixes := []struct {
		name          string
		first, second []byte // shape cycles of window 0 and window 1
		run           int
	}{
		{"asym", []byte{2}, []byte{2, 3, 4}, 1},
		{"asym-zero-dirs", []byte{2, 3, 4}, []byte{0}, 1},
		{"asym|sym", []byte{2}, []byte{1}, 1},
		{"certain+asym", []byte{0, 2, 0, 0, 3}, []byte{2}, 1},
		{"certain+asym-runs", []byte{0, 2, 4}, []byte{0, 2}, 3},
		{"sym+asym", []byte{1, 2, 2, 1, 4}, []byte{2, 1}, 1},
		{"sym+asym-runs", []byte{1, 2}, []byte{0, 1, 2}, 3},
		{"hostile", []byte{5, 6, 7, 8, 9, 10}, []byte{2}, 1},
		{"hostile+certain+sym", []byte{0, 5, 1, 9, 6, 0, 8}, []byte{10, 7}, 2},
	}
	seed := uint64(0x5eed)
	for _, mix := range mixes {
		for _, n := range []int{1, 5, 7, 8, 64} {
			for k := 1; k <= 2; k++ {
				windows := []series.Series{patternWindow(n, mix.first, mix.run)}
				if k == 2 {
					windows = append(windows, patternWindow(n, mix.second, mix.run))
				}
				t.Run(fmt.Sprintf("%s/n%d/k%d", mix.name, n, k), func(t *testing.T) {
					for _, strat := range []Strategy{Point, Set, Sequence} {
						seed++
						checkDrawParity(t, strat, seed, windows, nil, 12)
						for _, K := range []int{1, 8, 64} {
							checkBlockParity(t, strat, seed, windows, nil, K, 3)
						}
					}
				})
			}
		}
	}
}

// TestKernelScalarParityRandomized is the property test: random windows
// spanning all class shapes — including σ↑ = σ↓ and σ = 0 points mixed
// in one window — and lengths covering the scalar small-window path, the
// run-dispatched kernels, and the single-point fast path, for all three
// strategies.
func TestKernelScalarParityRandomized(t *testing.T) {
	gen := rng.New(0xC0FFEE)
	for iter := 0; iter < 60; iter++ {
		n := 1 + gen.Intn(40)
		w := make(series.Series, n)
		for i := range w {
			w[i] = classPoint(float64(i), byte(gen.Intn(5)), float64(gen.Intn(64))/16)
		}
		seed := gen.Uint64()
		for _, strat := range []Strategy{Point, Set, Sequence} {
			checkDrawParity(t, strat, seed, []series.Series{w}, nil, 25)
		}
	}
}

// TestKernelScalarParityMixedClasses pins the exact mixes the bit-parity
// argument calls out: certain, symmetric (σ↑ = σ↓), and asymmetric
// points — including zero-σ directions — in one window.
func TestKernelScalarParityMixedClasses(t *testing.T) {
	w := series.Series{
		{T: 0, V: 5},                        // certain (σ = 0)
		{T: 1, V: 10, SigUp: 2, SigDown: 2}, // symmetric σ↑ = σ↓
		{T: 2, V: -3, SigUp: 1, SigDown: 4}, // asymmetric
		{T: 3, V: 7, SigUp: 0, SigDown: 2},  // asymmetric, σ↑ = 0
		{T: 4, V: 1, SigUp: 3, SigDown: 0},  // asymmetric, σ↓ = 0
		{T: 5, V: 0},                        // certain again (new run)
		{T: 6, V: 2, SigUp: 0.5, SigDown: 0.5},
		{T: 7, V: 2, SigUp: 0.5, SigDown: 0.5},
		{T: 8, V: 2, SigUp: 0.5, SigDown: 0.5}, // symmetric run ≥ 3
	}
	for _, strat := range []Strategy{Point, Set, Sequence} {
		checkDrawParity(t, strat, 42, []series.Series{w}, nil, 100)
	}
}

// TestKernelScalarParityViews proves parity holds when the kernels prime
// from a caller's extraction of the window — the path the stream
// operator and the violation analyzer take — for windows at arbitrary
// offsets of a series.
func TestKernelScalarParityViews(t *testing.T) {
	gen := rng.New(7)
	backing := make(series.Series, 64)
	for i := range backing {
		backing[i] = classPoint(float64(i), byte(gen.Intn(5)), float64(gen.Intn(64))/16)
	}
	var x Extraction
	for _, span := range [][2]int{{0, 64}, {3, 4}, {10, 13}, {17, 42}, {63, 64}, {5, 30}} {
		lo, hi := span[0], span[1]
		w := backing[lo:hi]
		x.Extract(w)
		views := []View{x.View()}
		for _, strat := range []Strategy{Point, Set, Sequence} {
			checkDrawParity(t, strat, uint64(lo*100+hi), []series.Series{w}, views, 40)
		}
	}
}

// TestKernelScalarParityKAry covers aligned k-ary draws through views of
// each window's own extraction.
func TestKernelScalarParityKAry(t *testing.T) {
	gen := rng.New(99)
	mk := func() series.Series {
		w := make(series.Series, 24)
		for i := range w {
			w[i] = classPoint(float64(i), byte(gen.Intn(5)), float64(gen.Intn(64))/16)
		}
		return w
	}
	w1, w2 := mk(), mk()
	windows := []series.Series{w1[4:20], w2[8:24]}
	var x1, x2 Extraction
	x1.Extract(windows[0])
	x2.Extract(windows[1])
	views := []View{x1.View(), x2.View()}
	for _, strat := range []Strategy{Point, Set, Sequence} {
		checkDrawParity(t, strat, 1234, windows, views, 40)
	}
}

// FuzzKernelScalarParity fuzzes the parity property directly: any class
// mix the payload encodes — hostile σ included — must draw identically
// through the kernels and the scalar path, for every strategy, sample by
// sample and block by block, alone and aligned with its own mirror image
// (a second window of the same length and, in general, a different class
// order).
func FuzzKernelScalarParity(f *testing.F) {
	f.Add(uint64(1), []byte{0, 8, 1, 8, 2, 8})                               // one point of each class
	f.Add(uint64(2), []byte{1, 16, 1, 16, 1, 16, 1, 16})                     // all symmetric, σ↑ = σ↓
	f.Add(uint64(3), []byte{0, 1, 0, 2, 0, 3})                               // all certain (σ = 0)
	f.Add(uint64(4), []byte{3, 9, 4, 9, 2, 0})                               // all asymmetric, zero-σ directions
	f.Add(uint64(5), []byte{1, 255})                                         // single uncertain point
	f.Add(uint64(6), []byte{2, 7})                                           // single asymmetric point
	f.Add(uint64(7), []byte{2, 1, 2, 2, 2, 3, 2, 4, 2, 5, 2, 6, 2, 7, 2, 8}) // all asymmetric, n = 8
	f.Add(uint64(8), []byte{0, 1, 2, 2, 0, 3, 3, 4, 0, 5})                   // certain + asymmetric
	f.Add(uint64(9), []byte{1, 1, 2, 2, 2, 3, 1, 4, 4, 5})                   // symmetric + asymmetric
	f.Add(uint64(10), []byte{5, 1, 6, 2, 7, 3, 8, 4, 9, 5, 10, 6})           // NaN / ±Inf σ, overflowed σ↑+σ↓
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		w := windowFromBytes(data)
		if len(w) == 0 {
			return
		}
		mirror := make(series.Series, len(w))
		for i, p := range w {
			mirror[len(w)-1-i] = p
		}
		for _, windows := range [][]series.Series{{w}, {w, mirror}} {
			for _, strat := range []Strategy{Point, Set, Sequence} {
				checkDrawParity(t, strat, seed, windows, nil, 8)
				for _, K := range []int{1, 8} {
					checkBlockParity(t, strat, seed, windows, nil, K, 2)
				}
			}
		}
	})
}
