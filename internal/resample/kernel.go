package resample

import (
	"math"

	"sound/internal/series"
)

// This file holds the compiled window-resampling plan: the SoA extraction
// of a window and the tight per-class kernels Draw runs over it.
//
// Alg. 1 draws up to N resamples of the same window tuple, and the naive
// loop pays for that N times over: per point per sample it re-reads a
// series.Point struct, re-branches on the certain/symmetric/asymmetric
// uncertainty cases, and takes the split-normal's 50/50 branch on a coin
// no predictor can learn. The plan splits that work at its natural
// frequency boundary. Extraction happens once per (window, evaluation):
// values and uncertainties are copied into flat float64 slices, each
// point is tagged with its perturbation class, and maximal
// class-homogeneous runs are recorded. Sampling happens N times over the
// extraction: per-class kernels process whole runs with no struct traffic
// and no per-point class branch. Symmetric runs draw their normals
// through rng.NormFill and asymmetric runs their coin/normal pairs
// through rng.CoinNormFill, both of which keep the generator state in
// registers for the whole run; the apply passes that follow are
// branch-free.
//
// Bit-parity argument. PerturbValue consumes randomness per point as a
// pure function of the point's class: a certain point draws nothing, a
// symmetric point draws exactly one NormFloat64, an asymmetric point
// draws one Float64 (the branch coin) then one NormFloat64 (the
// half-normal). The kernels process points in exactly the order the
// scalar loop visits them — runs are contiguous and iterated in index
// order, gathers follow the index vector — so the sequence of draw
// *kinds* presented to the RNG is identical: normal, normal, … along a
// symmetric run; coin, normal, coin, normal, … along an asymmetric one.
// NormFill, CoinNormFill and IntnFill are stream-exact batched forms of
// exactly those call sequences (pinned by the stream-exactness table in
// internal/rng). Each emitted value is computed with the same floating
// point operations on the same operands as the scalar path, with two
// rewrites in the split-normal apply that change no bit (see splitStep
// and applySplit): the downward step v − |z|·σ↓ is evaluated as
// v + |z|·(−σ↓), which IEEE 754 defines to be the same operation
// (negation is exact, multiplication rounds sign-symmetrically,
// x − y ≡ x + (−y)); and the side is picked by selecting between the bit
// patterns of σ↑ and −σ↓ (σ↓ with its sign bit flipped) on the outcome
// of PerturbValue's own comparison coin·(σ↑+σ↓) < σ↑, so NaN and
// overflowed operands fall to the downward side exactly as the scalar
// else-branch does. Hence every resample, and everything downstream of
// it, is bit-identical; the one unobservable exception is the sign bit
// of a NaN result, which a NaN σ↓ can flip.
//
// Only a gather over a window that mixes symmetric and asymmetric points
// keeps a per-point loop (materializeView): its draw kinds interleave in
// a data-dependent order no single fill reproduces. There is no
// window-size cutoff. Measured per Draw on single-class windows against
// the per-point loop an 8-point cutoff used to select, the fills win
// from three points on (5 points: 25 → 20 ns symmetric, 52 → 35 ns
// asymmetric) and cost about 3 ns at one point, a shape production
// evaluation draws through DrawBlock's strided pass instead. The one
// shape the cutoff still served is a class-alternating window under
// eight points, every run a single point: run dispatch costs it about
// 20 ns per draw at five points (26 → 47 ns).

// Class tags a point's perturbation class, which fully determines how
// much randomness resampling the point consumes (see PerturbValue).
type Class uint8

const (
	// ClassCertain marks σ↑ = σ↓ = 0: the value is emitted unperturbed
	// and no randomness is consumed.
	ClassCertain Class = iota
	// ClassSymmetric marks σ↑ = σ↓ ≠ 0: one N(0,1) draw per resample.
	ClassSymmetric
	// ClassAsymmetric marks σ↑ ≠ σ↓: one uniform (branch coin) and one
	// N(0,1) draw per resample, in that order.
	ClassAsymmetric
)

// classRun is a maximal run [Lo, Hi) of equally-tagged points.
type classRun struct {
	Lo, Hi int
	Class  Class
}

// Extraction is the SoA form of one window: parallel flat slices of
// values, directional uncertainties, and per-point class tags, plus the
// maximal class-homogeneous runs the kernels iterate. Buffers are reused
// across Extract calls. An Extraction does not alias the source window:
// it is a pure function of the points of the one window it was last
// extracted from.
type Extraction struct {
	Vals    []float64
	SigUp   []float64
	SigDown []float64
	Tags    []Class
	runs    []classRun
	// seen is the class mix of the window, a bitmask of 1<<Class, so
	// priming answers classes() without scanning runs.
	seen uint8
	// unsafe records whether any point fails the finiteness proof
	// (unsafePoint), so the window is proven finite from its own points
	// alone — see safe.
	unsafe bool
}

// safeLimit bounds a point's magnitudes: while |v|/16 + (|σ↑|+|σ↓|)
// stays at or below MaxFloat64/16, |v| + 16(σ↑+σ↓) is finite.
const safeLimit = math.MaxFloat64 / 16

// unsafePoint reports whether a point's perturbed value cannot be proven
// finite: the proof needs the value and uncertainties finite (a NaN
// fails the comparison) and no perturbed value |v| + σ·|z| able to
// overflow to ±Inf — the ziggurat's largest possible |z| is
// znR + 53·ln2/znR < 16, so |v| + 16(σ↑+σ↓) finite is sufficient. The
// test is conservative (an unsafe point is only unprovable); consumers
// that hoist per-draw finiteness checks out of their inner loops fall
// back to the checking path for a window holding one.
func unsafePoint(v, up, down float64) bool {
	return !(math.Abs(v)*0x1p-4+(math.Abs(up)+math.Abs(down)) <= safeLimit)
}

// Len returns the number of extracted points.
func (x *Extraction) Len() int { return len(x.Vals) }

// Reset empties the extraction, keeping capacity.
func (x *Extraction) Reset() {
	x.Vals = x.Vals[:0]
	x.SigUp = x.SigUp[:0]
	x.SigDown = x.SigDown[:0]
	x.Tags = x.Tags[:0]
	x.runs = x.runs[:0]
	x.seen = 0
	x.unsafe = false
}

// Extract (re)builds the extraction from w, reusing buffers. Point-wise
// checks re-extract a one-point window per evaluation — prime cost is on
// the hot path there — so that shape skips the general loop.
func (x *Extraction) Extract(w series.Series) {
	n := len(w)
	if n == 1 && cap(x.Vals) >= 1 && cap(x.SigUp) >= 1 && cap(x.SigDown) >= 1 &&
		cap(x.Tags) >= 1 && cap(x.runs) >= 1 {
		// Point-wise extraction with warm buffers: one point per prime,
		// every evaluation — worth skipping the general resize/run
		// bookkeeping entirely.
		p := w[0]
		x.Vals = x.Vals[:1]
		x.SigUp = x.SigUp[:1]
		x.SigDown = x.SigDown[:1]
		x.Tags = x.Tags[:1]
		x.runs = x.runs[:1]
		x.Vals[0] = p.V
		x.SigUp[0] = p.SigUp
		x.SigDown[0] = p.SigDown
		t := classify(p)
		x.Tags[0] = t
		x.runs[0] = classRun{Lo: 0, Hi: 1, Class: t}
		x.seen = 1 << t
		x.unsafe = unsafePoint(p.V, p.SigUp, p.SigDown)
		return
	}
	x.Vals = sliceFor(x.Vals, n)
	x.SigUp = sliceFor(x.SigUp, n)
	x.SigDown = sliceFor(x.SigDown, n)
	x.Tags = tagsFor(x.Tags, n)
	x.runs = x.runs[:0]
	last := Class(0)
	seen, unsafe := uint8(0), false
	for i, p := range w {
		x.Vals[i] = p.V
		x.SigUp[i] = p.SigUp
		x.SigDown[i] = p.SigDown
		t := classify(p)
		x.Tags[i] = t
		seen |= 1 << t
		unsafe = unsafe || unsafePoint(p.V, p.SigUp, p.SigDown)
		if i > 0 && t == last {
			x.runs[len(x.runs)-1].Hi = i + 1
			continue
		}
		x.runs = append(x.runs, classRun{Lo: i, Hi: i + 1, Class: t})
		last = t
	}
	x.seen, x.unsafe = seen, unsafe
}

// View returns a View of the extraction.
func (x *Extraction) View() View { return View{X: x} }

// classify maps a point to its perturbation class with exactly the branch
// structure of PerturbValue, so class tags and the scalar path can never
// disagree on how much randomness a point consumes.
func classify(p series.Point) Class {
	if p.Certain() {
		return ClassCertain
	}
	if p.SigUp == p.SigDown {
		return ClassSymmetric
	}
	return ClassAsymmetric
}

// classes reports which perturbation classes occur in the extraction.
func (x *Extraction) classes() (hasCertain, hasSym, hasAsym bool) {
	s := x.seen
	return s&(1<<ClassCertain) != 0, s&(1<<ClassSymmetric) != 0, s&(1<<ClassAsymmetric) != 0
}

// safe reports whether every point of the extraction is provably finite
// under perturbation.
func (x *Extraction) safe() bool { return !x.unsafe }

// View is one window's extraction, handed beside the window so an
// evaluation primes from it instead of extracting again. The zero View
// means "no extraction available"; consumers fall back to extracting
// themselves.
type View struct {
	X *Extraction
}

// Len returns the number of points in the view.
func (v View) Len() int { return v.X.Len() }

// ValidFor reports whether the view is usable as the extraction of an
// n-point window: non-nil and of matching length. It cannot verify the
// extracted values match the window's — that is the caller's contract
// when passing extractions through WindowTuple.
func (v View) ValidFor(n int) bool { return v.X != nil && v.X.Len() == n }

// fill draws n standard normals into the resampler's scratch, or — when
// asym is set — n coin/normal pairs into its two halves. Filling zero
// draws consumes nothing.
func (rs *Resampler) fill(n int, asym bool) (coin, z []float64) {
	if asym {
		rs.norm = sliceFor(rs.norm, 2*n)
		coin, z = rs.norm[:n], rs.norm[n:]
		rs.r.CoinNormFill(coin, z)
		return coin, z
	}
	rs.norm = sliceFor(rs.norm, n)
	rs.r.NormFill(rs.norm)
	return nil, rs.norm
}

// applySym emits out[i] = vals[i] + sig[i]·z[i], the symmetric
// perturbation of PerturbValue, over equal-length spans.
func applySym(out, vals, sig, z []float64) {
	vals, sig, z = vals[:len(out)], sig[:len(out)], z[:len(out)]
	for i := range out {
		out[i] = vals[i] + sig[i]*z[i]
	}
}

// splitStep returns the signed scale of one split-normal draw: σ↑ when
// the branch coin lands on the upward half — coin·(σ↑+σ↓) < σ↑, the
// operands and roundings of PerturbValue's test — and −σ↓ otherwise.
// The select runs on the bit patterns (−σ↓ is σ↓ with its sign bit
// flipped, exact for every float including ±0, ±Inf and NaN), which the
// compiler lowers to a conditional move on the comparison's flags —
// given both patterns in hand before the test, hence upBits — so the
// 50/50 coin costs no branch misprediction. A NaN or overflowed
// product compares false and selects −σ↓, exactly as PerturbValue's
// else-branch does.
func splitStep(coin, up, down float64) float64 {
	upBits := math.Float64bits(up)
	step := math.Float64bits(down) ^ (1 << 63)
	if coin*(up+down) < up {
		step = upBits
	}
	return math.Float64frombits(step)
}

// applySplit emits the split-normal perturbation over equal-length
// spans: out[i] = vals[i] + |z[i]|·splitStep. With the upward step that
// is PerturbValue's v + |z|·σ↑ verbatim; with the downward step,
// |z|·(−σ↓) is the exact negation of |z|·σ↓ (IEEE multiplication rounds
// sign-symmetrically) and x + (−y) is x − y by definition, so the
// result is PerturbValue's v − |z|·σ↓ bit for bit.
func applySplit(out, vals, up, down, coin, z []float64) {
	n := len(out)
	vals, up, down, coin, z = vals[:n], up[:n], down[:n], coin[:n], z[:n]
	for i := range out {
		out[i] = vals[i] + math.Abs(z[i])*splitStep(coin[i], up[i], down[i])
	}
}

// perturbSym fills out with one realization of an all-symmetric span:
// one batched NormFill, one fused apply pass.
func (rs *Resampler) perturbSym(out, vals, sig []float64) {
	_, z := rs.fill(len(out), false)
	applySym(out, vals, sig, z)
}

// perturbSplit fills out with one realization of an all-asymmetric span:
// one batched CoinNormFill — coin then normal per point, the order
// PerturbValue draws them in — and one branch-free apply pass.
func (rs *Resampler) perturbSplit(out, vals, up, down []float64) {
	coin, z := rs.fill(len(out), true)
	applySplit(out, vals, up, down, coin, z)
}

// perturbRuns is the point-perturbation kernel: it fills buf with one
// perturbed realization of the extraction's points, run by run in index
// order. Certain runs are block copies; symmetric runs batch their
// normals through NormFill and asymmetric runs their coin/normal pairs
// through CoinNormFill, each followed by a gather-free apply loop. The
// RNG stream consumed is exactly that of PerturbValue applied point by
// point.
func (rs *Resampler) perturbRuns(x *Extraction, buf []float64) {
	for _, run := range x.runs {
		lo, hi := run.Lo, run.Hi
		out := buf[lo:hi]
		switch run.Class {
		case ClassCertain:
			copy(out, x.Vals[lo:hi])
		case ClassSymmetric:
			rs.perturbSym(out, x.Vals[lo:hi], x.SigUp[lo:hi])
		case ClassAsymmetric:
			rs.perturbSplit(out, x.Vals[lo:hi], x.SigUp[lo:hi], x.SigDown[lo:hi])
		}
	}
}

// materializeView is the bootstrap-gather kernel: it fills buf with the
// perturbed values of the window's points at the given indices. The
// class mix of the window (precomputed at prime time) selects the
// kernel: an all-certain window is a pure gather; a window with one
// uncertain class batches all its draws in one fill — NormFill for
// symmetric points, CoinNormFill for asymmetric ones — and when certain
// points are mixed in, the class sequence along idx determines which
// gathered points consume a draw, so a counting pass replaces the
// per-point branch-and-call; windows mixing symmetric and asymmetric
// points interleave two draw kinds no single fill reproduces and run
// the scalar tag switch, which still beats the struct path by reading
// flat arrays.
func (rs *Resampler) materializeView(m *winMeta, idx []int, buf []float64) {
	vals := m.vals()
	switch {
	case !m.uncertain():
		for i, j := range idx {
			buf[i] = vals[j]
		}
	case !m.hasAsym:
		sig := m.sigUp()
		if !m.hasCertain {
			// All symmetric: every gathered point consumes one normal.
			_, z := rs.fill(len(idx), false)
			for i, j := range idx {
				buf[i] = vals[j] + sig[j]*z[i]
			}
			return
		}
		tags := m.tags()
		_, z := rs.fill(countUncertain(tags, idx), false)
		zi := 0
		for i, j := range idx {
			if tags[j] == ClassSymmetric {
				buf[i] = vals[j] + sig[j]*z[zi]
				zi++
			} else {
				buf[i] = vals[j]
			}
		}
	case !m.hasSym:
		up, down := m.sigUp(), m.sigDown()
		if !m.hasCertain {
			// All asymmetric: every gathered point consumes one pair.
			coin, z := rs.fill(len(idx), true)
			gatherSplit(buf, idx, vals, up, down, coin, z)
			return
		}
		tags := m.tags()
		coin, z := rs.fill(countUncertain(tags, idx), true)
		zi := 0
		for i, j := range idx {
			if tags[j] == ClassAsymmetric {
				buf[i] = vals[j] + math.Abs(z[zi])*splitStep(coin[zi], up[j], down[j])
				zi++
			} else {
				buf[i] = vals[j]
			}
		}
	default:
		r := rs.r
		tags, up, down := m.tags(), m.sigUp(), m.sigDown()
		for i, j := range idx {
			switch tags[j] {
			case ClassCertain:
				buf[i] = vals[j]
			case ClassSymmetric:
				buf[i] = vals[j] + up[j]*r.NormFloat64()
			default:
				coin := r.Float64()
				buf[i] = vals[j] + math.Abs(r.NormFloat64())*splitStep(coin, up[j], down[j])
			}
		}
	}
}

// gatherSplit emits the split-normal perturbation of the points at idx:
// buf[i] = vals[j] + |z[i]|·splitStep(coin[i], up[j], down[j]) for
// j = idx[i], the arithmetic of applySplit. It is a function of its own
// so the loop gets the registers to itself: written inside
// materializeView, the compiler spilled several of its operands to the
// stack and reloaded them on every point.
func gatherSplit(buf []float64, idx []int, vals, up, down, coin, z []float64) {
	buf, coin, z = buf[:len(idx)], coin[:len(idx)], z[:len(idx)]
	for i, j := range idx {
		buf[i] = vals[j] + math.Abs(z[i])*splitStep(coin[i], up[j], down[j])
	}
}

// countUncertain counts the gathered points that consume a draw, in a
// window whose uncertain points all share one class.
func countUncertain(tags []Class, idx []int) int {
	draws := 0
	for _, j := range idx {
		if tags[j] != ClassCertain {
			draws++
		}
	}
	return draws
}
