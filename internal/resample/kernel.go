package resample

import (
	"math"
	"slices"
	"sort"

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
// Only a gather over a view that mixes symmetric and asymmetric points
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
// across Extract calls. An Extraction does not alias the source window;
// callers maintaining one incrementally (stream operators) keep it in
// sync with AppendPoint and TrimFront. It is a pure function of the
// points it holds, however it was built.
type Extraction struct {
	Vals    []float64
	SigUp   []float64
	SigDown []float64
	Tags    []Class
	runs    []classRun
	// seen is the class mix of the whole extraction, a bitmask of
	// 1<<Class — kept current by Extract/AppendPoint/TrimFront so
	// whole-extraction views answer classes() without scanning runs.
	seen uint8
	// unsafe holds, ascending, the positions of the points the finiteness
	// proof fails on (unsafePoint), so a view is proven finite from its
	// own points alone — see View.safe.
	unsafe []int
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
	x.unsafe = x.unsafe[:0]
}

// Extract (re)builds the extraction from w, reusing buffers. The loop is
// kept flat (no AppendPoint) because point-wise checks re-extract a
// one-point window per evaluation — prime cost is on the hot path there.
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
		x.unsafe = x.unsafe[:0]
		if unsafePoint(p.V, p.SigUp, p.SigDown) {
			x.unsafe = append(x.unsafe, 0)
		}
		return
	}
	x.Vals = sliceFor(x.Vals, n)
	x.SigUp = sliceFor(x.SigUp, n)
	x.SigDown = sliceFor(x.SigDown, n)
	x.Tags = tagsFor(x.Tags, n)
	x.runs = x.runs[:0]
	x.unsafe = x.unsafe[:0]
	last := Class(0)
	seen := uint8(0)
	for i, p := range w {
		x.Vals[i] = p.V
		x.SigUp[i] = p.SigUp
		x.SigDown[i] = p.SigDown
		t := classify(p)
		x.Tags[i] = t
		seen |= 1 << t
		if unsafePoint(p.V, p.SigUp, p.SigDown) {
			x.unsafe = append(x.unsafe, i)
		}
		if i > 0 && t == last {
			x.runs[len(x.runs)-1].Hi = i + 1
			continue
		}
		x.runs = append(x.runs, classRun{Lo: i, Hi: i + 1, Class: t})
		last = t
	}
	x.seen = seen
}

// ExtendFrom appends the points of w beyond the extraction's current
// length, for callers whose window buffer only grows between fires: after
// appending events to w, ExtendFrom(w) brings the extraction back in
// sync at the cost of the new points only. It is the AppendPoint loop in
// one pass: each array grows once, and runs merge and unsafe positions
// append as the points go in.
func (x *Extraction) ExtendFrom(w series.Series) {
	n := x.Len()
	if len(w) <= n {
		return
	}
	add := w[n:]
	x.Vals = slices.Grow(x.Vals, len(add))[:len(w)]
	x.SigUp = slices.Grow(x.SigUp, len(add))[:len(w)]
	x.SigDown = slices.Grow(x.SigDown, len(add))[:len(w)]
	x.Tags = slices.Grow(x.Tags, len(add))[:len(w)]
	vals, ups, downs, tags := x.Vals[n:], x.SigUp[n:], x.SigDown[n:], x.Tags[n:]
	seen := x.seen
	for i, p := range add {
		t := classify(p)
		vals[i], ups[i], downs[i], tags[i] = p.V, p.SigUp, p.SigDown, t
		seen |= 1 << t
		if unsafePoint(p.V, p.SigUp, p.SigDown) {
			x.unsafe = append(x.unsafe, n+i)
		}
		if m := len(x.runs); m > 0 && x.runs[m-1].Class == t {
			x.runs[m-1].Hi = n + i + 1
		} else {
			x.runs = append(x.runs, classRun{Lo: n + i, Hi: n + i + 1, Class: t})
		}
	}
	x.seen = seen
}

// AppendPoint extends the extraction by one point.
func (x *Extraction) AppendPoint(p series.Point) {
	t := classify(p)
	n := len(x.Vals)
	x.Vals = append(x.Vals, p.V)
	x.SigUp = append(x.SigUp, p.SigUp)
	x.SigDown = append(x.SigDown, p.SigDown)
	x.Tags = append(x.Tags, t)
	x.seen |= 1 << t
	if unsafePoint(p.V, p.SigUp, p.SigDown) {
		x.unsafe = append(x.unsafe, n)
	}
	if m := len(x.runs); m > 0 && x.runs[m-1].Class == t {
		x.runs[m-1].Hi = n + 1
		return
	}
	x.runs = append(x.runs, classRun{Lo: n, Hi: n + 1, Class: t})
}

// TrimFront drops the first n points, copying the arrays down in place so
// previously handed-out Views into the extraction must not be used after
// a trim. Stream operators call it after a fire, when they compact the
// window buffer it mirrors the same way.
func (x *Extraction) TrimFront(n int) {
	if n <= 0 {
		return
	}
	if n >= x.Len() {
		x.Reset()
		return
	}
	m := copy(x.Vals, x.Vals[n:])
	x.Vals = x.Vals[:m]
	copy(x.SigUp, x.SigUp[n:])
	x.SigUp = x.SigUp[:m]
	copy(x.SigDown, x.SigDown[n:])
	x.SigDown = x.SigDown[:m]
	copy(x.Tags, x.Tags[n:])
	x.Tags = x.Tags[:m]
	// Rebuild the run list over the shifted tags; runs are few, and the
	// scan is linear in their count plus the clipped first run.
	runs := x.runs[:0]
	seen := uint8(0)
	for _, r := range x.runs {
		if r.Hi <= n {
			continue
		}
		lo := r.Lo - n
		if lo < 0 {
			lo = 0
		}
		runs = append(runs, classRun{Lo: lo, Hi: r.Hi - n, Class: r.Class})
		seen |= 1 << r.Class
	}
	x.runs = runs
	x.seen = seen
	unsafe := x.unsafe[:0]
	for _, i := range x.unsafe {
		if i >= n {
			unsafe = append(unsafe, i-n)
		}
	}
	x.unsafe = unsafe
}

// View returns a View covering the whole extraction.
func (x *Extraction) View() View { return View{X: x, Lo: 0, Hi: x.Len()} }

// Slice returns a View of the half-open point range [lo, hi) — the
// window-overlap primitive: sliding/count stream windows hand the kernels
// overlapping sub-slices of one shared extraction instead of re-extracting
// each window.
func (x *Extraction) Slice(lo, hi int) View { return View{X: x, Lo: lo, Hi: hi} }

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

// View is a half-open range of an Extraction — one window, possibly a
// sub-slice of a larger shared extraction. The zero View means "no
// extraction available"; consumers fall back to extracting themselves.
type View struct {
	X      *Extraction
	Lo, Hi int
}

// Len returns the number of points in the view.
func (v View) Len() int { return v.Hi - v.Lo }

// ValidFor reports whether the view is usable as the extraction of an
// n-point window: non-nil, in bounds, and of matching length. It cannot
// verify the extracted values match the window's — that is the caller's
// contract when passing shared extractions through WindowTuple.
func (v View) ValidFor(n int) bool {
	return v.X != nil && v.Lo >= 0 && v.Hi-v.Lo == n && v.Hi <= v.X.Len()
}

// classes reports which perturbation classes occur inside the view. A
// whole-extraction view answers from the cached mix; small sub-ranges
// scan their tags directly; larger ones scan the overlapping runs,
// located by binary search so narrow views over a long shared extraction
// (point windows sliding over a series) stay O(log runs), not O(runs).
func (v View) classes() (hasCertain, hasSym, hasAsym bool) {
	x := v.X
	if v.Lo == 0 && v.Hi == x.Len() {
		s := x.seen
		return s&(1<<ClassCertain) != 0, s&(1<<ClassSymmetric) != 0, s&(1<<ClassAsymmetric) != 0
	}
	if v.Len() <= 16 {
		var s uint8
		for _, t := range x.Tags[v.Lo:v.Hi] {
			s |= 1 << t
		}
		return s&(1<<ClassCertain) != 0, s&(1<<ClassSymmetric) != 0, s&(1<<ClassAsymmetric) != 0
	}
	for ri := x.runStart(v.Lo); ri < len(x.runs); ri++ {
		r := x.runs[ri]
		if r.Lo >= v.Hi {
			break
		}
		switch r.Class {
		case ClassCertain:
			hasCertain = true
		case ClassSymmetric:
			hasSym = true
		case ClassAsymmetric:
			hasAsym = true
		}
	}
	return
}

// safe reports whether every point of the view is provably finite under
// perturbation: no unsafe position falls in [Lo, Hi). An extraction
// without unsafe points answers at once; otherwise a binary search finds
// the first unsafe position at or above Lo.
func (v View) safe() bool {
	u := v.X.unsafe
	if len(u) == 0 {
		return true
	}
	i, _ := slices.BinarySearch(u, v.Lo)
	return i == len(u) || u[i] >= v.Hi
}

// runStart returns the index of the first run overlapping point lo (the
// first run with Hi > lo). Runs partition [0, Len) in order, so binary
// search applies.
func (x *Extraction) runStart(lo int) int {
	return sort.Search(len(x.runs), func(i int) bool { return x.runs[i].Hi > lo })
}

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

// perturbView is the point-perturbation kernel: it fills buf with one
// perturbed realization of the view's points, run by run in index order.
// Certain runs are block copies; symmetric runs batch their normals
// through NormFill and asymmetric runs their coin/normal pairs through
// CoinNormFill, each followed by a gather-free apply loop. The RNG
// stream consumed is exactly that of PerturbValue applied point by point.
func (rs *Resampler) perturbView(v View, buf []float64) {
	x := v.X
	for ri := x.runStart(v.Lo); ri < len(x.runs); ri++ {
		run := x.runs[ri]
		if run.Lo >= v.Hi {
			break
		}
		lo, hi := run.Lo, run.Hi
		if lo < v.Lo {
			lo = v.Lo
		}
		if hi > v.Hi {
			hi = v.Hi
		}
		out := buf[lo-v.Lo : hi-v.Lo]
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
// perturbed values of the view's points at the given view-relative
// indices. The class mix of the view (precomputed at prime time) selects
// the kernel: an all-certain view is a pure gather; a view with one
// uncertain class batches all its draws in one fill — NormFill for
// symmetric points, CoinNormFill for asymmetric ones — and when certain
// points are mixed in, the class sequence along idx determines which
// gathered points consume a draw, so a counting pass replaces the
// per-point branch-and-call; views mixing symmetric and asymmetric
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
			for i, j := range idx {
				buf[i] = vals[j] + math.Abs(z[i])*splitStep(coin[i], up[j], down[j])
			}
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

// countUncertain counts the gathered points that consume a draw, in a
// view whose uncertain points all share one class.
func countUncertain(tags []Class, idx []int) int {
	draws := 0
	for _, j := range idx {
		if tags[j] != ClassCertain {
			draws++
		}
	}
	return draws
}
