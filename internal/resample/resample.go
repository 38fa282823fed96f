// Package resample implements the resampling strategies of SOUND's
// constraint evaluation (paper §IV-B). Resampling is not a performance
// device: it materializes the implicit variability of a window under the
// two modelled data-quality issues so that the constraint function can be
// evaluated on plausible alternative realizations.
//
// Three strategies correspond to the constraint taxonomy:
//
//   - Point: per-point Monte-Carlo perturbation with the asymmetric normal
//     uncertainty model — used for point-wise checks.
//   - Set: i.i.d. bootstrap (sampling points with replacement) layered with
//     the point perturbation — used for window-based set checks, where the
//     bootstrap propagates the sampling uncertainty of sparse windows.
//   - Sequence: block bootstrap with block size b = ⌈√n⌉ — used for
//     window-based sequence checks, preserving short-range ordering
//     within blocks.
//
// For k-ary checks the same random block/point indices are used across all
// k windows so that the series remain aligned (paper §IV-B).
package resample

import (
	"math"

	"sound/internal/rng"
	"sound/internal/series"
	"sound/internal/stat"
)

// Strategy selects how a window is resampled.
type Strategy int

const (
	// Point perturbs each point's value with its uncertainty model.
	Point Strategy = iota
	// Set draws points i.i.d. with replacement, then perturbs values.
	Set
	// Sequence draws contiguous blocks with replacement, then perturbs.
	Sequence
)

func (s Strategy) String() string {
	switch s {
	case Point:
		return "point"
	case Set:
		return "set"
	case Sequence:
		return "sequence"
	}
	return "unknown"
}

// PerturbValue draws one realization of a point's value under the
// asymmetric (split) normal uncertainty model: the value is shifted
// upward by |N(0, σ↑)| with probability σ↑/(σ↑+σ↓) and downward by
// |N(0, σ↓)| otherwise. The branch weighting makes the two half-normal
// pieces join into a continuous split-normal density, so the side with
// the larger standard deviation carries proportionally more probability
// mass — exactly the semantics of an asymmetric error bar (a point just
// above a threshold with a large downward error is *likely* below it,
// paper Fig. 1). A certain point (σ↑ = σ↓ = 0) is returned unaltered.
//
// A symmetric point (σ↑ = σ↓ = σ) short-circuits to v + σ·N(0,1), which
// is the same distribution — a fair branch coin on two mirrored
// half-normals is a plain normal — with one random draw instead of two.
func PerturbValue(p series.Point, r *rng.Rand) float64 {
	if p.Certain() {
		return p.V
	}
	if p.SigUp == p.SigDown {
		return p.V + r.NormFloat64()*p.SigUp
	}
	if r.Float64()*(p.SigUp+p.SigDown) < p.SigUp {
		return p.V + math.Abs(r.NormFloat64())*p.SigUp
	}
	return p.V - math.Abs(r.NormFloat64())*p.SigDown
}

// BlockSize returns the automatic block-bootstrap block size b = ⌈√n⌉
// (paper §IV-B), at least 1.
func BlockSize(n int) int {
	if n <= 1 {
		return 1
	}
	return int(math.Ceil(math.Sqrt(float64(n))))
}

// AutoBlockSize returns a data-driven block size for a sequence window:
// the larger of the ⌈√n⌉ default and the series' decorrelation length
// (the lag at which the sample autocorrelation falls inside the 95%
// white-noise band), clamped to n. Blocks must span the dependence range
// of the data or the bootstrap destroys exactly the structure a sequence
// constraint checks.
func AutoBlockSize(vals []float64) int {
	n := len(vals)
	if n <= 1 {
		return 1
	}
	b := BlockSize(n)
	if d := stat.DecorrelationLength(vals, n/2); d > b {
		b = d
	}
	if b > n {
		b = n
	}
	return b
}

// Resampler draws aligned resamples of k windows. Buffers are reused
// across draws, so the returned slices are only valid until the next call.
// A Resampler is not safe for concurrent use.
type Resampler struct {
	strategy  Strategy
	r         *rng.Rand
	blockSize int          // 0 = automatic b = ⌈√n⌉
	buf       [][]float64  // per-window value buffers, reused
	idx       []int        // shared index buffer for set/sequence draws
	meta      []winMeta    // per-window metadata primed for repeated draws
	own       []Extraction // owned extractions for windows primed from raw points
	norm      []float64    // normal (or coin+normal) scratch for the batched kernels
	starts    []int        // block-start scratch for the sequence bootstrap
	// autoN/autoB memoize the automatic ⌈√n⌉ block size: Alg. 1 redraws
	// the same window length up to MaxSamples times per evaluation, and
	// the sqrt otherwise lands on every sample.
	autoN, autoB int
}

// winMeta binds window slot wi to its SoA extraction view for a run of
// Draw calls, plus the view's class mix (precomputed once so every draw
// dispatches straight to the right kernel). The (ptr, n) pair identifies
// the window slice the metadata was computed from; Draw only trusts it
// for an identical slice, so stale metadata can never be applied to
// different data that happens to occupy a reused buffer.
type winMeta struct {
	ptr                         *series.Point
	n                           int
	view                        View
	hasCertain, hasSym, hasAsym bool
}

// homogeneous reports whether the view holds points of at most one
// perturbation class, so one kernel covers it without run dispatch.
func (m *winMeta) homogeneous() bool {
	return !(m.hasCertain && m.uncertain()) && !(m.hasSym && m.hasAsym)
}

// uncertain reports whether any point of the view consumes randomness.
func (m *winMeta) uncertain() bool { return m.hasSym || m.hasAsym }

// vals, sigUp, sigDown and tags are the window's SoA spans.
func (m *winMeta) vals() []float64    { return m.view.X.Vals[m.view.Lo:m.view.Hi] }
func (m *winMeta) tags() []Class      { return m.view.X.Tags[m.view.Lo:m.view.Hi] }
func (m *winMeta) sigUp() []float64   { return m.view.X.SigUp[m.view.Lo:m.view.Hi] }
func (m *winMeta) sigDown() []float64 { return m.view.X.SigDown[m.view.Lo:m.view.Hi] }

// New returns a Resampler with the given strategy and random source.
func New(strategy Strategy, r *rng.Rand) *Resampler {
	return &Resampler{strategy: strategy, r: r}
}

// Strategy returns the resampling strategy.
func (rs *Resampler) Strategy() Strategy { return rs.strategy }

// SetBlockSize overrides the block-bootstrap block size; 0 restores the
// automatic b = ⌈√n⌉ rule.
func (rs *Resampler) SetBlockSize(b int) {
	if b < 0 {
		b = 0
	}
	rs.blockSize = b
}

// Reseed re-derives the resampler's random stream from parent, leaving
// it exactly as if freshly created with New(strategy, parent.Split())
// while keeping all allocated buffers. It advances parent.
func (rs *Resampler) Reseed(parent *rng.Rand) {
	parent.SplitInto(rs.r)
}

// Prime precomputes per-window metadata for a run of Draw calls over the
// same windows (Alg. 1 draws the same tuple up to N times): certainty
// flags, extracted values, and split-normal branch weights. Priming is
// optional — Draw verifies slice identity and silently falls back to the
// unprimed per-point path when the windows differ — but it turns
// all-certain windows into plain copies and removes a per-point addition
// from every uncertain draw.
func (rs *Resampler) Prime(windows []series.Series) {
	rs.sizeMeta(len(windows))
	for wi, w := range windows {
		rs.primeOwn(wi, w)
	}
}

// PrimeViews primes the resampler from caller-maintained extractions:
// views[wi] is used as the extraction of windows[wi] when it is valid for
// that window's length, skipping the per-window extraction pass
// entirely. Invalid (zero) views fall back to extracting from the raw
// points, so callers can mix shared and unextracted windows freely.
// The caller guarantees a valid view's SoA content matches the window's
// points — stream operators and the violation analyzer maintain that
// invariant incrementally; the (ptr, n) identity guard still protects
// against Draw being handed different windows afterwards.
func (rs *Resampler) PrimeViews(windows []series.Series, views []View) {
	rs.sizeMeta(len(windows))
	for wi, w := range windows {
		if wi < len(views) && views[wi].ValidFor(len(w)) {
			m := &rs.meta[wi]
			m.n = len(w)
			m.ptr = nil
			if len(w) > 0 {
				m.ptr = &w[0]
			}
			m.view = views[wi]
			m.hasCertain, m.hasSym, m.hasAsym = m.view.classes()
			continue
		}
		rs.primeOwn(wi, w)
	}
}

// sizeMeta sizes the metadata slice for k windows.
func (rs *Resampler) sizeMeta(k int) {
	if cap(rs.meta) < k {
		rs.meta = make([]winMeta, k)
	}
	rs.meta = rs.meta[:k]
}

// primeOwn extracts window slot wi into the resampler's own scratch
// extraction, which is reused across Prime calls — an Evaluator walking
// EvaluateAll windows re-extracts into the same buffers every time. The
// owned extractions grow on demand so fully view-primed runs never touch
// them.
func (rs *Resampler) primeOwn(wi int, w series.Series) {
	m := &rs.meta[wi]
	m.n = len(w)
	m.ptr = nil
	if len(w) > 0 {
		m.ptr = &w[0]
	}
	if wi >= len(rs.own) {
		if wi >= cap(rs.own) {
			own := make([]Extraction, wi+1, 2*(wi+1))
			copy(own, rs.own)
			rs.own = own
		}
		rs.own = rs.own[:wi+1]
	}
	x := &rs.own[wi]
	x.Extract(w)
	m.view = x.View()
	m.hasCertain, m.hasSym, m.hasAsym = m.view.classes()
}

// PrimedAllCertain reports whether every window passed to the last Prime
// call is entirely certain — in which case a Point-strategy Draw returns
// the raw values and consumes no randomness, so all draws are identical.
func (rs *Resampler) PrimedAllCertain() bool {
	for i := range rs.meta {
		if rs.meta[i].uncertain() {
			return false
		}
	}
	return true
}

// primed returns the metadata primed for window slot wi iff it describes
// exactly the slice w.
func (rs *Resampler) primed(wi int, w series.Series) *winMeta {
	if wi >= len(rs.meta) {
		return nil
	}
	m := &rs.meta[wi]
	if m.n != len(w) || (len(w) > 0 && m.ptr != &w[0]) {
		return nil
	}
	return m
}

// ForConstraint maps constraint taxonomy traits to the appropriate
// strategy: point-wise checks use Point; windowed set checks use Set;
// windowed sequence checks use Sequence.
func ForConstraint(pointWise, ordered bool) Strategy {
	switch {
	case pointWise:
		return Point
	case ordered:
		return Sequence
	default:
		return Set
	}
}

// Draw produces one aligned resample of the k windows and returns the k
// value sequences. All windows must have equal length for Set and
// Sequence strategies (k-ary alignment requires shared indices); Draw
// falls back to per-window independent sampling when lengths differ,
// which is the defined behaviour for unary checks with k = 1 anyway.
func (rs *Resampler) Draw(windows []series.Series) [][]float64 {
	k := len(windows)
	// The buffer stores are guarded by length checks: Draw runs once per
	// sample on an unchanged window set, so after the first sample every
	// slot already fits and the loop carries no heap pointer writes (and
	// no write barriers) at all.
	if len(rs.buf) != k {
		if cap(rs.buf) < k {
			rs.buf = make([][]float64, k)
		}
		rs.buf = rs.buf[:k]
	}
	for wi, w := range windows {
		if len(rs.buf[wi]) != len(w) {
			rs.buf[wi] = sliceFor(rs.buf[wi], len(w))
		}
	}
	rs.drawSampleInto(windows, rs.buf)
	return rs.buf
}

// drawSampleInto draws one aligned resample of the windows into the
// per-window destination rows (each already sized to its window), sharing
// the per-sample machinery between Draw and DrawBlock. The randomness
// consumed is exactly that of the scalar strategy loops.
func (rs *Resampler) drawSampleInto(windows []series.Series, out [][]float64) {
	switch rs.strategy {
	case Point:
		for wi, w := range windows {
			if m := rs.primed(wi, w); m != nil {
				rs.drawPoint(m, out[wi])
				continue
			}
			buf := out[wi]
			for i, p := range w {
				buf[i] = PerturbValue(p, rs.r)
			}
		}
	case Set:
		rs.drawIndexedInto(windows, out, false)
	case Sequence:
		rs.drawIndexedInto(windows, out, true)
	}
}

// drawPoint perturbs one window through the compiled kernels. The
// sampling semantics per point are exactly PerturbValue's (certain points
// draw nothing); see kernel.go for the bit-parity argument. A
// class-homogeneous window — the common shape, and the only one a
// single-point window can have — goes straight to its class kernel;
// mixed windows dispatch run by run.
func (rs *Resampler) drawPoint(m *winMeta, buf []float64) {
	switch {
	case !m.homogeneous():
		rs.perturbView(m.view, buf)
	case m.hasSym:
		rs.perturbSym(buf, m.vals(), m.sigUp())
	case m.hasAsym:
		rs.perturbSplit(buf, m.vals(), m.sigUp(), m.sigDown())
	default:
		copy(buf, m.vals())
	}
}

// drawIndexedInto samples shared indices per alignment group and
// materializes perturbed values. Windows of the same length share one
// index vector so that k aligned series stay aligned; a window with a
// different length gets its own independent index vector.
func (rs *Resampler) drawIndexedInto(windows []series.Series, out [][]float64, seq bool) {
	// Fast path: all windows share a length (the common case for binary
	// index-aligned checks and all unary checks).
	allSame := true
	for _, w := range windows[1:] {
		if len(w) != len(windows[0]) {
			allSame = false
			break
		}
	}
	if allSame {
		n := len(windows[0])
		if seq && n > 0 {
			rs.drawSeqShared(windows, out, n)
			return
		}
		idx := rs.setIndices(n)
		for wi, w := range windows {
			rs.materialize(wi, w, idx, out[wi])
		}
		return
	}
	for wi, w := range windows {
		var idx []int
		if seq {
			idx = rs.blockIndices(len(w))
		} else {
			idx = rs.setIndices(len(w))
		}
		rs.materialize(wi, w, idx, out[wi])
	}
}

// drawSeqShared draws one aligned block-bootstrap sample for equal-length
// windows. The block starts are drawn once (exactly as blockIndices
// draws them); class-homogeneous windows are then materialized directly
// from the starts — whole blocks are contiguous spans of the extraction,
// so the gather indirection and the expanded index vector disappear —
// and class-mixed or unprimed ones fall back to the expanded-index path.
// Expansion consumes no randomness, so the choice per window cannot
// shift the stream.
func (rs *Resampler) drawSeqShared(windows []series.Series, out [][]float64, n int) {
	b := rs.seqBlockSize(n)
	nb := (n + b - 1) / b
	rs.starts = intsFor(rs.starts, nb)
	rs.r.IntnFill(rs.starts, n-b+1)
	expanded := false
	for wi, w := range windows {
		if m := rs.primed(wi, w); m != nil && m.homogeneous() {
			rs.materializeSeqRuns(m, rs.starts, b, out[wi])
			continue
		}
		if !expanded {
			rs.expandStarts(rs.starts, b, n)
			expanded = true
		}
		rs.materialize(wi, w, rs.idx, out[wi])
	}
}

// materializeSeqRuns fills buf with one block-bootstrap resample of a
// class-homogeneous window, reading each drawn block as a contiguous
// span of the extraction. Stream- and float-identical to expanding the
// starts into indices and gathering: the same source element feeds the
// same output position with the same update, and an uncertain window
// consumes one draw (a normal, or a coin/normal pair) per position in
// position order, exactly like the gather kernel.
func (rs *Resampler) materializeSeqRuns(m *winMeta, starts []int, b int, buf []float64) {
	draws := 0
	if m.uncertain() {
		draws = len(buf)
	}
	coin, z := rs.fill(draws, m.hasAsym)
	m.applyBlocks(buf, starts, b, coin, z, 0)
}

// applyBlocks emits one block-bootstrap realization of a
// class-homogeneous window into out: output block i (positions
// [i·b, min((i+1)·b, len(out)))) reads the source span beginning at
// starts[i], and position p takes draw off+p of the fill.
func (m *winMeta) applyBlocks(out []float64, starts []int, b int, coin, z []float64, off int) {
	vals, up, down := m.vals(), m.sigUp(), m.sigDown()
	pos := 0
	for _, start := range starts {
		end := pos + b
		if end > len(out) {
			end = len(out)
		}
		o := out[pos:end]
		switch {
		case m.hasSym:
			applySym(o, vals[start:], up[start:], z[off+pos:])
		case m.hasAsym:
			applySplit(o, vals[start:], up[start:], down[start:], coin[off+pos:], z[off+pos:])
		default:
			copy(o, vals[start:])
		}
		pos = end
	}
}

// materialize fills buf with perturbed values of w at the given indices,
// taking the compiled-kernel path when metadata is primed.
func (rs *Resampler) materialize(wi int, w series.Series, idx []int, buf []float64) {
	m := rs.primed(wi, w)
	if m == nil {
		for i, j := range idx {
			buf[i] = PerturbValue(w[j], rs.r)
		}
		return
	}
	rs.materializeView(m, idx, buf)
}

// setIndices returns n i.i.d. uniform indices in [0, n), drawn through
// the batched IntnFill (stream-identical to n Intn calls).
func (rs *Resampler) setIndices(n int) []int {
	rs.idx = intsFor(rs.idx, n)
	if n > 0 {
		rs.r.IntnFill(rs.idx, n)
	}
	return rs.idx
}

// seqBlockSize resolves the block-bootstrap block size for an n-point
// window: the explicit override if set, else the memoized automatic
// b = ⌈√n⌉, clamped to n.
func (rs *Resampler) seqBlockSize(n int) int {
	b := rs.blockSize
	if b <= 0 {
		if n != rs.autoN {
			rs.autoN, rs.autoB = n, BlockSize(n)
		}
		b = rs.autoB
	}
	if b > n {
		b = n
	}
	return b
}

// expandStarts expands block start offsets into the full index vector
// rs.idx (block i covering positions [i*b, min((i+1)*b, n))), consuming
// no randomness.
func (rs *Resampler) expandStarts(starts []int, b, n int) {
	rs.idx = intsFor(rs.idx, n)
	pos := 0
	for _, start := range starts {
		end := pos + b
		if end > n {
			end = n
		}
		for ; pos < end; pos++ {
			rs.idx[pos] = start
			start++
		}
	}
}

// blockIndices returns n indices formed by concatenating contiguous
// blocks of size b = ⌈√n⌉ whose start offsets are drawn uniformly with
// replacement (moving-block bootstrap). The final block is truncated to
// length n. All ⌈n/b⌉ start offsets are drawn up front in one batched
// IntnFill; expanding a start into its block consumes no randomness, so
// the stream is identical to the draw-then-expand loop.
func (rs *Resampler) blockIndices(n int) []int {
	rs.idx = intsFor(rs.idx, n)
	if n == 0 {
		return rs.idx
	}
	b := rs.seqBlockSize(n)
	nb := (n + b - 1) / b
	rs.starts = intsFor(rs.starts, nb)
	rs.r.IntnFill(rs.starts, n-b+1)
	rs.expandStarts(rs.starts, b, n)
	return rs.idx
}

// Block holds K consecutive aligned resamples of k windows in dense
// row-major form — the sample matrix the compiled constraint kernels
// consume. Data[wi] packs window wi's K rows back to back (sample s at
// [s*n, (s+1)*n)). It carries no generator snapshots: the block
// evaluators schedule decisions only at block edges (see nextDecision in
// internal/core) and consume every sample they draw, so no block is ever
// abandoned, and the fused draw paths batch an entire block's normals
// through one NormFill.
type Block struct {
	Data [][]float64
	K    int
	ns   []int
	rows [][]float64
}

// Row returns window wi's values for sample s.
func (blk *Block) Row(wi, s int) []float64 {
	n := blk.ns[wi]
	return blk.Data[wi][s*n : (s+1)*n]
}

// DrawBlock draws K consecutive aligned resamples of the windows into
// blk, reusing its buffers. The randomness consumed is exactly that of K
// successive Draw calls — sample s's rows are bit-identical to what the
// s-th Draw would have returned.
func (rs *Resampler) DrawBlock(windows []series.Series, K int, blk *Block) {
	k := len(windows)
	blk.K = K
	blk.ns = intsFor(blk.ns, k)
	if len(blk.Data) != k {
		if cap(blk.Data) < k {
			blk.Data = make([][]float64, k)
		}
		blk.Data = blk.Data[:k]
	}
	if len(blk.rows) != k {
		if cap(blk.rows) < k {
			blk.rows = make([][]float64, k)
		}
		blk.rows = blk.rows[:k]
	}
	for wi, w := range windows {
		n := len(w)
		blk.ns[wi] = n
		if need := K * n; len(blk.Data[wi]) != need {
			blk.Data[wi] = sliceFor(blk.Data[wi], need)
		}
	}
	if rs.strategy == Sequence && rs.drawSeqBlock(windows, K, blk) {
		return
	}
	if rs.strategy == Point && rs.drawPointBlock(windows, K, blk) {
		return
	}
	for s := 0; s < K; s++ {
		for wi := range windows {
			n := blk.ns[wi]
			blk.rows[wi] = blk.Data[wi][s*n : (s+1)*n]
		}
		rs.drawSampleInto(windows, blk.rows)
	}
}

// blockDraws decides whether DrawBlock can fuse the windows' draws: it
// reports false unless every window is primed and class-homogeneous and
// the uncertain windows share one class — a sample whose windows
// alternate normals with coin/normal pairs is a draw-kind sequence no
// single fill reproduces, so those shapes stay on the per-sample loop.
// draws is the number of draws one sample consumes and asym says whether
// they are coin/normal pairs rather than normals.
func (rs *Resampler) blockDraws(windows []series.Series) (draws int, asym, ok bool) {
	sym := false
	for wi, w := range windows {
		m := rs.primed(wi, w)
		if m == nil || !m.homogeneous() {
			return 0, false, false
		}
		if m.uncertain() {
			draws += len(w)
			sym, asym = sym || m.hasSym, asym || m.hasAsym
		}
	}
	return draws, asym, !(sym && asym)
}

// drawSeqBlock is DrawBlock's batched form of drawSeqShared for the
// common case where every window is equal-length and blockDraws accepts
// the set (the run-materialized path of materializeSeqRuns applies to
// all of them). The per-sample dispatch — strategy switch, metadata
// identity checks, block-size derivation, scratch sizing — is hoisted
// out of the K-loop, and the uncertain windows' per-window fills fuse
// into one fill per sample: batching consecutive equal-kind draws into
// one call cannot change the stream, and the draws still land on the
// same windows in the same order, so every emitted value is
// bit-identical to K drawSampleInto calls. It reports false (drawing
// nothing) when any window fails the preconditions, leaving the generic
// per-sample loop to handle the mixed shapes.
func (rs *Resampler) drawSeqBlock(windows []series.Series, K int, blk *Block) bool {
	n := len(windows[0])
	if n == 0 {
		return false
	}
	for _, w := range windows {
		if len(w) != n {
			return false
		}
	}
	draws, asym, ok := rs.blockDraws(windows)
	if !ok {
		return false
	}
	b := rs.seqBlockSize(n)
	nb := (n + b - 1) / b
	rs.starts = intsFor(rs.starts, nb)
	for s := 0; s < K; s++ {
		rs.r.IntnFill(rs.starts, n-b+1)
		coin, z := rs.fill(draws, asym)
		off := 0
		for wi := range windows {
			m := &rs.meta[wi]
			m.applyBlocks(blk.Data[wi][s*n:(s+1)*n], rs.starts, b, coin, z, off)
			if m.uncertain() {
				off += n
			}
		}
	}
	return true
}

// drawPointBlock is DrawBlock's batched form of drawSampleInto for the
// Point strategy when blockDraws accepts the windows. Point draws
// consume no indices, so the whole block's randomness is one draw — a
// normal, or a coin/normal pair — per uncertain position per sample, in
// sample order then window order then position order; fusing all
// K·draws of them into a single fill and hoisting the per-sample
// dispatch — strategy switch, metadata identity checks, scratch sizing —
// out of the K-loop emits a stream bit-identical to K drawSampleInto
// calls. With the fill done the windows are applied one after another,
// window wi's sample s reading its draws at s·draws plus the window's
// offset within a sample; a single-point window — the shape
// point-granularity checks have — turns into one strided pass instead
// of K one-element applies. Reports false (drawing nothing) when
// blockDraws refuses, leaving those shapes to the generic per-sample
// loop.
func (rs *Resampler) drawPointBlock(windows []series.Series, K int, blk *Block) bool {
	draws, asym, ok := rs.blockDraws(windows)
	if !ok {
		return false
	}
	coin, z := rs.fill(K*draws, asym)
	off := 0
	for wi := range windows {
		m := &rs.meta[wi]
		n, vals, out := m.n, m.vals(), blk.Data[wi]
		switch {
		case !m.uncertain():
			for s := 0; s < K; s++ {
				copy(out[s*n:(s+1)*n], vals)
			}
			continue
		case n == 1 && m.hasSym:
			v, sig, z := vals[0], m.sigUp()[0], z[off:]
			for s := range out[:K] {
				out[s] = v + sig*z[s*draws]
			}
		case n == 1:
			v, up, down, coin, z := vals[0], m.sigUp()[0], m.sigDown()[0], coin[off:], z[off:]
			for s := range out[:K] {
				out[s] = v + math.Abs(z[s*draws])*splitStep(coin[s*draws], up, down)
			}
		case m.hasSym:
			sig := m.sigUp()
			for s := 0; s < K; s++ {
				applySym(out[s*n:(s+1)*n], vals, sig, z[off+s*draws:])
			}
		default:
			up, down := m.sigUp(), m.sigDown()
			for s := 0; s < K; s++ {
				d := off + s*draws
				applySplit(out[s*n:(s+1)*n], vals, up, down, coin[d:], z[d:])
			}
		}
		off += n
	}
	return true
}

// WindowSafe reports whether window slot wi (as last primed) is provably
// finite under perturbation — see Extraction.Safe. Consumers use it to
// hoist per-draw finiteness checks out of constraint evaluation.
func (rs *Resampler) WindowSafe(wi int) bool {
	if wi >= len(rs.meta) || rs.meta[wi].view.X == nil {
		return false
	}
	return rs.meta[wi].view.X.Safe()
}

// Blocks splits a window into the subsequent blocks of size b = ⌈√n⌉ used
// by the block bootstrap. The violation-analysis explanation E6 evaluates
// the constraint on each block individually (paper §V-B).
func Blocks(w series.Series) []series.Series {
	n := len(w)
	if n == 0 {
		return nil
	}
	b := BlockSize(n)
	out := make([]series.Series, 0, (n+b-1)/b)
	for i := 0; i < n; i += b {
		end := i + b
		if end > n {
			end = n
		}
		out = append(out, w[i:end])
	}
	return out
}

func sliceFor(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func intsFor(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func tagsFor(buf []Class, n int) []Class {
	if cap(buf) < n {
		return make([]Class, n)
	}
	return buf[:n]
}
