// Package rng provides a small, deterministic pseudo-random number
// generator used throughout SOUND.
//
// All stochastic components of the framework (Monte-Carlo resampling,
// bootstrapping, workload generation) take an explicit *rng.Rand so that
// experiments are reproducible bit-for-bit from a seed. The generator is
// xoshiro256**, seeded through splitmix64, following the reference
// implementations by Blackman and Vigna. It is not cryptographically
// secure; it is fast, has a 2^256-1 period, and passes BigCrush.
package rng

import (
	"math"
	"math/bits"
)

// Rand is a deterministic source of pseudo-random numbers.
// It is not safe for concurrent use; derive independent streams with Split.
type Rand struct {
	s [4]uint64
}

// State is a snapshot of a generator's position in its stream: two
// generators with equal states produce equal draws from then on, which
// is how the stream-exactness tests compare a batched fill with the
// scalar draws it replaces.
type State [4]uint64

// State returns the generator's current stream position.
func (r *Rand) State() State { return State(r.s) }

// New returns a generator seeded from seed via splitmix64, so that nearby
// seeds still produce decorrelated streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Reseed(seed)
	return r
}

// Reseed resets the receiver in place to the state New(seed) would
// produce, without allocating. Pooled consumers (e.g. evaluators reused
// across windows) use it to make results a pure function of the seed
// again after arbitrary prior draws.
func (r *Rand) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Derive maps a base seed and a stream identifier to the seed of a
// statistically independent stream, via one splitmix64 finalization round.
// Unlike Split it is a pure function: callers that evaluate work units in
// arbitrary order (parallel workers, retried units) get the same stream
// for the same (base, stream) pair regardless of how many other units
// were processed before. The violation analyzer keys its per-change-point
// and per-window randomness on this.
func Derive(base, stream uint64) uint64 {
	z := base + (stream+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split returns a new generator whose stream is statistically independent
// of the receiver's. It advances the receiver.
func (r *Rand) Split() *Rand {
	c := &Rand{}
	r.SplitInto(c)
	return c
}

// SplitInto reseeds child from the receiver's stream: child ends up in
// exactly the state r.Split() would have returned, but no allocation
// happens. It advances the receiver.
func (r *Rand) SplitInto(child *Rand) {
	child.Reseed(r.Uint64() ^ 0xa0761d6478bd642f)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// xoshiroNext is the xoshiro256** step over explicit state words. It is
// small enough to inline, which lets batched fill loops (CoinNormFill,
// IntnFill) keep the generator state in registers instead of paying a
// call and four memory round-trips per draw like Uint64 does.
func xoshiroNext(s0, s1, s2, s3 uint64) (u, t0, t1, t2, t3 uint64) {
	u = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = rotl(s3, 45)
	return u, s0, s1, s2, s3
}

// Uint64 returns the next 64 uniformly distributed bits. The rotations
// are spelled as shift-or pairs rather than rotl calls to keep the
// function within the inlining budget: every uniform draw in the system
// funnels through here, so a call frame per draw is measurable.
func (r *Rand) Uint64() uint64 {
	m := r.s[1] * 5
	result := (m<<7 | m>>57) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	x := r.s[3]
	r.s[3] = x<<45 | x>>19
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded sampling.
	un := uint64(n)
	v := r.Uint64()
	hi, lo := mul64(v, un)
	if lo < un {
		threshold := -un % un
		for lo < threshold {
			v = r.Uint64()
			hi, lo = mul64(v, un)
		}
	}
	_ = lo
	return int(hi)
}

// mul64 returns the 128-bit product of x and y as (hi, lo). bits.Mul64
// is an intrinsic on 64-bit targets — a single widening multiply — and
// computes the identical exact product the previous hand-decomposed
// 32x32 form did, so every Lemire bounded draw is unchanged.
func mul64(x, y uint64) (hi, lo uint64) { return bits.Mul64(x, y) }

// Ziggurat tables for NormFloat64 (Marsaglia & Tsang 2000), built at
// init from the unnormalized half-normal density f(x) = exp(-x²/2)
// rather than hard-coded. With znLayers = 128 equal-area layers the
// rightmost layer starts at znR; the layer area znV is derived from znR
// via the exact Gaussian tail integral.
const (
	znLayers = 128
	znR      = 3.442619855899 // x coordinate of the base layer's right edge
)

var (
	znX [znLayers]float64 // slab right edges, decreasing; znX[127] = 0
	znF [znLayers]float64 // f(znX[j]), increasing; znF[127] = 1
	znW [znLayers]float64 // horizontal draw scale per layer index
	// znQuick packs the two quick-accept operands per layer into one
	// 16-byte entry, so the hot path costs a single indexed cache line
	// instead of two table walks. ws pre-folds the 2⁻⁵³ uniform scaling
	// into the draw scale: both factors of u·2⁻⁵³·W are exact powers-of-two
	// scalings away from u·W, so the fold moves no rounding step and
	// x = float64(u>>11) * ws is bit-identical to the two-multiply form.
	znQuick [znLayers]struct{ ws, x float64 }
	// znWedge packs everything one wedge test needs into a single entry:
	// the slab's density bracket (fPrev + fDelta·U forms the test height)
	// and the secant squeeze bounds. Over a layer's wedge interval
	// [znX[L], znX[L-1]) the density is bracketed by two parallel lines:
	// slope·x + lo <= exp(-x²/2) <= slope·x + hi, with lo/hi padded by the
	// maximum measured secant deviation plus a safety margin. The wedge
	// can then accept or reject almost every draw with one multiply-add
	// instead of a math.Exp call; only the sliver between the lines
	// (≲0.1% of wedge tests) falls through to the exact comparison, so
	// the decision is always the one math.Exp makes.
	znWedge [znLayers]struct{ fPrev, fDelta, slope, lo, hi float64 }
	// znSigned extends znQuick to a 256-entry table indexed by the low
	// eight bits of the raw draw (layer in bits 0..6, sign in bit 7) with
	// the sign pre-folded into the draw scale and the accept test moved
	// to the integer domain. x = float64(u>>11) * ws then lands already
	// signed — IEEE multiplication by the negated constant is exact
	// negation, bit for bit, including the -0.0 case — and the quick
	// accept becomes u>>11 < uThresh, where uThresh is the exact integer
	// crossover of the float comparison float64(v)·|ws| < znX[L]
	// (monotone in v, so the crossover is found once at init). The quick
	// path thus runs with no float compare, no sign transplant, and no
	// integer↔float domain crossings beyond the one convert-and-multiply
	// that produces the result itself.
	znSigned [256]struct {
		ws      float64
		uThresh uint64
	}
)

func init() {
	f := func(x float64) float64 { return math.Exp(-0.5 * x * x) }
	// Layer area: base box plus the tail mass beyond znR.
	tail := math.Sqrt(math.Pi/2) * math.Erfc(znR/math.Sqrt2)
	v := znR*f(znR) + tail
	znX[0], znF[0] = znR, f(znR)
	for j := 1; j < znLayers-1; j++ {
		// Equal slab areas: (f[j] − f[j−1]) · x[j−1] = v.
		znF[j] = znF[j-1] + v/znX[j-1]
		znX[j] = math.Sqrt(-2 * math.Log(znF[j]))
	}
	// znR is chosen so the recurrence tops out at the density's maximum.
	znX[znLayers-1], znF[znLayers-1] = 0, 1
	// Layer 0 is the base box plus tail; over-draw its box to width
	// v/f(znR) so a draw beyond znR maps to the tail with the right
	// probability. Layer L ≥ 1 is slab j = L−1: x ∈ [0, x[j]],
	// y ∈ [f[j], f[j+1]].
	znW[0] = v / znF[0]
	for L := 1; L < znLayers; L++ {
		znW[L] = znX[L-1]
	}
	for L := range znQuick {
		znQuick[L].ws = znW[L] * 0x1p-53
		znQuick[L].x = znX[L]
	}
	for b := range znSigned {
		L := b & (znLayers - 1)
		ws, xL := znQuick[L].ws, znQuick[L].x
		// Exact crossover of v ↦ float64(v)·ws < xL over v ∈ [0, 2⁵³]:
		// float64(v) is exact in that range and multiplication by a
		// positive constant is weakly monotone, so binary search on the
		// predicate itself reproduces the float comparison exactly.
		lo, hi := uint64(0), uint64(1)<<53
		for lo < hi {
			mid := lo + (hi-lo)/2
			if float64(mid)*ws < xL {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		znSigned[b].uThresh = lo
		if b&znLayers != 0 {
			ws = -ws
		}
		znSigned[b].ws = ws
	}
	// Build the wedge squeeze lines. The bracket must hold for the values
	// math.Exp actually computes, so the deviation from the secant is
	// measured by sampling math.Exp itself across the interval; the 1e-6
	// pad covers the between-sample drift (bounded by the curvature times
	// the interval width times the sampling step, orders of magnitude
	// smaller) and Exp's own sub-ulp wobble.
	const wedgeSamples = 2048
	const wedgeMargin = 1e-6
	for L := 1; L < znLayers; L++ {
		a, b := znX[L], znX[L-1]
		fa, fb := f(a), f(b)
		slope := (fb - fa) / (b - a)
		c := fa - slope*a
		devLo, devHi := 0.0, 0.0
		for i := 0; i <= wedgeSamples; i++ {
			x := a + (b-a)*float64(i)/wedgeSamples
			d := f(x) - (slope*x + c)
			if -d > devLo {
				devLo = -d
			}
			if d > devHi {
				devHi = d
			}
		}
		znWedge[L].fPrev = znF[L-1]
		znWedge[L].fDelta = znF[L] - znF[L-1]
		znWedge[L].slope = slope
		znWedge[L].lo = c - devLo - wedgeMargin
		znWedge[L].hi = c + devHi + wedgeMargin
	}
}

// signOf extracts the ziggurat sign decision (bit 7 of the raw draw) as
// a float64 sign bit, and applySign stamps it onto a non-negative x.
// OR-ing the sign bit is exact negation for x >= 0 (including -0.0), so
// the result is bit-identical to `if neg { x = -x }` without the
// 50%-taken branch the hardware cannot predict.
func signOf(u uint64) uint64 { return (u & znLayers) << 56 }
func applySign(x float64, s uint64) float64 {
	return math.Float64frombits(math.Float64bits(x) | s)
}

// NormFloat64 returns a standard normal variate using the ziggurat
// method. One uniform draw suffices ~97% of the time, which matters
// because value perturbation calls this once per uncertain point per
// resample (the hottest loop in the system).
//
// The accept test x < znX[L] covers every layer: for L > 0 it is the
// slab-interior test, and znX[0] = znR makes it the base-layer test too,
// so the hot path runs branch-free up to the single accept compare.
func (r *Rand) NormFloat64() float64 {
	// The xoshiro step (Uint64) is expanded by hand: it exceeds the
	// compiler's inlining budget, and this is the hottest call site in
	// the system — one draw per uncertain point per resample.
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	m := s1 * 5
	u := (m<<7 | m>>57) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3<<45|s3>>19
	// Bits 11..63 form the uniform; they do not overlap the 8 bits
	// used below (layer: low 7 bits, sign: bit 7). The sign-folded table
	// keeps the accept test in the integer domain and emits the signed
	// variate with a single multiply; see znSigned.
	e := &znSigned[u&255]
	if u>>11 < e.uThresh {
		return float64(u>>11) * e.ws
	}
	var v float64
	v, s0, s1, s2, s3 = normRare(r.s[0], r.s[1], r.s[2], r.s[3], u, float64(u>>11)*znQuick[u&(znLayers-1)].ws)
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
	return v
}

// uniform converts a raw 64-bit draw to the [0, 1) value Float64 would
// produce from it: same bits, same single rounding.
func uniform(u uint64) float64 { return float64(u>>11) / (1 << 53) }

// normRare finishes a normal draw whose quick-accept test failed: the
// wedge between slab box and density curve, the Marsaglia tail, and any
// full retries they trigger. It is kept out of line — the ~3% of draws
// that land here pay a call, and in exchange the quick path of
// NormFloat64/NormFill carries no math.Exp/math.Log call sites, which
// otherwise force the register allocator to spill the generator state
// and loop carriers across every iteration. The generator state is
// threaded through arguments and results rather than *Rand so the call
// moves no memory: under the register ABI both directions stay in
// registers, and the batched callers keep their state words live.
//
//go:noinline
func normRare(s0, s1, s2, s3, u uint64, x float64) (float64, uint64, uint64, uint64, uint64) {
	for {
		var w uint64
		if L := int(u & (znLayers - 1)); L > 0 {
			// Wedge between the slab box and the curve: squeeze first,
			// exact math.Exp comparison only inside the squeeze sliver.
			// fPrev + fDelta·U is the same two-operation height the
			// unpacked znF form computed (fDelta is the identical
			// subtraction, done once at init).
			w, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
			wd := &znWedge[L]
			t := wd.fPrev + wd.fDelta*uniform(w)
			sx := wd.slope * x
			if t < sx+wd.lo {
				return applySign(x, signOf(u)), s0, s1, s2, s3
			}
			if t < sx+wd.hi && t < math.Exp(-0.5*x*x) {
				return applySign(x, signOf(u)), s0, s1, s2, s3
			}
		} else {
			// Tail beyond znR: Marsaglia's exponential wedge.
			for {
				var w2 uint64
				w, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
				w2, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
				ex := -math.Log(nonZero(uniform(w))) / znR
				ey := -math.Log(nonZero(uniform(w2)))
				if ey+ey >= ex*ex {
					return applySign(znR+ex, signOf(u)), s0, s1, s2, s3
				}
			}
		}
		u, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
		q := &znQuick[u&(znLayers-1)]
		x = float64(u>>11) * q.ws
		if x < q.x {
			return applySign(x, signOf(u)), s0, s1, s2, s3
		}
	}
}

// NormFill fills dst with standard normal variates, consuming the stream
// exactly as len(dst) consecutive NormFloat64 calls would: same draws in
// the same order, bit-identical outputs. The ziggurat is unrolled here
// with the xoshiro state held in locals for the whole loop, so the
// common quick-accept path runs without any function calls or stores to
// r.s — this is the batched form the SoA perturbation kernels use for
// runs of symmetric points.
func (r *Rand) NormFill(dst []float64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	// The loop is unrolled 2x: the xoshiro state recurrence is a serial
	// dependency chain, so halving the per-iteration loop overhead (index
	// bookkeeping plus the compiler's state-register rotation) is the only
	// slack left around it.
	i := 0
	for ; i+1 < len(dst); i += 2 {
		m := s1 * 5
		u := (m<<7 | m>>57) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = s3<<45 | s3>>19
		e := &znSigned[u&255]
		if v := u >> 11; v < e.uThresh {
			// The integer accept test covers every layer (znX[0] = znR)
			// and the sign-folded scale emits the signed variate in one
			// multiply — no float compare, no sign transplant (see
			// znSigned).
			dst[i] = float64(v) * e.ws
		} else {
			// Wedge or tail: the shared out-of-line finisher consumes
			// the stream exactly as the inline wedge/tail used to,
			// threading the state words through registers. Keeping
			// math.Exp and math.Log call sites out of this loop is what
			// lets the quick path run call-free with the state in
			// registers. normRare works on the unsigned |x| of the
			// positive-scale table and stamps the sign on its result.
			dst[i], s0, s1, s2, s3 = normRare(s0, s1, s2, s3, u, float64(v)*znQuick[u&(znLayers-1)].ws)
		}
		m = s1 * 5
		u = (m<<7 | m>>57) * 9
		t = s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = s3<<45 | s3>>19
		e = &znSigned[u&255]
		if v := u >> 11; v < e.uThresh {
			dst[i+1] = float64(v) * e.ws
		} else {
			dst[i+1], s0, s1, s2, s3 = normRare(s0, s1, s2, s3, u, float64(v)*znQuick[u&(znLayers-1)].ws)
		}
	}
	if i < len(dst) {
		m := s1 * 5
		u := (m<<7 | m>>57) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = s3<<45 | s3>>19
		e := &znSigned[u&255]
		if v := u >> 11; v < e.uThresh {
			dst[i] = float64(v) * e.ws
		} else {
			dst[i], s0, s1, s2, s3 = normRare(s0, s1, s2, s3, u, float64(v)*znQuick[u&(znLayers-1)].ws)
		}
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// CoinNormFill fills coin[i], norm[i] with one uniform in [0, 1) and one
// standard normal variate per position, consuming the stream exactly as
// len(coin) alternating Float64, NormFloat64 call pairs would: same draws
// in the same order, bit-identical outputs. This is the draw-kind sequence
// of the split-normal uncertainty model — a branch coin, then a
// half-normal magnitude, per asymmetric point — in NormFill's batched
// form: xoshiro state in locals for the whole loop, the quick-accept path
// call-free, wedge and tail draws through normRare. len(norm) must be at
// least len(coin).
func (r *Rand) CoinNormFill(coin, norm []float64) {
	norm = norm[:len(coin)]
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range coin {
		var u uint64
		u, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
		coin[i] = uniform(u)
		u, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
		e := &znSigned[u&255]
		if v := u >> 11; v < e.uThresh {
			norm[i] = float64(v) * e.ws
		} else {
			norm[i], s0, s1, s2, s3 = normRare(s0, s1, s2, s3, u, float64(v)*znQuick[u&(znLayers-1)].ws)
		}
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// IntnFill fills dst with uniform values in [0, n), consuming the stream
// exactly as len(dst) consecutive Intn(n) calls would. Like NormFill it
// keeps the generator state in locals across the loop; bootstrap index
// generation (set and sequence resampling) draws one bounded integer per
// point per sample, so the per-call overhead is measurable there.
// It panics if n <= 0.
func (r *Rand) IntnFill(dst []int, n int) {
	if n <= 0 {
		panic("rng: IntnFill called with n <= 0")
	}
	un := uint64(n)
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range dst {
		var v uint64
		v, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
		hi, lo := mul64(v, un)
		if lo < un {
			threshold := -un % un
			for lo < threshold {
				v, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
				hi, lo = mul64(v, un)
			}
		}
		dst[i] = int(hi)
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

func nonZero(u float64) float64 {
	if u == 0 {
		return 0.5 // measure-zero guard; any fixed value in (0,1) works
	}
	return u
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}
