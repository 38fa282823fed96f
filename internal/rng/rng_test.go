package rng

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDecorrelated(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("nearby seeds produced %d identical outputs", same)
	}
}

func TestDerivePureAndDistinct(t *testing.T) {
	// Pure: same (base, stream) → same seed, independent of call order.
	if Derive(42, 7) != Derive(42, 7) {
		t.Fatal("Derive is not a pure function")
	}
	// Distinct: nearby bases and streams map to decorrelated seeds, and
	// the derived streams themselves do not collide.
	seen := map[uint64]bool{}
	for base := uint64(0); base < 10; base++ {
		for stream := uint64(0); stream < 100; stream++ {
			s := Derive(base, stream)
			if seen[s] {
				t.Fatalf("collision at base=%d stream=%d", base, stream)
			}
			seen[s] = true
		}
	}
	// Streams derived from adjacent ids are decorrelated.
	a, b := New(Derive(1, 0)), New(Derive(1, 1))
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent derived streams share %d outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	r := New(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d too far from %v", i, c, want)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(17)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("negative exponential variate %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("exponential mean = %v, want ~1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(19)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(23)
	child := parent.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams matched %d times", same)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(37)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %v", p)
	}
}

func TestMul64MatchesBigMultiplication(t *testing.T) {
	f := func(x, y uint64) bool {
		hi, lo := mul64(x, y)
		// Verify via decomposition: (hi<<64 + lo) mod 2^64 == x*y mod 2^64
		if lo != x*y {
			return false
		}
		// Check hi against float approximation for magnitude sanity.
		approx := float64(x) * float64(y) / math.Pow(2, 64)
		return math.Abs(float64(hi)-approx) <= approx*1e-9+2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFillsMatchSequentialDraws is the stream-exactness table: every
// batched fill must consume the stream exactly like the scalar call
// sequence it stands for — identical outputs bit for bit AND identical
// State() afterwards, so interleaving batched and scalar draws cannot
// diverge. Each row renders its outputs as raw bits so one loop compares
// floats and ints alike. Many seeds and lengths (empty, one, two, odd,
// long) so the rejection paths — ziggurat wedge and tail, Lemire's
// resample loop — are exercised mid-fill, not just quick-accept;
// TestCoinNormFillRarePathsMidFill proves that for the ziggurat.
func TestFillsMatchSequentialDraws(t *testing.T) {
	intnRow := func(n int) fillRow {
		return fillRow{
			name: fmt.Sprintf("IntnFill/%d", n),
			fill: func(r *Rand, k int) []uint64 {
				dst := make([]int, k)
				r.IntnFill(dst, n)
				out := make([]uint64, k)
				for i, v := range dst {
					out[i] = uint64(v)
				}
				return out
			},
			scalar: func(r *Rand, k int) []uint64 {
				out := make([]uint64, k)
				for i := range out {
					out[i] = uint64(r.Intn(n))
				}
				return out
			},
		}
	}
	rows := []fillRow{
		{
			name: "NormFill",
			fill: func(r *Rand, k int) []uint64 {
				dst := make([]float64, k)
				r.NormFill(dst)
				return floatBits(dst)
			},
			scalar: func(r *Rand, k int) []uint64 {
				out := make([]uint64, k)
				for i := range out {
					out[i] = math.Float64bits(r.NormFloat64())
				}
				return out
			},
		},
		{
			// Pairs are rendered coin-then-normal, the order the scalar
			// calls are made in.
			name: "CoinNormFill",
			fill: func(r *Rand, k int) []uint64 {
				coin, norm := make([]float64, k), make([]float64, k)
				r.CoinNormFill(coin, norm)
				out := make([]uint64, 0, 2*k)
				for i := range coin {
					out = append(out, math.Float64bits(coin[i]), math.Float64bits(norm[i]))
				}
				return out
			},
			scalar: func(r *Rand, k int) []uint64 {
				out := make([]uint64, 0, 2*k)
				for i := 0; i < k; i++ {
					out = append(out, math.Float64bits(r.Float64()))
					out = append(out, math.Float64bits(r.NormFloat64()))
				}
				return out
			},
		},
		// Small and non-power-of-two bounds exercise Lemire's rejection
		// loop.
		intnRow(1), intnRow(2), intnRow(3), intnRow(7), intnRow(100), intnRow(1 << 20),
	}
	for _, row := range rows {
		for seed := uint64(0); seed < 50; seed++ {
			for _, k := range []int{0, 1, 2, 7, 64, 257, 1000, 4096} {
				a, b := New(seed), New(seed)
				got, want := row.fill(a, k), row.scalar(b, k)
				if len(got) != len(want) {
					t.Fatalf("%s seed %d k %d: %d outputs, want %d", row.name, seed, k, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s seed %d k %d: output %d = %#x, scalar sequence = %#x",
							row.name, seed, k, i, got[i], want[i])
					}
				}
				if a.State() != b.State() {
					t.Fatalf("%s seed %d k %d: generator state diverged after fill", row.name, seed, k)
				}
			}
		}
	}
}

// fillRow is one batched fill and the scalar call sequence it must
// reproduce, both rendering k draws (k pairs for CoinNormFill) as raw
// bits.
type fillRow struct {
	name         string
	fill, scalar func(r *Rand, k int) []uint64
}

func floatBits(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

// TestCoinNormFillRarePathsMidFill pins CoinNormFill on stream positions
// that force normRare in the middle of a fill. The scalar sequence is
// scanned for normals that left the quick-accept path (they consumed more
// than one raw draw): wedge draws, and tail draws (|z| > znR). For each,
// a fill that starts `half` pairs earlier — so the rare draw has filled
// pairs on both sides — must reproduce the scalar outputs and final
// state.
func TestCoinNormFillRarePathsMidFill(t *testing.T) {
	const half = 4
	var ring [half + 1]State // ring[p%(half+1)] is the state before pair p
	coin, norm := make([]float64, 2*half+1), make([]float64, 2*half+1)
	scan := New(3)
	wedge, tail := 0, 0
	for pos := 0; wedge < 50 || tail < 5; pos++ {
		if pos > 1<<22 {
			t.Fatalf("scan found %d wedge and %d tail draws in %d pairs", wedge, tail, pos)
		}
		ring[pos%(half+1)] = scan.State()
		scan.Float64()
		quick := *scan
		quick.Uint64()
		z := scan.NormFloat64()
		if scan.State() == quick.State() || pos < half {
			continue
		}
		if math.Abs(z) > znR {
			tail++
		} else {
			wedge++
		}
		a := &Rand{s: ring[(pos-half)%(half+1)]}
		b := &Rand{s: a.s}
		a.CoinNormFill(coin, norm)
		for i := range coin {
			wc, wn := b.Float64(), b.NormFloat64()
			if coin[i] != wc || norm[i] != wn {
				t.Fatalf("pair %d (rare draw at pair %d): fill (%v, %v), scalar (%v, %v)",
					pos-half+i, pos, coin[i], norm[i], wc, wn)
			}
		}
		if a.State() != b.State() {
			t.Fatalf("state diverged after a fill spanning rare pair %d", pos)
		}
	}
}

func TestNormFillHitsTail(t *testing.T) {
	// Sanity: a long fill actually produces variates beyond the base
	// layer edge, proving the unrolled tail path runs.
	r := New(99)
	dst := make([]float64, 200000)
	r.NormFill(dst)
	for _, x := range dst {
		if math.Abs(x) > znR {
			return
		}
	}
	t.Fatalf("no tail variate beyond %v in %d draws", znR, len(dst))
}

// refNormFloat64 is the reference ziggurat: the quick test plus the
// textbook wedge comparison against math.Exp directly and Marsaglia's
// tail, with no squeeze bounds. The production path must make bit-for-bit
// identical decisions, so the secant squeeze in normRare is pinned
// against this on every seed.
func refNormFloat64(r *Rand) float64 {
	u := r.Uint64()
	for {
		L := int(u & (znLayers - 1))
		x := float64(u>>11) * znQuick[L].ws
		if x < znX[L] {
			return applySign(x, signOf(u))
		}
		if L > 0 {
			if znF[L-1]+(znF[L]-znF[L-1])*r.Float64() < math.Exp(-0.5*x*x) {
				return applySign(x, signOf(u))
			}
		} else {
			for {
				ex := -math.Log(nonZero(r.Float64())) / znR
				ey := -math.Log(nonZero(r.Float64()))
				if ey+ey >= ex*ex {
					return applySign(znR+ex, signOf(u))
				}
			}
		}
		u = r.Uint64()
	}
}

func TestNormSqueezeMatchesExactWedge(t *testing.T) {
	// Enough draws that the wedge fires thousands of times per seed; a
	// single squeeze bound that clips the density would flip a decision
	// and desynchronize the streams immediately.
	for seed := uint64(0); seed < 8; seed++ {
		a, b := New(seed), New(seed)
		for i := 0; i < 500000; i++ {
			got, want := a.NormFloat64(), refNormFloat64(b)
			if got != want {
				t.Fatalf("seed %d draw %d: NormFloat64 = %v, reference = %v", seed, i, got, want)
			}
		}
		if a.s != b.s {
			t.Fatalf("seed %d: state diverged from reference", seed)
		}
	}
}

func TestIntnFillPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IntnFill(dst, 0) did not panic")
		}
	}()
	New(1).IntnFill(make([]int, 4), 0)
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}

func BenchmarkNormFill(b *testing.B) {
	r := New(1)
	dst := make([]float64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.NormFill(dst)
	}
	b.SetBytes(0)
}

func BenchmarkCoinNormFill(b *testing.B) {
	r := New(1)
	coin, norm := make([]float64, 64), make([]float64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.CoinNormFill(coin, norm)
	}
}

func BenchmarkIntnFill(b *testing.B) {
	r := New(1)
	dst := make([]int, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.IntnFill(dst, 64)
	}
}
