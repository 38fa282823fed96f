package resample

import (
	"math"
	"testing"
	"testing/quick"

	"sound/internal/rng"
	"sound/internal/series"
	"sound/internal/stat"
)

func uncertainSeries(n int, seed uint64) series.Series {
	r := rng.New(seed)
	s := make(series.Series, n)
	for i := range s {
		s[i] = series.Point{
			T:       float64(i),
			V:       10 + r.NormFloat64(),
			SigUp:   0.5 + r.Float64(),
			SigDown: 0.5 + r.Float64(),
		}
	}
	return s
}

func TestPerturbValueCertainPointUnaltered(t *testing.T) {
	r := rng.New(1)
	p := series.Point{T: 0, V: 42}
	for i := 0; i < 100; i++ {
		if got := PerturbValue(p, r); got != 42 {
			t.Fatalf("certain point perturbed to %v", got)
		}
	}
}

func TestPerturbValueDirections(t *testing.T) {
	r := rng.New(2)
	p := series.Point{V: 0, SigUp: 1, SigDown: 2}
	up, down := 0, 0
	var sumUp, sumDown float64
	const n = 50000
	for i := 0; i < n; i++ {
		v := PerturbValue(p, r)
		if v > 0 {
			up++
			sumUp += v
		} else if v < 0 {
			down++
			sumDown += v
		}
	}
	// Split-normal branch weights: P(up) = σ↑/(σ↑+σ↓) = 1/3.
	if math.Abs(float64(up)/n-1.0/3.0) > 0.02 {
		t.Errorf("upward fraction = %v, want ~1/3", float64(up)/n)
	}
	// |half-normal| mean is σ·√(2/π).
	hn := math.Sqrt(2 / math.Pi)
	if got := sumUp / float64(up); math.Abs(got-1*hn) > 0.03 {
		t.Errorf("mean upward excursion = %v, want %v", got, hn)
	}
	if got := sumDown / float64(down); math.Abs(got+2*hn) > 0.05 {
		t.Errorf("mean downward excursion = %v, want %v", got, -2*hn)
	}
}

func TestPerturbValueSymmetricBranchesEven(t *testing.T) {
	r := rng.New(21)
	p := series.Point{V: 0, SigUp: 1.5, SigDown: 1.5}
	up := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if PerturbValue(p, r) > 0 {
			up++
		}
	}
	if math.Abs(float64(up)/n-0.5) > 0.02 {
		t.Errorf("symmetric point upward fraction = %v", float64(up)/n)
	}
}

func TestBlockSize(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 1}, {1, 1}, {2, 2}, {4, 2}, {5, 3}, {9, 3}, {10, 4}, {100, 10}, {101, 11},
	}
	for _, c := range cases {
		if got := BlockSize(c.n); got != c.want {
			t.Errorf("BlockSize(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestForConstraint(t *testing.T) {
	if ForConstraint(true, true) != Point {
		t.Error("point-wise should map to Point")
	}
	if ForConstraint(false, true) != Sequence {
		t.Error("ordered windowed should map to Sequence")
	}
	if ForConstraint(false, false) != Set {
		t.Error("unordered windowed should map to Set")
	}
}

func TestStrategyString(t *testing.T) {
	if Point.String() != "point" || Set.String() != "set" || Sequence.String() != "sequence" {
		t.Error("bad Strategy strings")
	}
	if Strategy(99).String() != "unknown" {
		t.Error("unknown strategy string")
	}
}

func TestDrawPointPreservesLengthAndCenter(t *testing.T) {
	s := uncertainSeries(200, 3)
	rs := New(Point, rng.New(4))
	const draws = 500
	sums := make([]float64, len(s))
	for d := 0; d < draws; d++ {
		vals := rs.Draw([]series.Series{s})
		if len(vals) != 1 || len(vals[0]) != len(s) {
			t.Fatalf("draw shape = %d x %d", len(vals), len(vals[0]))
		}
		for i, v := range vals[0] {
			sums[i] += v
		}
	}
	// Mean perturbed value stays near the point value up to the
	// split-normal bias √(2/π)·(σ↑²−σ↓²)/(σ↑+σ↓).
	hn := math.Sqrt(2 / math.Pi)
	for i, p := range s {
		mean := sums[i] / draws
		want := p.V + hn*(p.SigUp*p.SigUp-p.SigDown*p.SigDown)/(p.SigUp+p.SigDown)
		if math.Abs(mean-want) > 0.35 {
			t.Errorf("point %d: mean %v, want ~%v", i, mean, want)
		}
	}
}

func TestDrawSetMultisetMembership(t *testing.T) {
	// Property: with zero uncertainty, every drawn value is an original
	// value (bootstrap = sampling with replacement).
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		s := series.FromValues(vals...)
		rs := New(Set, rng.New(5))
		out := rs.Draw([]series.Series{s})[0]
		if len(out) != len(s) {
			return false
		}
		set := map[float64]bool{}
		for _, v := range vals {
			set[v] = true
		}
		for _, v := range out {
			if !set[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDrawSetAlignmentAcrossK(t *testing.T) {
	// Two aligned certain series: y = 2x. After an aligned set draw the
	// relation must persist element-wise.
	n := 50
	x := make(series.Series, n)
	y := make(series.Series, n)
	for i := 0; i < n; i++ {
		x[i] = series.Point{T: float64(i), V: float64(i)}
		y[i] = series.Point{T: float64(i), V: float64(2 * i)}
	}
	rs := New(Set, rng.New(6))
	for d := 0; d < 100; d++ {
		out := rs.Draw([]series.Series{x, y})
		for i := range out[0] {
			if out[1][i] != 2*out[0][i] {
				t.Fatalf("alignment broken at draw %d index %d: %v vs %v", d, i, out[0][i], out[1][i])
			}
		}
	}
}

func TestDrawSequenceAlignmentAcrossK(t *testing.T) {
	n := 60
	x := make(series.Series, n)
	y := make(series.Series, n)
	for i := 0; i < n; i++ {
		x[i] = series.Point{T: float64(i), V: float64(i)}
		y[i] = series.Point{T: float64(i), V: float64(i) + 100}
	}
	rs := New(Sequence, rng.New(7))
	for d := 0; d < 100; d++ {
		out := rs.Draw([]series.Series{x, y})
		for i := range out[0] {
			if out[1][i] != out[0][i]+100 {
				t.Fatalf("sequence alignment broken at index %d", i)
			}
		}
	}
}

func TestDrawSequencePreservesBlockOrder(t *testing.T) {
	// With certain data, every block of size b in the output must be a
	// contiguous ascending run from the ramp input.
	n := 100
	s := make(series.Series, n)
	for i := range s {
		s[i] = series.Point{T: float64(i), V: float64(i)}
	}
	rs := New(Sequence, rng.New(8))
	b := BlockSize(n)
	for d := 0; d < 50; d++ {
		out := rs.Draw([]series.Series{s})[0]
		for start := 0; start < n; start += b {
			end := start + b
			if end > n {
				end = n
			}
			for i := start + 1; i < end; i++ {
				if out[i] != out[i-1]+1 {
					t.Fatalf("draw %d: block [%d,%d) not contiguous: %v -> %v", d, start, end, out[i-1], out[i])
				}
			}
		}
	}
}

func TestDrawSequenceCoversWholeRange(t *testing.T) {
	// Over many draws every index should be sampled sometimes.
	n := 30
	s := make(series.Series, n)
	for i := range s {
		s[i] = series.Point{T: float64(i), V: float64(i)}
	}
	rs := New(Sequence, rng.New(9))
	seen := make([]bool, n)
	for d := 0; d < 500; d++ {
		for _, v := range rs.Draw([]series.Series{s})[0] {
			seen[int(v)] = true
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Errorf("index %d never sampled by block bootstrap", i)
		}
	}
}

func TestDrawUnequalLengthsIndependent(t *testing.T) {
	x := series.FromValues(1, 2, 3)
	y := series.FromValues(10, 20, 30, 40, 50)
	rs := New(Set, rng.New(10))
	out := rs.Draw([]series.Series{x, y})
	if len(out[0]) != 3 || len(out[1]) != 5 {
		t.Fatalf("lengths = %d, %d", len(out[0]), len(out[1]))
	}
}

func TestDrawEmptyWindow(t *testing.T) {
	rs := New(Set, rng.New(11))
	out := rs.Draw([]series.Series{{}})
	if len(out[0]) != 0 {
		t.Fatalf("empty window drew %d values", len(out[0]))
	}
	rs2 := New(Sequence, rng.New(11))
	if got := rs2.Draw([]series.Series{{}}); len(got[0]) != 0 {
		t.Fatal("sequence draw of empty window")
	}
}

func TestBootstrapEstimatesMeanSamplingDistribution(t *testing.T) {
	// The bootstrap distribution of the sample mean should have standard
	// deviation ≈ σ/√n (the standard error), the property SOUND uses to
	// propagate sparsity-induced uncertainty.
	r := rng.New(12)
	n := 40
	s := make(series.Series, n)
	for i := range s {
		s[i] = series.Point{T: float64(i), V: r.NormFloat64() * 3}
	}
	trueSD := math.Sqrt(stat.Variance(s.Values()))
	rs := New(Set, rng.New(13))
	const draws = 4000
	means := make([]float64, draws)
	for d := 0; d < draws; d++ {
		means[d] = stat.Mean(rs.Draw([]series.Series{s})[0])
	}
	se := math.Sqrt(stat.Variance(means))
	want := trueSD / math.Sqrt(float64(n))
	if math.Abs(se-want) > 0.15*want {
		t.Errorf("bootstrap SE = %v, want ~%v", se, want)
	}
}

func TestBlocks(t *testing.T) {
	s := series.FromValues(0, 1, 2, 3, 4, 5, 6, 7, 8, 9) // n=10, b=4
	blocks := Blocks(s)
	if len(blocks) != 3 {
		t.Fatalf("got %d blocks", len(blocks))
	}
	if len(blocks[0]) != 4 || len(blocks[1]) != 4 || len(blocks[2]) != 2 {
		t.Errorf("block sizes = %d,%d,%d", len(blocks[0]), len(blocks[1]), len(blocks[2]))
	}
	total := 0
	for _, b := range blocks {
		total += len(b)
	}
	if total != len(s) {
		t.Errorf("blocks cover %d of %d points", total, len(s))
	}
	if Blocks(series.Series{}) != nil {
		t.Error("empty series should give nil blocks")
	}
}

func TestDrawDeterministicWithSeed(t *testing.T) {
	s := uncertainSeries(50, 20)
	a := New(Sequence, rng.New(42))
	b := New(Sequence, rng.New(42))
	for d := 0; d < 20; d++ {
		va := a.Draw([]series.Series{s})[0]
		vb := b.Draw([]series.Series{s})[0]
		for i := range va {
			if va[i] != vb[i] {
				t.Fatalf("draw %d diverged at %d", d, i)
			}
		}
	}
}

func BenchmarkDrawPoint(b *testing.B) {
	s := uncertainSeries(100, 1)
	rs := New(Point, rng.New(1))
	w := []series.Series{s}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.Draw(w)
	}
}

func BenchmarkDrawSequence(b *testing.B) {
	s := uncertainSeries(100, 1)
	rs := New(Sequence, rng.New(1))
	w := []series.Series{s, s}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.Draw(w)
	}
}

func TestSetBlockSizeOverride(t *testing.T) {
	n := 100
	s := make(series.Series, n)
	for i := range s {
		s[i] = series.Point{T: float64(i), V: float64(i)}
	}
	rs := New(Sequence, rng.New(31))
	rs.SetBlockSize(25)
	for d := 0; d < 20; d++ {
		out := rs.Draw([]series.Series{s})[0]
		for start := 0; start < n; start += 25 {
			for i := start + 1; i < start+25 && i < n; i++ {
				if out[i] != out[i-1]+1 {
					t.Fatalf("block [%d..) not contiguous with size 25", start)
				}
			}
		}
	}
	rs.SetBlockSize(-3) // restores automatic sizing without panicking
	rs.Draw([]series.Series{s})
}

func TestAutoBlockSize(t *testing.T) {
	// White noise: the √n default applies.
	r := rng.New(33)
	white := make([]float64, 100)
	for i := range white {
		white[i] = r.NormFloat64()
	}
	if got := AutoBlockSize(white); got != BlockSize(100) {
		t.Errorf("white-noise auto block = %d, want %d", got, BlockSize(100))
	}
	// Strongly autocorrelated data: blocks must grow beyond √n.
	ar := make([]float64, 400)
	for i := 1; i < len(ar); i++ {
		ar[i] = 0.97*ar[i-1] + r.NormFloat64()
	}
	if got := AutoBlockSize(ar); got <= BlockSize(400) {
		t.Errorf("AR(0.97) auto block = %d, want > %d", got, BlockSize(400))
	}
	if got := AutoBlockSize([]float64{1}); got != 1 {
		t.Errorf("singleton auto block = %d", got)
	}
	// Never exceeds n.
	if got := AutoBlockSize(ar[:10]); got > 10 {
		t.Errorf("auto block %d exceeds n", got)
	}
}
