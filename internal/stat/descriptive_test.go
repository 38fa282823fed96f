package stat

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v", got)
	}
	if got := Variance(xs); got != 4 {
		t.Errorf("Variance = %v", got)
	}
	if got := SampleVariance(xs); !close(got, 32.0/7.0, 1e-12) {
		t.Errorf("SampleVariance = %v", got)
	}
}

func TestEmptyInputsAreNaN(t *testing.T) {
	for name, got := range map[string]float64{
		"Mean":     Mean(nil),
		"Variance": Variance(nil),
		"Min":      Min(nil),
		"Max":      Max(nil),
		"Median":   Median(nil),
		"Quantile": Quantile(nil, 0.5),
	} {
		if !math.IsNaN(got) {
			t.Errorf("%s(nil) = %v, want NaN", name, got)
		}
	}
	if !math.IsNaN(SampleVariance([]float64{1})) {
		t.Error("SampleVariance of singleton should be NaN")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %v", got)
	}
	if got := Max(xs); got != 5 {
		t.Errorf("Max = %v", got)
	}
}

func TestQuantileType7(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct{ p, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {1.0 / 3.0, 2},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.p); !close(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Quantile(xs, -0.1); !math.IsNaN(got) {
		t.Errorf("Quantile(-0.1) = %v", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantileMonotoneInP(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0001; p += 0.05 {
			q := Quantile(xs, math.Min(p, 1))
			if q < prev {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMeanCI(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i % 10)
	}
	mean, hw := MeanCI(xs, 0.95)
	if !close(mean, 4.5, 1e-12) {
		t.Errorf("mean = %v", mean)
	}
	if hw <= 0 || hw > 1 {
		t.Errorf("half width = %v", hw)
	}
	_, hw1 := MeanCI([]float64{1}, 0.95)
	if !math.IsNaN(hw1) {
		t.Errorf("singleton CI = %v", hw1)
	}
}

func TestRanksMidrankTies(t *testing.T) {
	xs := []float64{10, 20, 20, 30}
	want := []float64{1, 2.5, 2.5, 4}
	got := Ranks(xs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
}

func TestRanksPermutation(t *testing.T) {
	f := func(xs []float64) bool {
		clean := make([]float64, 0, len(xs))
		for _, v := range xs {
			if !math.IsNaN(v) {
				clean = append(clean, v)
			}
		}
		r := Ranks(clean)
		if len(r) != len(clean) {
			return false
		}
		// Sum of ranks must equal n(n+1)/2 regardless of ties.
		sum := 0.0
		for _, v := range r {
			sum += v
		}
		n := float64(len(clean))
		return close(sum, n*(n+1)/2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPearsonKnown(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if got := Pearson(x, y); !close(got, 1, 1e-12) {
		t.Errorf("perfect correlation = %v", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(x, neg); !close(got, -1, 1e-12) {
		t.Errorf("perfect anticorrelation = %v", got)
	}
	if got := Pearson(x, []float64{5, 5, 5, 5, 5}); !math.IsNaN(got) {
		t.Errorf("zero-variance correlation = %v", got)
	}
	if got := Pearson(x, []float64{1, 2}); !math.IsNaN(got) {
		t.Errorf("length mismatch = %v", got)
	}
}

func TestPearsonRange(t *testing.T) {
	f := func(x, y []float64) bool {
		n := len(x)
		if len(y) < n {
			n = len(y)
		}
		xs := make([]float64, 0, n)
		ys := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			if math.IsNaN(x[i]) || math.IsInf(x[i], 0) || math.IsNaN(y[i]) || math.IsInf(y[i], 0) {
				continue
			}
			xs = append(xs, x[i])
			ys = append(ys, y[i])
		}
		r := Pearson(xs, ys)
		return math.IsNaN(r) || (r >= -1-1e-9 && r <= 1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRSquared(t *testing.T) {
	obs := []float64{1, 2, 3, 4, 5}
	if got := RSquared(obs, obs); !close(got, 1, 1e-12) {
		t.Errorf("perfect prediction R² = %v", got)
	}
	meanPred := []float64{3, 3, 3, 3, 3}
	if got := RSquared(obs, meanPred); !close(got, 0, 1e-12) {
		t.Errorf("mean predictor R² = %v", got)
	}
	bad := []float64{5, 4, 3, 2, 1}
	if got := RSquared(obs, bad); got >= 0 {
		t.Errorf("anti-prediction R² = %v, want negative", got)
	}
	if got := RSquared([]float64{2, 2}, []float64{2, 2}); !math.IsNaN(got) {
		t.Errorf("zero-variance ground truth R² = %v", got)
	}
}

func TestQuickSortIdxSorts(t *testing.T) {
	f := func(xs []float64) bool {
		clean := make([]float64, 0, len(xs))
		for _, v := range xs {
			if !math.IsNaN(v) {
				clean = append(clean, v)
			}
		}
		idx := make([]int, len(clean))
		for i := range idx {
			idx[i] = i
		}
		quickSortIdx(clean, idx)
		return sort.SliceIsSorted(idx, func(a, b int) bool { return clean[idx[a]] < clean[idx[b]] }) ||
			isSortedByVal(clean, idx)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func isSortedByVal(vals []float64, idx []int) bool {
	for i := 1; i < len(idx); i++ {
		if vals[idx[i]] < vals[idx[i-1]] {
			return false
		}
	}
	return true
}

func TestStudentTQuantileKnownValues(t *testing.T) {
	// Reference values (two-sided 95%: p = 0.975).
	cases := []struct{ p, nu, want float64 }{
		{0.975, 4, 2.7764451051977987}, // the paper's 5-rep case
		{0.975, 9, 2.2621571627409915},
		{0.975, 1, 12.706204736432095},
		{0.95, 10, 1.8124611228107335},
		{0.5, 7, 0},
		{0.025, 4, -2.7764451051977987}, // symmetry
	}
	for _, c := range cases {
		if got := StudentTQuantile(c.p, c.nu); !close(got, c.want, 1e-8) {
			t.Errorf("t(%v, %v) = %v, want %v", c.p, c.nu, got, c.want)
		}
	}
}

func TestStudentTQuantileConvergesToNormal(t *testing.T) {
	// As ν → ∞ the t quantile approaches the normal quantile.
	for _, p := range []float64{0.9, 0.975, 0.995} {
		tq := StudentTQuantile(p, 1e6)
		z := NormalQuantile(p)
		if !close(tq, z, 1e-4) {
			t.Errorf("t(%v, 1e6) = %v, normal = %v", p, tq, z)
		}
	}
}

func TestStudentTQuantileEdges(t *testing.T) {
	if !math.IsInf(StudentTQuantile(1, 5), 1) || !math.IsInf(StudentTQuantile(0, 5), -1) {
		t.Error("p edge cases wrong")
	}
	if !math.IsNaN(StudentTQuantile(0.9, -1)) {
		t.Error("negative dof accepted")
	}
}

func TestMeanCIUsesStudentT(t *testing.T) {
	// 5 samples with sample sd 1: half width = t(0.975, 4)/√5.
	xs := []float64{-1.2649110640673518, -0.6324555320336759, 0, 0.6324555320336759, 1.2649110640673518}
	// sample variance of these = 1
	_, hw := MeanCI(xs, 0.95)
	want := 2.7764451051977987 / math.Sqrt(5)
	if !close(hw, want, 1e-9) {
		t.Errorf("half width = %v, want %v", hw, want)
	}
}
