package series

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"sound/internal/rng"
)

// paperExample is the plug-measurement series from paper §III-A.
func paperExample() Series {
	s, err := New(
		[]float64{1, 2, 4, 8, 9, 10},
		[]float64{1, 3, 2, 4, 8.5, 6},
		[]float64{2.1, 0.4, 0.6, 0.4, 2.2, 1.3},
		[]float64{1.6, 1.8, 1.1, 0.2, 1.6, 1.1},
	)
	if err != nil {
		panic(err)
	}
	return s
}

func TestNewValidatesLengths(t *testing.T) {
	if _, err := New([]float64{1, 2}, []float64{1}, nil, nil); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if _, err := New([]float64{1}, []float64{1}, []float64{1, 2}, nil); err == nil {
		t.Fatal("mismatched sigUp length accepted")
	}
}

func TestNewValidatesOrder(t *testing.T) {
	if _, err := New([]float64{2, 1}, []float64{0, 0}, nil, nil); err == nil {
		t.Fatal("unsorted timestamps accepted")
	}
}

func TestAccessors(t *testing.T) {
	s := paperExample()
	if got := s.Values(); !reflect.DeepEqual(got, []float64{1, 3, 2, 4, 8.5, 6}) {
		t.Errorf("Values() = %v", got)
	}
	if got := s.Times(); !reflect.DeepEqual(got, []float64{1, 2, 4, 8, 9, 10}) {
		t.Errorf("Times() = %v", got)
	}
	if got := s.SigUps()[4]; got != 2.2 {
		t.Errorf("SigUps()[4] = %v", got)
	}
	if got := s.SigDowns()[3]; got != 0.2 {
		t.Errorf("SigDowns()[3] = %v", got)
	}
}

func TestSpanDurationDensity(t *testing.T) {
	s := paperExample()
	start, end := s.Span()
	if start != 1 || end != 10 {
		t.Errorf("Span() = %v, %v", start, end)
	}
	if d := s.Duration(); d != 9 {
		t.Errorf("Duration() = %v", d)
	}
	var empty Series
	if d := empty.Duration(); d != 0 {
		t.Errorf("empty Duration() = %v", d)
	}
}

func TestGapsAndMaxGap(t *testing.T) {
	s := paperExample()
	want := []float64{1, 2, 4, 1, 1}
	if got := s.Gaps(); !reflect.DeepEqual(got, want) {
		t.Errorf("Gaps() = %v, want %v", got, want)
	}
}

func TestSliceTime(t *testing.T) {
	s := paperExample()
	w := s.SliceTime(2, 9)
	if got := w.Values(); !reflect.DeepEqual(got, []float64{3, 2, 4}) {
		t.Errorf("SliceTime(2,9) values = %v", got)
	}
	wi := s.SliceTimeInclusive(2, 9)
	if got := wi.Values(); !reflect.DeepEqual(got, []float64{3, 2, 4, 8.5}) {
		t.Errorf("SliceTimeInclusive(2,9) values = %v", got)
	}
	if got := s.SliceTime(100, 200); len(got) != 0 {
		t.Errorf("out-of-range slice has %d points", len(got))
	}
}

func TestSliceTimeAliasesBacking(t *testing.T) {
	s := paperExample()
	w := s.SliceTime(2, 5)
	if len(w) == 0 {
		t.Fatal("empty window")
	}
	w[0].V = -99
	if s[1].V != -99 {
		t.Error("SliceTime should alias, not copy")
	}
}

func TestAppendEnforcesOrder(t *testing.T) {
	s := paperExample()
	if err := s.Append(Point{T: 0}); err == nil {
		t.Fatal("out-of-order append accepted")
	}
	if err := s.Append(Point{T: 11, V: 1}); err != nil {
		t.Fatalf("valid append rejected: %v", err)
	}
}

func TestMeanRelUncertainty(t *testing.T) {
	s, _ := New([]float64{0, 1}, []float64{2, 4}, []float64{1, 2}, []float64{1, 2})
	// point 0: (1+1)/(2*2)=0.5; point 1: (2+2)/(2*4)=0.5
	if d := s.MeanRelUncertainty(); math.Abs(d-0.5) > 1e-12 {
		t.Errorf("MeanRelUncertainty() = %v", d)
	}
	up := s.MeanRelUncertaintyDir(true)
	if math.Abs(up-0.5) > 1e-12 {
		t.Errorf("MeanRelUncertaintyDir(up) = %v", up)
	}
}

func TestMeanRelUncertaintySkipsZeroValues(t *testing.T) {
	s, _ := New([]float64{0, 1}, []float64{0, 2}, []float64{5, 1}, []float64{5, 1})
	if d := s.MeanRelUncertainty(); math.Abs(d-0.5) > 1e-12 {
		t.Errorf("MeanRelUncertainty() = %v, zero-value point not skipped", d)
	}
}

func TestScaleUncertainty(t *testing.T) {
	s := paperExample().ScaleUncertainty(2, 0.5)
	if s[0].SigUp != 4.2 || s[0].SigDown != 0.8 {
		t.Errorf("scaled point = %v", s[0])
	}
	// original untouched
	if paperExample()[0].SigUp != 2.1 {
		t.Error("ScaleUncertainty mutated original")
	}
}

func TestValidateCatchesBadData(t *testing.T) {
	cases := []Series{
		{Point{T: math.NaN()}},
		{Point{V: math.Inf(1)}},
		{Point{SigUp: -1}},
		{Point{T: 2}, Point{T: 1}},
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid series accepted", i)
		}
	}
	if err := paperExample().Validate(); err != nil {
		t.Errorf("valid series rejected: %v", err)
	}
}

func TestMeanAndMinMax(t *testing.T) {
	s := paperExample()
	m, err := s.Mean()
	if err != nil || math.Abs(m-24.5/6) > 1e-12 {
		t.Errorf("Mean() = %v, %v", m, err)
	}
	lo, hi, err := s.MinMax()
	if err != nil || lo != 1 || hi != 8.5 {
		t.Errorf("MinMax() = %v, %v, %v", lo, hi, err)
	}
	var empty Series
	if _, err := empty.Mean(); err != ErrEmpty {
		t.Errorf("empty Mean err = %v", err)
	}
}

func TestDownsample(t *testing.T) {
	r := rng.New(1)
	s := paperExample()
	d := s.Downsample(3, r.Intn)
	if len(d) != 3 {
		t.Fatalf("Downsample kept %d points", len(d))
	}
	if !d.Sorted() {
		t.Error("downsampled series not sorted")
	}
	// every kept point must come from the original
	for _, p := range d {
		found := false
		for _, q := range s {
			if p == q {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("downsampled point %v not in original", p)
		}
	}
	if got := s.Downsample(100, r.Intn); len(got) != len(s) {
		t.Errorf("keep >= n should return full series, got %d", len(got))
	}
	if got := s.Downsample(0, r.Intn); len(got) != 0 {
		t.Errorf("keep=0 should return empty, got %d", len(got))
	}
}

func TestDownsampleUniform(t *testing.T) {
	// Property: over many draws, each index is kept with roughly equal
	// frequency keep/n.
	r := rng.New(99)
	s := FromValues(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	counts := make([]int, len(s))
	const draws = 20000
	for i := 0; i < draws; i++ {
		for _, p := range s.Downsample(4, r.Intn) {
			counts[int(p.V)]++
		}
	}
	want := float64(draws) * 4 / 10
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("index %d kept %d times, want ~%v", i, c, want)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := paperExample()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Errorf("round trip mismatch:\n got %v\nwant %v", got, s)
	}
}

func TestReadCSVWithoutHeaderOrSigmas(t *testing.T) {
	in := "1,2\n3,4,0.5\n5,6,0.5,0.25\n"
	s, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := Series{{T: 1, V: 2}, {T: 3, V: 4, SigUp: 0.5}, {T: 5, V: 6, SigUp: 0.5, SigDown: 0.25}}
	if !reflect.DeepEqual(s, want) {
		t.Errorf("got %v want %v", s, want)
	}
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("t,v\n1,notanumber\n")); err == nil {
		t.Fatal("garbage value accepted")
	}
	if _, err := ReadCSV(strings.NewReader("1\n")); err == nil {
		t.Fatal("single-column row accepted")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := paperExample()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Errorf("round trip mismatch")
	}
}

func TestQuickSliceTimeCoversAllInRange(t *testing.T) {
	// Property: for any sorted series and any [from, to), SliceTime
	// returns exactly the points whose timestamps lie in range.
	f := func(raw []float64, a, b float64) bool {
		s := make(Series, len(raw))
		for i, v := range raw {
			s[i] = Point{T: math.Abs(v), V: v}
		}
		s.Sort()
		from, to := math.Min(math.Abs(a), math.Abs(b)), math.Max(math.Abs(a), math.Abs(b))
		w := s.SliceTime(from, to)
		count := 0
		for _, p := range s {
			if p.T >= from && p.T < to {
				count++
			}
		}
		return len(w) == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPointHelpers(t *testing.T) {
	p := Point{T: 1, V: -4, SigUp: 1, SigDown: 3}
	if p.Certain() {
		t.Error("uncertain point reported certain")
	}
	if !(Point{T: 1, V: 2}).Certain() {
		t.Error("certain point reported uncertain")
	}
}

func TestFromValues(t *testing.T) {
	s := FromValues(5, 6, 7)
	if len(s) != 3 || s[2].T != 2 || s[2].V != 7 {
		t.Errorf("FromValues = %v", s)
	}
}
