// Package series implements the SOUND data model (paper §III-A, Table I):
// data points p = (t, v, σ↑, σ↓) with a timestamp, a value, and asymmetric
// normal standard deviations describing upward and downward value
// uncertainty, and data series as ordered sequences of such points.
//
// The explicit timestamp makes data sparsity a first-class property:
// helpers report inter-arrival statistics and density, and series can be
// sliced by time range or index range without copying.
package series

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Point is a single measurement in a data series.
//
// A point with SigUp == 0 and SigDown == 0 is an exact (certain) value.
// Timestamps are rational in the paper's model; float64 covers the
// workloads here (seconds, or mission-elapsed days for astrophysics).
type Point struct {
	T       float64 // timestamp
	V       float64 // value
	SigUp   float64 // standard deviation of the upward uncertainty
	SigDown float64 // standard deviation of the downward uncertainty
}

// Certain reports whether the point carries no value uncertainty.
func (p Point) Certain() bool { return p.SigUp == 0 && p.SigDown == 0 }

func (p Point) String() string {
	return fmt.Sprintf("(t=%g v=%g +%g -%g)", p.T, p.V, p.SigUp, p.SigDown)
}

// Series is an ordered sequence of data points. Invariant: timestamps are
// non-decreasing (enforced by the constructors; Sort restores it).
type Series []Point

// New builds a series from parallel slices. sigUp and sigDown may be nil
// for certain data. It returns an error if slice lengths disagree or
// timestamps are not sorted.
func New(t, v, sigUp, sigDown []float64) (Series, error) {
	n := len(t)
	if len(v) != n {
		return nil, fmt.Errorf("series: len(v)=%d, len(t)=%d", len(v), n)
	}
	if sigUp != nil && len(sigUp) != n {
		return nil, fmt.Errorf("series: len(sigUp)=%d, len(t)=%d", len(sigUp), n)
	}
	if sigDown != nil && len(sigDown) != n {
		return nil, fmt.Errorf("series: len(sigDown)=%d, len(t)=%d", len(sigDown), n)
	}
	s := make(Series, n)
	for i := 0; i < n; i++ {
		s[i] = Point{T: t[i], V: v[i]}
		if sigUp != nil {
			s[i].SigUp = sigUp[i]
		}
		if sigDown != nil {
			s[i].SigDown = sigDown[i]
		}
		if i > 0 && s[i].T < s[i-1].T {
			return nil, fmt.Errorf("series: timestamps out of order at index %d (%g < %g)", i, s[i].T, s[i-1].T)
		}
	}
	return s, nil
}

// FromValues builds a certain series with index timestamps 0..n-1.
func FromValues(v ...float64) Series {
	s := make(Series, len(v))
	for i, x := range v {
		s[i] = Point{T: float64(i), V: x}
	}
	return s
}

// Values returns s.v, the sequence of point values.
func (s Series) Values() []float64 {
	out := make([]float64, len(s))
	for i, p := range s {
		out[i] = p.V
	}
	return out
}

// Times returns s.t, the sequence of point timestamps.
func (s Series) Times() []float64 {
	out := make([]float64, len(s))
	for i, p := range s {
		out[i] = p.T
	}
	return out
}

// SigUps returns s.σ↑, the upward standard deviations.
func (s Series) SigUps() []float64 {
	out := make([]float64, len(s))
	for i, p := range s {
		out[i] = p.SigUp
	}
	return out
}

// SigDowns returns s.σ↓, the downward standard deviations.
func (s Series) SigDowns() []float64 {
	out := make([]float64, len(s))
	for i, p := range s {
		out[i] = p.SigDown
	}
	return out
}

// Clone returns a deep copy of the series.
func (s Series) Clone() Series {
	out := make(Series, len(s))
	copy(out, s)
	return out
}

// Sort orders the series by timestamp (stable), restoring the invariant
// after external mutation.
func (s Series) Sort() {
	sort.SliceStable(s, func(i, j int) bool { return s[i].T < s[j].T })
}

// Sorted reports whether timestamps are non-decreasing.
func (s Series) Sorted() bool {
	for i := 1; i < len(s); i++ {
		if s[i].T < s[i-1].T {
			return false
		}
	}
	return true
}

// Span returns the first and last timestamps. It returns (0, 0) for an
// empty series.
func (s Series) Span() (start, end float64) {
	if len(s) == 0 {
		return 0, 0
	}
	return s[0].T, s[len(s)-1].T
}

// Duration returns end-start of the series' time span.
func (s Series) Duration() float64 {
	start, end := s.Span()
	return end - start
}

// SliceTime returns the (aliased, not copied) subsequence of points with
// from <= t < to. It relies on the sortedness invariant.
func (s Series) SliceTime(from, to float64) Series {
	lo := sort.Search(len(s), func(i int) bool { return s[i].T >= from })
	hi := sort.Search(len(s), func(i int) bool { return s[i].T >= to })
	return s[lo:hi]
}

// SliceTimeInclusive returns points with from <= t <= to.
func (s Series) SliceTimeInclusive(from, to float64) Series {
	lo := sort.Search(len(s), func(i int) bool { return s[i].T >= from })
	hi := sort.Search(len(s), func(i int) bool { return s[i].T > to })
	return s[lo:hi]
}

// At returns the index of the first point with timestamp >= t, or len(s).
func (s Series) At(t float64) int {
	return sort.Search(len(s), func(i int) bool { return s[i].T >= t })
}

// Append adds a point, returning an error if it violates time order.
func (s *Series) Append(p Point) error {
	if n := len(*s); n > 0 && p.T < (*s)[n-1].T {
		return fmt.Errorf("series: appending t=%g before last t=%g", p.T, (*s)[n-1].T)
	}
	*s = append(*s, p)
	return nil
}

// Gaps returns the inter-arrival times between consecutive points.
func (s Series) Gaps() []float64 {
	if len(s) < 2 {
		return nil
	}
	g := make([]float64, len(s)-1)
	for i := 1; i < len(s); i++ {
		g[i-1] = s[i].T - s[i-1].T
	}
	return g
}

// MeanRelUncertainty returns the mean relative value uncertainty
// δ = (1/n) Σ (σ↑+σ↓)/(2·v) of the window (paper §V-B, explanation E4).
// Points with zero value are skipped; it returns 0 for an empty window.
func (s Series) MeanRelUncertainty() float64 {
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	n := 0
	for _, p := range s {
		if p.V == 0 {
			continue
		}
		sum += (p.SigUp + p.SigDown) / (2 * math.Abs(p.V))
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanRelUncertaintyDir returns the directional mean relative uncertainty
// δ↑ or δ↓ (up=true selects σ↑), as used by explanations E4/E5.
func (s Series) MeanRelUncertaintyDir(up bool) float64 {
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	n := 0
	for _, p := range s {
		if p.V == 0 {
			continue
		}
		sig := p.SigDown
		if up {
			sig = p.SigUp
		}
		sum += sig / math.Abs(p.V)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ScaleUncertainty returns a copy with σ↑ multiplied by fUp and σ↓ by
// fDown. Used by the E4/E5 what-if analyses.
func (s Series) ScaleUncertainty(fUp, fDown float64) Series {
	out := s.Clone()
	for i := range out {
		out[i].SigUp *= fUp
		out[i].SigDown *= fDown
	}
	return out
}

// Validate checks the internal invariants of the series: sorted
// timestamps, finite values, and non-negative standard deviations.
func (s Series) Validate() error {
	for i, p := range s {
		if math.IsNaN(p.T) || math.IsInf(p.T, 0) {
			return fmt.Errorf("series: non-finite timestamp at index %d", i)
		}
		if math.IsNaN(p.V) || math.IsInf(p.V, 0) {
			return fmt.Errorf("series: non-finite value at index %d", i)
		}
		if p.SigUp < 0 || p.SigDown < 0 || math.IsNaN(p.SigUp) || math.IsNaN(p.SigDown) {
			return fmt.Errorf("series: invalid uncertainty at index %d", i)
		}
		if i > 0 && p.T < s[i-1].T {
			return fmt.Errorf("series: timestamps out of order at index %d", i)
		}
	}
	return nil
}

// ErrEmpty is returned by operations that need at least one data point.
var ErrEmpty = errors.New("series: empty series")

// Mean returns the arithmetic mean of the values.
func (s Series) Mean() (float64, error) {
	if len(s) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, p := range s {
		sum += p.V
	}
	return sum / float64(len(s)), nil
}

// MinMax returns the minimum and maximum values.
func (s Series) MinMax() (min, max float64, err error) {
	if len(s) == 0 {
		return 0, 0, ErrEmpty
	}
	min, max = s[0].V, s[0].V
	for _, p := range s[1:] {
		if p.V < min {
			min = p.V
		}
		if p.V > max {
			max = p.V
		}
	}
	return min, max, nil
}

// Downsample returns a copy of the series with only keep points, selected
// uniformly at random without replacement using pick, preserving time
// order. pick must return a uniform value in [0, n). If keep >= len(s) the
// series is returned unchanged (cloned).
//
// This implements the random downsampling used by the E2/E3 what-if
// analyses (paper §V-B).
func (s Series) Downsample(keep int, pick func(n int) int) Series {
	if keep >= len(s) {
		return s.Clone()
	}
	if keep <= 0 {
		return Series{}
	}
	// Floyd's algorithm for a uniform k-subset of [0, n).
	n := len(s)
	chosen := make(map[int]struct{}, keep)
	for j := n - keep; j < n; j++ {
		t := pick(j + 1)
		if _, dup := chosen[t]; dup {
			chosen[j] = struct{}{}
		} else {
			chosen[t] = struct{}{}
		}
	}
	idx := make([]int, 0, keep)
	for i := range chosen {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	out := make(Series, len(idx))
	for i, j := range idx {
		out[i] = s[j]
	}
	return out
}
