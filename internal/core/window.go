package core

import (
	"fmt"

	"sound/internal/resample"
	"sound/internal/series"
)

// WindowTuple is one element of ψ(sᵏ): the k aligned windows at one
// sequence index of the windowing function, plus the bounds that
// produced it (for diagnostics and violation analysis).
type WindowTuple struct {
	// Windows holds the k windows, aligned across the checked series.
	Windows []series.Series
	// Ext optionally carries per-slot views into shared SoA extractions
	// of the checked series (index-aligned with Windows), letting the
	// evaluator prime its resampling kernels without re-extracting the
	// window. Views alias execution-scoped scratch buffers: they are
	// valid only for the evaluation call the tuple is handed to, and the
	// producer guarantees each valid view's content matches the window's
	// points. Nil (or a zero View per slot) means "extract from Windows".
	Ext []resample.View
	// Start and End delimit the window in time (time windows) or in
	// index space (count windows, encoded as float).
	Start, End float64
	// Index is the position of this tuple in the ψ output sequence.
	Index int
}

// Windower is a windowing function ψ: (S)ᵏ → ((D*)ᵏ)* mapping k data
// series to a sequence of k-tuples of windows (paper §IV-A).
type Windower interface {
	// Windows applies the windowing function to the k series.
	Windows(ss []series.Series) []WindowTuple
	// String describes the windowing function.
	String() string
}

// PointWindow emits one window tuple per point. For k > 1 the series are
// aligned by index and truncated to the shortest series, which matches
// the paper's handling of point-based constraints ("each window has a
// single data point").
type PointWindow struct{}

// Windows implements Windower.
func (w PointWindow) Windows(ss []series.Series) []WindowTuple {
	return w.windowsInto(ss, nil)
}

func (PointWindow) windowsInto(ss []series.Series, buf []WindowTuple) []WindowTuple {
	if len(ss) == 0 {
		return nil
	}
	n := len(ss[0])
	for _, s := range ss[1:] {
		if len(s) < n {
			n = len(s)
		}
	}
	out := tupleSlice(buf, n)
	// One flat backing array for all n window slices instead of one
	// allocation per tuple; full-capacity sub-slices keep tuples isolated.
	// The backing array is always fresh — Results retain the window slices
	// long after a pooled tuple buffer has been reused.
	k := len(ss)
	flat := make([]series.Series, n*k)
	for i := 0; i < n; i++ {
		ws := flat[i*k : (i+1)*k : (i+1)*k]
		for j, s := range ss {
			ws[j] = s[i : i+1]
		}
		out[i] = WindowTuple{Windows: ws, Start: ss[0][i].T, End: ss[0][i].T, Index: i}
	}
	return out
}

func (PointWindow) String() string { return "point" }

// TimeWindow is a sliding (or, with Slide == Size, tumbling) time window
// of the given Size. Windows are aligned across all k series on the union
// of their spans; a window covers timestamps in [start, start+Size).
type TimeWindow struct {
	Size  float64
	Slide float64 // defaults to Size (tumbling) when <= 0
}

// Windows implements Windower.
func (w TimeWindow) Windows(ss []series.Series) []WindowTuple {
	if len(ss) == 0 || w.Size <= 0 {
		return nil
	}
	slide := w.Slide
	if slide <= 0 {
		slide = w.Size
	}
	// Union span across the k series.
	first, last := 0.0, 0.0
	init := false
	for _, s := range ss {
		if len(s) == 0 {
			continue
		}
		a, b := s.Span()
		if !init {
			first, last, init = a, b, true
			continue
		}
		if a < first {
			first = a
		}
		if b > last {
			last = b
		}
	}
	if !init {
		return nil
	}
	var out []WindowTuple
	idx := 0
	for start := first; start <= last; start += slide {
		end := start + w.Size
		ws := make([]series.Series, len(ss))
		for k, s := range ss {
			ws[k] = s.SliceTime(start, end)
		}
		out = append(out, WindowTuple{Windows: ws, Start: start, End: end, Index: idx})
		idx++
	}
	return out
}

func (w TimeWindow) String() string {
	if w.Slide > 0 && w.Slide != w.Size {
		return fmt.Sprintf("time(size=%g, slide=%g)", w.Size, w.Slide)
	}
	return fmt.Sprintf("time(size=%g)", w.Size)
}

// CountWindow is a sliding (or tumbling) window over point indices:
// windows contain Size consecutive points and advance by Slide points.
// For k > 1 the series are aligned by index.
type CountWindow struct {
	Size  int
	Slide int // defaults to Size (tumbling) when <= 0
}

// Windows implements Windower.
func (w CountWindow) Windows(ss []series.Series) []WindowTuple {
	return w.windowsInto(ss, nil)
}

func (w CountWindow) windowsInto(ss []series.Series, buf []WindowTuple) []WindowTuple {
	if len(ss) == 0 || w.Size <= 0 {
		return nil
	}
	slide := w.Slide
	if slide <= 0 {
		slide = w.Size
	}
	n := len(ss[0])
	for _, s := range ss[1:] {
		if len(s) < n {
			n = len(s)
		}
	}
	if n < w.Size {
		return nil
	}
	count := (n-w.Size)/slide + 1
	k := len(ss)
	out := tupleSlice(buf, count)
	flat := make([]series.Series, count*k)
	idx := 0
	for start := 0; start+w.Size <= n; start += slide {
		end := start + w.Size
		ws := flat[idx*k : (idx+1)*k : (idx+1)*k]
		for j, s := range ss {
			ws[j] = s[start:end]
		}
		out[idx] = WindowTuple{Windows: ws, Start: float64(start), End: float64(end), Index: idx}
		idx++
	}
	return out
}

func (w CountWindow) String() string {
	if w.Slide > 0 && w.Slide != w.Size {
		return fmt.Sprintf("count(size=%d, slide=%d)", w.Size, w.Slide)
	}
	return fmt.Sprintf("count(size=%d)", w.Size)
}

// GlobalWindow emits a single window tuple covering each whole series.
type GlobalWindow struct{}

// Windows implements Windower.
func (GlobalWindow) Windows(ss []series.Series) []WindowTuple {
	if len(ss) == 0 {
		return nil
	}
	ws := make([]series.Series, len(ss))
	start, end := 0.0, 0.0
	for k, s := range ss {
		ws[k] = s
		if len(s) > 0 {
			a, b := s.Span()
			if k == 0 || a < start {
				start = a
			}
			if k == 0 || b > end {
				end = b
			}
		}
	}
	return []WindowTuple{{Windows: ws, Start: start, End: end, Index: 0}}
}

func (GlobalWindow) String() string { return "global" }

// SessionWindow groups consecutive points separated by at most Gap into
// one window, closing a session whenever the series is silent for longer
// than Gap. On sparse series with bursty cadence this yields windows
// that follow the natural observation episodes instead of slicing
// through them. For k > 1 the sessionization is driven by the first
// series; the other series contribute their points in the same time
// ranges.
type SessionWindow struct {
	Gap float64
}

// Windows implements Windower.
func (w SessionWindow) Windows(ss []series.Series) []WindowTuple {
	if len(ss) == 0 || w.Gap <= 0 || len(ss[0]) == 0 {
		return nil
	}
	driver := ss[0]
	var out []WindowTuple
	idx := 0
	start := driver[0].T
	prev := driver[0].T
	flush := func(endInclusive float64) {
		ws := make([]series.Series, len(ss))
		for k, s := range ss {
			ws[k] = s.SliceTimeInclusive(start, endInclusive)
		}
		out = append(out, WindowTuple{Windows: ws, Start: start, End: endInclusive, Index: idx})
		idx++
	}
	for _, p := range driver[1:] {
		if p.T-prev > w.Gap {
			flush(prev)
			start = p.T
		}
		prev = p.T
	}
	flush(prev)
	return out
}

func (w SessionWindow) String() string {
	return fmt.Sprintf("session(gap=%g)", w.Gap)
}
