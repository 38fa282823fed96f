package core

import (
	"strconv"

	"sound/internal/resample"
	"sound/internal/series"
)

// WindowTuple is one element of ψ(sᵏ): the k aligned windows at one
// sequence index of the windowing function, plus the bounds that
// produced it (for diagnostics and violation analysis).
type WindowTuple struct {
	// Windows holds the k windows, aligned across the checked series.
	Windows []series.Series
	// Ext optionally carries per-slot views of each window's own SoA
	// extraction (index-aligned with Windows), letting the evaluator
	// prime its resampling kernels without extracting the window again.
	// Views alias the producer's scratch: they are valid only for the
	// evaluation call the tuple is handed to, and the producer
	// guarantees each valid view was extracted from exactly its window's
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
	return replay(ClassifyWindow(w), ss, nil, nil)
}

func (PointWindow) String() string { return "point" }

// TimeWindow is a sliding (or, with Slide == Size, tumbling) time window
// of the given Size. Windows are aligned across all k series on the union
// of their spans; a window covers timestamps in [start, start+Size).
type TimeWindow struct {
	Size  float64
	Slide float64 // 0 means Size (tumbling); a negative slide is invalid
}

// Windows implements Windower.
func (w TimeWindow) Windows(ss []series.Series) []WindowTuple {
	return replay(ClassifyWindow(w), ss, nil, nil)
}

// String returns the window's text (FormatWindow): "time:<size>", with
// ":<slide>" when the slide is neither 0 nor the size.
func (w TimeWindow) String() string {
	s := "time:" + formatFloat(w.Size)
	if w.Slide != 0 && w.Slide != w.Size {
		s += ":" + formatFloat(w.Slide)
	}
	return s
}

// CountWindow is a sliding (or tumbling) window over point indices:
// windows contain Size consecutive points and advance by Slide points.
// For k > 1 the series are aligned by index.
type CountWindow struct {
	Size  int
	Slide int // 0 means Size (tumbling); a negative slide is invalid
}

// Windows implements Windower.
func (w CountWindow) Windows(ss []series.Series) []WindowTuple {
	return replay(ClassifyWindow(w), ss, nil, nil)
}

// String returns the window's text (FormatWindow): "count:<size>", with
// ":<slide>" when the slide is neither 0 nor the size.
func (w CountWindow) String() string {
	s := "count:" + strconv.Itoa(w.Size)
	if w.Slide != 0 && w.Slide != w.Size {
		s += ":" + strconv.Itoa(w.Slide)
	}
	return s
}

// GlobalWindow emits a single window tuple covering each whole series.
type GlobalWindow struct{}

// Windows implements Windower.
func (w GlobalWindow) Windows(ss []series.Series) []WindowTuple {
	return replay(ClassifyWindow(w), ss, nil, nil)
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
	return replay(ClassifyWindow(w), ss, nil, nil)
}

// String returns the window's text (FormatWindow): "session:<gap>".
func (w SessionWindow) String() string { return "session:" + formatFloat(w.Gap) }
