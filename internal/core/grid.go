package core

import (
	"math"

	"sound/internal/series"
)

// Grid is the position of a built-in windowing function over k point
// buffers: the one implementation of the point, time, count, session
// and global windows. The batch windowers replay a fresh Grid over their
// input (replay); the stream operator keeps one per key and feeds it
// event by event. The grid holds coordinates only: the caller owns the
// buffers, keeps them time-sorted (point and count windows: in arrival
// order) when it calls Next, and decides when to Trim them. The methods
// take the assigner by pointer, since the stream calls Admit per event.
type Grid struct {
	// Origin anchors a time grid: its first admitted time, or an earlier
	// one admitted before any window fired. Start is the next window's
	// start, advanced from Origin by Slide with float accumulation.
	// Watermark is the largest admitted time of a time grid or of the
	// open session.
	Origin, Start, Watermark float64
	// HasOrigin reports that a time grid is anchored, Fired that a window
	// was emitted.
	HasOrigin, Fired bool
	// NextIdx is the absolute index of the next count window's first
	// point in each input's full point sequence, and the number of point
	// tuples fired since the last Trim (0 after it).
	NextIdx int
	// SessStart and SessPrev are the open session's smallest and largest
	// time, SessOpen whether one is open.
	SessStart, SessPrev float64
	SessOpen            bool
}

// maxOverlap caps a time window's Size/Slide: the number of windows one
// point belongs to.
const maxOverlap = 4096

// places reports whether the assigner can place an event at time t: a
// time grid where |t|·2⁻⁵³ is below its smallest step, so that adding a
// slide moves every start it reaches (at t = 1.7e18 a slide of 10 does
// not), a session at every finite t, the other kinds everywhere.
func (a WindowAssigner) places(t float64) bool {
	switch a.Kind {
	case KindTumblingTime, KindSlidingTime:
		t = math.Abs(t) * 0x1p-53
		return t < a.Size && t < a.Slide
	case KindSession:
		return math.Abs(t) <= math.MaxFloat64
	}
	return true
}

// Admit registers an event at time t and reports whether an unfired
// window can hold it; the caller drops it otherwise. A time it cannot
// place is never admitted.
//   - Time: the first time anchors the grid, and an earlier one
//     re-anchors it while nothing has fired; a time below the next
//     window's start is late.
//   - Session: a time opens a session when none is open and extends it
//     when at most Gap past its largest time. A time before its start is
//     late, except within Gap of it while nothing has fired, when it
//     becomes the start. A time further out makes the session due.
//   - Point and count: every event is admitted; global: every event
//     until the window fired.
func (g *Grid) Admit(a *WindowAssigner, t float64) bool {
	if !a.places(t) {
		return false
	}
	switch a.Kind {
	case KindPoint, KindCount:
		return true
	case KindGlobal:
		return !g.Fired
	case KindTumblingTime, KindSlidingTime:
		if !g.HasOrigin {
			g.Origin, g.Start, g.Watermark, g.HasOrigin = t, t, t, true
		} else if t < g.Origin && !g.Fired {
			g.Origin, g.Start = t, t
		}
		if t < g.Start {
			return false
		}
	case KindSession:
		switch {
		case !g.SessOpen:
			g.SessStart, g.SessPrev, g.Watermark, g.SessOpen = t, t, t, true
		case t < g.SessStart:
			if g.Fired || g.SessStart-t > a.Gap {
				return false
			}
			g.SessStart = t
		case t > g.SessPrev && t-g.SessPrev <= a.Gap:
			g.SessPrev = t
		}
	}
	if t > g.Watermark {
		g.Watermark = t
	}
	return true
}

// Due reports whether Next may have a window to emit: a time window
// whose end the watermark reached, a session the watermark left by
// more than Gap, any point or count window (Next decides from the
// buffers), and with final every window still open. It is the one test
// the stream makes per event, and inlines.
func (g *Grid) Due(a *WindowAssigner, final bool) bool {
	switch a.Kind {
	case KindTumblingTime, KindSlidingTime:
		return g.Start+a.Size <= g.Watermark || final && g.HasOrigin && g.Start <= g.Watermark
	case KindSession:
		return g.SessOpen && (final || g.Watermark-g.SessPrev > a.Gap)
	}
	return final || a.Kind == KindCount || a.Kind == KindPoint
}

// Next slices the next due window out of the buffers into slots (one
// per buffer) and moves past it. It returns the window's bounds (a
// WindowTuple's Start and End), its coordinate (the start's bits for
// point, time and session windows, the absolute start index for count
// windows, 0 for the global window) and whether a window was due. drop[i] is the absolute index of bufs[i][0] (count
// windows only). A point tuple is each buffer's next unfired point,
// aligned by index, and starts and ends at the first one's time. With
// final the time windows up to the watermark, the open session and the
// global window are due too; a partial count window or point tuple
// never is. The bounds come back as plain values, not in a WindowTuple:
// a returned struct that large costs the batch replay a store-forwarding
// stall per window.
func (g *Grid) Next(a *WindowAssigner, bufs []series.Series, drop []int, final bool, slots []series.Series) (start, end float64, coord uint64, ok bool) {
	switch a.Kind {
	case KindPoint:
		// A point grid's position is NextIdx alone: it never sets Fired.
		i := g.NextIdx
		for j, b := range bufs {
			if i >= len(b) {
				return
			}
			slots[j] = b[i : i+1 : i+1]
		}
		g.NextIdx++
		t := bufs[0][i].T
		return t, t, math.Float64bits(t), true
	case KindTumblingTime, KindSlidingTime:
		start, end = g.Start, g.Start+a.Size
		if !g.HasOrigin || start > g.Watermark || !final && end > g.Watermark {
			return
		}
		for i, b := range bufs {
			slots[i] = b.SliceTime(start, end)
		}
		g.Start += a.Slide
		coord = math.Float64bits(start)
	case KindCount:
		lo := g.NextIdx
		for i, b := range bufs {
			off := lo - drop[i]
			if off+a.Count > len(b) {
				return
			}
			slots[i] = b[off : off+a.Count : off+a.Count]
		}
		g.NextIdx += a.CountSlide
		start, end, coord = float64(lo), float64(lo+a.Count), uint64(lo)
	case KindSession:
		// The session is the run of driver points from its start whose
		// gaps are at most Gap, complete once a later point ends it.
		if !g.SessOpen {
			return
		}
		d := bufs[0]
		lo := d.At(g.SessStart)
		if lo == len(d) {
			return
		}
		hi := lo + 1
		for hi < len(d) && d[hi].T-d[hi-1].T <= a.Gap {
			hi++
		}
		if hi == len(d) && !final {
			return
		}
		start, end = g.SessStart, d[hi-1].T
		for i, b := range bufs {
			slots[i] = b.SliceTimeInclusive(start, end)
		}
		g.SessOpen = hi < len(d)
		if g.SessOpen {
			g.SessStart, g.SessPrev = d[hi].T, d[hi].T
		}
		coord = math.Float64bits(start)
	case KindGlobal:
		if !final || g.Fired {
			return
		}
		copy(slots, bufs)
		start, end = span(bufs)
	default:
		return
	}
	g.Fired = true
	return start, end, coord, true
}

// Trim drops from the buffers, in place, every point no window after
// the grid's position can hold: the fired point tuples, points below the
// next time window's start or the open session's start, count points
// below the next window's index (advancing drop), and everything once
// the global window or the last session has fired. Each buffer keeps its
// array. A point buffer left no longer than what fired moves its rest to
// the front, copying no more points than fired, so inputs that keep pace
// never leave their arrays; one running far ahead advances its slice
// start instead.
func (g *Grid) Trim(a *WindowAssigner, bufs []series.Series, drop []int) {
	for i, b := range bufs {
		var n int
		switch a.Kind {
		case KindPoint:
			if n = g.NextIdx; len(b)-n > n {
				bufs[i] = b[n:]
				continue
			}
		case KindTumblingTime, KindSlidingTime:
			n = b.At(g.Start)
		case KindCount:
			n = min(g.NextIdx-drop[i], len(b))
			drop[i] += n
		case KindSession:
			n = len(b)
			if g.SessOpen {
				n = b.At(g.SessStart)
			}
		case KindGlobal:
			if g.Fired {
				n = len(b)
			}
		}
		if n > 0 {
			bufs[i] = b[:copy(b, b[n:])]
		}
	}
	if a.Kind == KindPoint {
		g.NextIdx = 0
	}
}

// span returns the union time span of time-sorted series; 0, 0 when
// every series is empty.
func span(ss []series.Series) (start, end float64) {
	init := false
	for _, s := range ss {
		if len(s) > 0 {
			a, b := s.Span()
			if !init || a < start {
				start = a
			}
			if !init || b > end {
				end = b
			}
			init = true
		}
	}
	return start, end
}

// replay runs a fresh Grid over whole series: the batch form of the
// windows the stream fires. The series are the grid's buffers and are
// never trimmed, so every window aliases its input. The first and last
// time of each series (of the driver alone for sessions) anchor the
// grid and set its watermark; Next with final then emits every window.
// The tuples are appended to buf[:0], so a caller that recycles its
// tuple buffer allocates only the windows' slots. A non-nil coords gets
// each tuple's coordinate from Next, index-aligned with the tuples.
func replay(a WindowAssigner, ss []series.Series, buf []WindowTuple, coords *[]uint64) []WindowTuple {
	if coords != nil {
		*coords = (*coords)[:0]
	}
	if len(ss) == 0 || !a.valid() {
		return buf[:0]
	}
	var g Grid
	anchors := ss
	if a.Kind == KindSession {
		anchors = ss[:1]
	}
	for _, s := range anchors {
		if len(s) > 0 {
			g.Admit(&a, s[0].T)
			g.Admit(&a, s[len(s)-1].T)
		}
	}
	// The windows' slots come from shared chunks, always fresh: results
	// keep them past the tuple buffer's reuse. Full-capacity sub-slices
	// keep tuples isolated. Chunks hold 4 tuples' slots, doubling to 64,
	// so a run of a few windows does not clear and collect 64.
	out := buf[:0]
	var flat []series.Series
	chunk := 4
	var dropBuf [2]int
	drop := dropBuf[:]
	if len(ss) > len(dropBuf) {
		drop = make([]int, len(ss))
	}
	drop = drop[:len(ss)]
	for k := len(ss); ; flat = flat[k:] {
		if len(flat) < k {
			flat = make([]series.Series, chunk*k)
			chunk = min(2*chunk, 64)
		}
		slots := flat[:k:k]
		start, end, coord, ok := g.Next(&a, ss, drop, true, slots)
		if !ok {
			return out
		}
		if coords != nil {
			*coords = append(*coords, coord)
		}
		// Fill the appended tuple in place: a tuple built aside and
		// copied in stalls on store forwarding.
		out = append(out, WindowTuple{})
		tu := &out[len(out)-1]
		tu.Windows, tu.Start, tu.End, tu.Index = slots, start, end, len(out)-1
	}
}
