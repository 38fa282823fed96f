package core

import "sound/internal/series"

// windowerInto is the allocation-avoiding form of Windower implemented by
// the index-based windowing functions whose tuple count is known up
// front: it materializes the tuples into a caller-provided buffer. Only
// the tuple structs are recycled — the window slices they carry always
// get fresh backing, because Results retain those past the buffer's
// reuse.
type windowerInto interface {
	windowsInto(ss []series.Series, buf []WindowTuple) []WindowTuple
}

// tupleSlice returns buf resized to n tuples, reallocating only when the
// capacity is short.
func tupleSlice(buf []WindowTuple, n int) []WindowTuple {
	if cap(buf) < n {
		return make([]WindowTuple, n)
	}
	return buf[:n]
}

// windowTuples materializes the windowing function's tuples, into *buf
// when the Windower supports it. The returned slice is only valid until
// *buf is next reused.
func windowTuples(win Windower, ss []series.Series, buf *[]WindowTuple) []WindowTuple {
	if wi, ok := win.(windowerInto); ok {
		*buf = wi.windowsInto(ss, *buf)
		return *buf
	}
	return win.Windows(ss)
}
