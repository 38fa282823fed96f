package core

import "sound/internal/series"

// windowTuples materializes the windowing function's tuples. A
// PointWindow's tuple count is known up front, so its tuples go into
// *buf: only the tuple structs are recycled — the window slices they
// carry always get fresh backing, because Results retain those past the
// buffer's reuse. The returned slice is only valid until *buf is next
// reused.
func windowTuples(win Windower, ss []series.Series, buf *[]WindowTuple) []WindowTuple {
	if pw, ok := win.(PointWindow); ok {
		*buf = pw.windowsInto(ss, *buf)
		return *buf
	}
	return win.Windows(ss)
}
