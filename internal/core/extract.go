package core

import "sound/internal/series"

// windowTuples materializes the windowing function's tuples. A built-in
// window replays its grid into *buf: only the tuple structs are
// recycled — the window slices they carry always get fresh backing,
// because Results retain those past the buffer's reuse. A custom
// Windower's own Windows runs. The returned slice is only valid until
// *buf is next reused.
func windowTuples(win Windower, ss []series.Series, buf *[]WindowTuple) []WindowTuple {
	a := ClassifyWindow(win)
	if a.Kind == KindCustom {
		return win.Windows(ss)
	}
	*buf = replay(a, ss, *buf)
	return *buf
}
