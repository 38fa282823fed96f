package core

import "sound/internal/series"

// batchWindows is a batch run's window scratch: the windowing function's
// tuples and, index-aligned, each tuple's coordinate — the one the
// stream seeds the same window's draws from (Grid.Next's coordinate; a
// custom Windower, which runs in batch only, gives its tuple index).
type batchWindows struct {
	tuples []WindowTuple
	coords []uint64
}

// fill materializes the windowing function's tuples and their
// coordinates. A built-in window replays its grid into the scratch: only
// the tuple structs are recycled — the window slices they carry always
// get fresh backing, because Results retain those past the scratch's
// reuse. A custom Windower's own Windows runs. The returned slice is only
// valid until the scratch is next filled.
func (b *batchWindows) fill(win Windower, ss []series.Series) []WindowTuple {
	a := ClassifyWindow(win)
	if a.Kind != KindCustom {
		b.tuples = replay(a, ss, b.tuples, &b.coords)
		return b.tuples
	}
	tuples := win.Windows(ss)
	b.coords = b.coords[:0]
	for _, tu := range tuples {
		b.coords = append(b.coords, uint64(tu.Index))
	}
	return tuples
}
