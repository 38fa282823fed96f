package resample

import "sound/internal/rng"

// State returns the resampler's random-stream position, so parity tests
// can assert two draw paths consumed the stream identically. Nothing else
// of the resampling layer crosses a process boundary (DESIGN.md §4i): the
// stream operators reseed a Resampler per window, and an Extraction is a
// pure function of one window's points, built when that window is
// evaluated.
func (rs *Resampler) State() rng.State { return rs.r.State() }
