package resample

import (
	"fmt"

	"sound/internal/checkpoint"
	"sound/internal/rng"
)

// This file is the resampling layer's half of the deterministic state
// lifecycle (DESIGN.md §4i): the one piece of resampling state a
// bit-identical restore must carry across a process boundary is a live
// window group's extraction, magnitude accumulators included. A
// Resampler itself carries nothing over: the stream operators reseed it
// per window, and everything else it holds is derived scratch that the
// next Prime/Draw rebuilds identically.

// State returns the resampler's random-stream position, so parity tests
// can assert two draw paths consumed the stream identically.
func (rs *Resampler) State() rng.State { return rs.r.State() }

// EncodeTo serializes the extraction. The SoA arrays (values, directional
// uncertainties, class tags) are written in full, and the magnitude
// accumulators are written as exact float bits: TrimFront deliberately
// keeps accV/accS as loose upper bounds rather than re-tightening them,
// so they are NOT reconstructible from the surviving points — a restore
// that re-extracted would classify Safe() differently from the run it
// resumes. The run list and class-mix bitmask, by contrast, are pure
// functions of the tags and are rebuilt on decode.
func (x *Extraction) EncodeTo(enc *checkpoint.Encoder) {
	enc.F64s(x.Vals)
	enc.F64s(x.SigUp)
	enc.F64s(x.SigDown)
	tags := make([]byte, len(x.Tags))
	for i, t := range x.Tags {
		tags[i] = byte(t)
	}
	enc.Bytes(tags)
	enc.F64(x.accV)
	enc.F64(x.accS)
}

// DecodeFrom restores the extraction from its encoded form, rebuilding
// the run list and class bitmask from the tags and adopting the encoded
// magnitude accumulators verbatim.
func (x *Extraction) DecodeFrom(dec *checkpoint.Decoder) error {
	x.Vals = dec.F64s(x.Vals)
	x.SigUp = dec.F64s(x.SigUp)
	x.SigDown = dec.F64s(x.SigDown)
	tags := dec.Bytes()
	accV, accS := dec.F64(), dec.F64()
	if err := dec.Err(); err != nil {
		return err
	}
	n := len(x.Vals)
	if len(x.SigUp) != n || len(x.SigDown) != n || len(tags) != n {
		return fmt.Errorf("resample: extraction arrays misaligned (%d/%d/%d/%d)",
			n, len(x.SigUp), len(x.SigDown), len(tags))
	}
	x.Tags = x.Tags[:0]
	x.runs = x.runs[:0]
	seen := uint8(0)
	for i, b := range tags {
		if b > byte(ClassAsymmetric) {
			return fmt.Errorf("resample: unknown point class %d", b)
		}
		t := Class(b)
		x.Tags = append(x.Tags, t)
		seen |= 1 << t
		if m := len(x.runs); m > 0 && x.runs[m-1].Class == t {
			x.runs[m-1].Hi = i + 1
			continue
		}
		x.runs = append(x.runs, classRun{Lo: i, Hi: i + 1, Class: t})
	}
	x.seen = seen
	x.accV, x.accS = accV, accS
	return nil
}
