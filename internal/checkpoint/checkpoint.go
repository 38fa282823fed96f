// Package checkpoint is the versioned binary codec behind the
// deterministic state lifecycle (DESIGN.md §4i): every stateful layer —
// resample extractions, keyed window groups, suite progress —
// serializes itself through one Encoder/Decoder pair,
// so a snapshot its owner takes between two calls into an operator
// restores to a run that is bit-identical to an uninterrupted one.
//
// The format follows the series codec's length-prefixed style: a fixed
// magic + version header, then primitive fields (fixed-width
// little-endian words for float bits, uvarints for counts
// and lengths, length-prefixed byte strings), closed by a CRC-32
// trailer over everything before it. Decoders carry a sticky error and
// validate every length against the remaining input, so corrupt or
// adversarial snapshots fail cleanly instead of panicking or
// over-allocating (FuzzCheckpointRoundTrip exercises both directions).
// They accept only the encoder's own spelling of a value — minimal
// uvarints, bools as 0 or 1 — so a document that decodes re-encodes to
// the same bytes.
//
// The Raw variants skip the header and trailer, for payloads read or
// written outside a framed document: framing and integrity belong to
// the outermost document only.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Magic identifies a checkpoint document; Version is bumped on any
// incompatible layout change. Decoders reject both mismatches — a
// checkpoint is a precise machine state, and a best-effort partial
// restore would silently break bit parity. Version 2 dropped the
// evaluator RNG positions and the seed-slot counter from stream-worker
// snapshots (window draws are seeded from the window coordinate now); a
// version-1 snapshot would resume under other seeds, so it is refused.
// Version 3 replaced the per-worker registry record with one operator's
// state written inline after the caller's own fields. Version 4 made that
// operator the Mux operator — a bucket list, each bucket's identity
// (group class, member names and constraints) before its state — and
// dropped the rejected-events counter. Version 5 writes one point-buffer
// set per window group and no extractions, which a restore rebuilds from
// the buffers: a window's finiteness proof is read from its own points
// now, so an extraction carries no history a snapshot must keep.
// Version 6 identifies each bucket member by its name, naive flag and
// template text (core.FormatTemplate) in place of the kernel spec's
// fields.
const (
	Magic   = "SNDCKP"
	Version = 6
)

// Encoder appends primitive values to a growing buffer. The zero value
// is a raw (headerless) encoder for nested payloads; NewEncoder starts
// a framed document.
type Encoder struct {
	buf    []byte
	framed bool
}

// NewEncoder returns an encoder primed with the document header.
func NewEncoder() *Encoder {
	e := &Encoder{framed: true}
	e.buf = append(e.buf, Magic...)
	var v [2]byte
	binary.LittleEndian.PutUint16(v[:], Version)
	e.buf = append(e.buf, v[:]...)
	return e
}

// NewRawEncoder returns a headerless encoder for payloads nested inside
// a framed document via Bytes.
func NewRawEncoder() *Encoder { return &Encoder{} }

// Finish seals the document and returns its bytes. Framed documents get
// the CRC-32 trailer; raw encoders return the payload as-is.
func (e *Encoder) Finish() []byte {
	if e.framed {
		var c [4]byte
		binary.LittleEndian.PutUint32(c[:], crc32.ChecksumIEEE(e.buf))
		e.buf = append(e.buf, c[:]...)
		e.framed = false
	}
	return e.buf
}

// Len returns the number of bytes written so far.
func (e *Encoder) Len() int { return len(e.buf) }

// U64 writes a fixed-width little-endian word — RNG state and other
// values whose full range matters.
func (e *Encoder) U64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

// Uvarint writes a variable-length count or length.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Int writes a non-negative int as a uvarint.
func (e *Encoder) Int(v int) { e.Uvarint(uint64(v)) }

// F64 writes the exact IEEE-754 bits of v.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool writes one byte.
func (e *Encoder) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

// Bytes writes a length-prefixed byte string.
func (e *Encoder) Bytes(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// String writes a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// F64s writes a length-prefixed slice of exact float bits.
func (e *Encoder) F64s(vs []float64) {
	e.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.F64(v)
	}
}

// Ints writes a length-prefixed slice of non-negative ints.
func (e *Encoder) Ints(vs []int) {
	e.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.Uvarint(uint64(v))
	}
}

// Decoder reads primitives back in write order. Errors are sticky: the
// first malformed field poisons the decoder and every later read
// returns zero values, so callers check Err once after a record.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder opens a framed document: it verifies the magic, version,
// and CRC-32 trailer before any field is read.
func NewDecoder(data []byte) (*Decoder, error) {
	if len(data) < len(Magic)+2+4 {
		return nil, fmt.Errorf("checkpoint: truncated document (%d bytes)", len(data))
	}
	body, trail := data[:len(data)-4], data[len(data)-4:]
	if string(body[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("checkpoint: bad magic")
	}
	if v := binary.LittleEndian.Uint16(body[len(Magic):]); v != Version {
		return nil, fmt.Errorf("checkpoint: version %d, want %d", v, Version)
	}
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(trail); got != want {
		return nil, fmt.Errorf("checkpoint: checksum mismatch (corrupt snapshot)")
	}
	return &Decoder{b: body[len(Magic)+2:]}, nil
}

// NewRawDecoder opens a headerless nested payload.
func NewRawDecoder(data []byte) *Decoder { return &Decoder{b: data} }

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.b) }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("checkpoint: "+format, args...)
	}
}

// take returns the next n bytes, or nil after poisoning the decoder.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b) {
		d.fail("field of %d bytes exceeds %d remaining", n, len(d.b))
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

// U64 reads a fixed-width word.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Uvarint reads a variable-length count. A padded encoding (a final
// zero byte after a continuation byte) is malformed: it decodes to a
// value the encoder would spell shorter.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 || (n > 1 && d.b[n-1] == 0) {
		d.fail("malformed uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Int reads a non-negative int, rejecting values that overflow int.
func (d *Decoder) Int() int {
	v := d.Uvarint()
	if v > math.MaxInt64/2 {
		d.fail("count %d out of range", v)
		return 0
	}
	return int(v)
}

// F64 reads exact float bits.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads one byte, which must be 0 or 1.
func (d *Decoder) Bool() bool {
	b := d.take(1)
	if b != nil && b[0] > 1 {
		d.fail("bool byte %#x", b[0])
		return false
	}
	return b != nil && b[0] == 1
}

// Bytes reads a length-prefixed byte string. The returned slice aliases
// the input buffer.
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if n > uint64(len(d.b)) {
		d.fail("byte string of %d exceeds %d remaining", n, len(d.b))
		return nil
	}
	return d.take(int(n))
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.Bytes()) }

// F64s reads a length-prefixed float slice, appending into dst[:0].
func (d *Decoder) F64s(dst []float64) []float64 {
	n := d.Uvarint()
	// Divide, don't multiply: n*8 overflows uint64 for hostile lengths
	// like 1<<62, slipping past the bound.
	if n > uint64(len(d.b))/8 {
		d.fail("float slice of %d exceeds %d remaining bytes", n, len(d.b))
		return dst[:0]
	}
	dst = dst[:0]
	for i := uint64(0); i < n && d.err == nil; i++ {
		dst = append(dst, d.F64())
	}
	return dst
}

// Ints reads a length-prefixed int slice, appending into dst[:0].
func (d *Decoder) Ints(dst []int) []int {
	n := d.Uvarint()
	if n > uint64(len(d.b)) { // every uvarint is at least one byte
		d.fail("int slice of %d exceeds %d remaining bytes", n, len(d.b))
		return dst[:0]
	}
	dst = dst[:0]
	for i := uint64(0); i < n && d.err == nil; i++ {
		dst = append(dst, d.Int())
	}
	return dst
}
