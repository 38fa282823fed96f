package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"sound/internal/stream"
)

// Binary frame layout (all integers little-endian, matching the
// internal/checkpoint codec conventions; DESIGN.md §4k):
//
//	offset 0   magic "SNDF"
//	offset 4   u16 format version (currently 1)
//	offset 6   u32 payload length L
//	offset 10  payload:
//	             uvarint event count
//	             per event: uvarint key length, key bytes,
//	                        4 × u64 float bits (t, v, sig_up, sig_down)
//	offset 10+L  u32 CRC-32 (IEEE) over bytes [0, 10+L)
//
// Floats travel as exact IEEE-754 bit patterns (including NaN and ±Inf
// payloads), so a decoded event is bit-identical to the encoded one —
// the same contract the checkpoint codec keeps for serialized operator
// state.
const (
	frameMagic      = "SNDF"
	frameVersion    = 1
	frameHeaderSize = 10

	// MaxFramePayload bounds one frame's payload. A corrupt or hostile
	// length field must not make the decoder buffer gigabytes before the
	// CRC can reject the frame.
	MaxFramePayload = 1 << 24

	// MaxKeyLen bounds one event key on the wire.
	MaxKeyLen = 1 << 12
)

// AppendFrame appends one encoded frame carrying evs to dst.
func AppendFrame(dst []byte, evs []stream.Event) ([]byte, error) {
	base := len(dst)
	dst = append(dst, frameMagic...)
	dst = binary.LittleEndian.AppendUint16(dst, frameVersion)
	dst = append(dst, 0, 0, 0, 0) // payload length, patched below
	dst = binary.AppendUvarint(dst, uint64(len(evs)))
	for i := range evs {
		ev := &evs[i]
		if len(ev.Key) > MaxKeyLen {
			return dst[:base], fmt.Errorf("wire: key of %d bytes exceeds the %d-byte limit", len(ev.Key), MaxKeyLen)
		}
		dst = binary.AppendUvarint(dst, uint64(len(ev.Key)))
		dst = append(dst, ev.Key...)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(ev.Time))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(ev.Value))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(ev.SigUp))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(ev.SigDown))
	}
	payload := len(dst) - base - frameHeaderSize
	if payload > MaxFramePayload {
		return dst[:base], fmt.Errorf("wire: frame payload of %d bytes exceeds %d (split the batch)", payload, MaxFramePayload)
	}
	binary.LittleEndian.PutUint32(dst[base+6:], uint32(payload))
	crc := crc32.ChecksumIEEE(dst[base:])
	return binary.LittleEndian.AppendUint32(dst, crc), nil
}

// FrameEncoder writes binary frames to a stream through one reused
// buffer.
type FrameEncoder struct {
	w   io.Writer
	buf []byte
}

func NewFrameEncoder(w io.Writer) *FrameEncoder { return &FrameEncoder{w: w} }

// Encode writes one frame carrying evs. Events are copied out during
// the call; the caller keeps ownership of the slice.
func (e *FrameEncoder) Encode(evs []stream.Event) error {
	buf, err := AppendFrame(e.buf[:0], evs)
	if err != nil {
		return err
	}
	e.buf = buf
	_, err = e.w.Write(buf)
	return err
}

// FrameDecoder reads binary frames from a stream with zero per-event
// allocations in steady state: the payload buffer, the event slice, and
// the interned key strings are all reused across frames. Every decoded
// event carries its key's hash (Event.Hash).
//
// Every error is sticky. In particular a short read inside a frame (a
// torn write at the producer, a dropped connection) surfaces as
// io.ErrUnexpectedEOF and poisons the decoder: a length-prefixed stream
// has no resynchronization point, so decoding must stop rather than
// read garbage at a frame boundary that no longer exists. A clean EOF
// before any header byte ends the stream with io.EOF.
type FrameDecoder struct {
	r    io.Reader
	hdr  [frameHeaderSize]byte
	body []byte // payload + CRC trailer, reused
	evs  []stream.Event
	keys intern
	err  error
}

func NewFrameDecoder(r io.Reader) *FrameDecoder { return &FrameDecoder{r: r} }

// Reset rebinds the decoder to a new stream, clearing the sticky error
// but keeping the buffers and the key intern table warm.
func (d *FrameDecoder) Reset(r io.Reader) {
	d.r = r
	d.err = nil
}

// Next returns the events of the next frame. The slice is reused by
// the following Next call; the caller must consume (or copy) it first.
// io.EOF signals a clean end of stream.
func (d *FrameDecoder) Next() ([]stream.Event, error) {
	if d.err != nil {
		return nil, d.err
	}
	evs, err := d.next()
	if err != nil {
		d.err = err
		return nil, err
	}
	return evs, nil
}

func (d *FrameDecoder) next() ([]stream.Event, error) {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: truncated frame header: %w", err)
	}
	if string(d.hdr[:4]) != frameMagic {
		return nil, fmt.Errorf("wire: bad frame magic %q", d.hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(d.hdr[4:6]); v != frameVersion {
		return nil, fmt.Errorf("wire: unsupported frame version %d (want %d)", v, frameVersion)
	}
	length := binary.LittleEndian.Uint32(d.hdr[6:10])
	if length > MaxFramePayload {
		return nil, fmt.Errorf("wire: frame payload length %d exceeds %d", length, MaxFramePayload)
	}
	need := int(length) + 4
	if cap(d.body) < need {
		d.body = make([]byte, need)
	}
	d.body = d.body[:need]
	if _, err := io.ReadFull(d.r, d.body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("wire: truncated frame body: %w", err)
	}
	payload := d.body[:length]
	crc := crc32.ChecksumIEEE(d.hdr[:])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	if got := binary.LittleEndian.Uint32(d.body[length:]); got != crc {
		return nil, fmt.Errorf("wire: frame CRC mismatch (stored %08x, computed %08x)", got, crc)
	}
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return nil, fmt.Errorf("wire: bad frame event count")
	}
	// Each event takes at least one key-length byte plus 32 float bytes;
	// a count the payload cannot hold is rejected before any parsing.
	if count > uint64(len(payload)-n)/33 {
		return nil, fmt.Errorf("wire: frame event count %d exceeds payload capacity", count)
	}
	cur := n
	evs := d.evs[:0]
	for i := uint64(0); i < count; i++ {
		klen, n := binary.Uvarint(payload[cur:])
		if n <= 0 || klen > MaxKeyLen || uint64(len(payload)-cur-n) < klen+32 {
			return nil, fmt.Errorf("wire: event %d: bad key length", i)
		}
		cur += n
		key, hash := d.keys.get(payload[cur : cur+int(klen)])
		cur += int(klen)
		evs = append(evs, stream.Event{
			Time:    math.Float64frombits(binary.LittleEndian.Uint64(payload[cur:])),
			Key:     key,
			Hash:    hash,
			Value:   math.Float64frombits(binary.LittleEndian.Uint64(payload[cur+8:])),
			SigUp:   math.Float64frombits(binary.LittleEndian.Uint64(payload[cur+16:])),
			SigDown: math.Float64frombits(binary.LittleEndian.Uint64(payload[cur+24:])),
		})
		cur += 32
	}
	if cur != len(payload) {
		return nil, fmt.Errorf("wire: %d trailing bytes after %d events", len(payload)-cur, count)
	}
	d.evs = evs
	return evs, nil
}
