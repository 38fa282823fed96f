// Package wire is the ingest comms layer: codecs that turn byte streams
// into stream.Event frames at wire speed, and back.
//
// Three formats share the package (DESIGN.md §4k):
//
//   - a length-prefixed binary frame codec (FrameEncoder/FrameDecoder)
//     following the internal/checkpoint conventions — magic, version,
//     fixed little-endian float bits, CRC-32 trailer — for the TCP
//     ingest path;
//   - an NDJSON codec (NDJSONDecoder, AppendNDJSON) with a hand-rolled
//     fast path that never touches encoding/json unless a line carries
//     escape sequences or an unusual shape;
//   - a streaming CSV scanner (CSVScanner) in the t,v[,sig_up
//     [,sig_down]] layout of series.ReadCSV, for O(window)-memory file
//     replays.
//
// All three decoders are allocation-free per event in steady state: they
// scan reused buffers, return reused event slices, and intern key
// strings so a bounded key universe costs one allocation per key, ever.
// Decoder errors are sticky — a torn write, an oversized length, or a
// CRC mismatch poisons the decoder rather than resynchronizing into
// garbage — and hostile input must never panic (FuzzWireDecode).
package wire

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"unsafe"
)

// maxLine bounds one NDJSON or CSV line. A missing newline in hostile
// input must not buffer without bound.
const maxLine = 1 << 20

// maxInterned caps the key intern table. Past the cap new keys fall
// back to a per-event copy — correctness is unchanged, only the
// zero-alloc guarantee degrades — so hostile key churn cannot pin
// unbounded memory in a long-lived decoder.
const maxInterned = 1 << 16

// intern deduplicates key strings. The map index with a string
// conversion compiles to a no-allocation lookup, so a hit (the steady
// state: a bounded set of series keys) costs nothing.
type intern struct {
	m map[string]string
}

func (it *intern) get(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := it.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if it.m == nil {
		it.m = make(map[string]string)
	}
	if len(it.m) < maxInterned {
		it.m[s] = s
	}
	return s
}

// unsafeString views a byte slice as a string for read-only use inside
// one call (strconv.ParseFloat, map lookups). The caller must not
// retain the result past the life of b's backing array.
func unsafeString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

func parseFloatBytes(b []byte) (float64, error) {
	return strconv.ParseFloat(unsafeString(b), 64)
}

// lineReader yields '\n'-terminated lines from an io.Reader through one
// reused buffer: the returned slice aliases the buffer and is valid only
// until the next call. A final unterminated line is returned before
// io.EOF; a trailing '\r' is stripped. Errors other than a clean EOF are
// sticky.
type lineReader struct {
	r          io.Reader
	buf        []byte
	start, end int
	rerr       error // pending reader error, delivered after buffered data
	fail       error // sticky fatal error
}

func newLineReader(r io.Reader, sizeHint int) *lineReader {
	if sizeHint <= 0 {
		sizeHint = 4096
	}
	return &lineReader{r: r, buf: make([]byte, sizeHint)}
}

// reset rebinds the reader and clears all state, keeping the buffer.
func (lr *lineReader) reset(r io.Reader) {
	lr.r, lr.start, lr.end, lr.rerr, lr.fail = r, 0, 0, nil, nil
}

func (lr *lineReader) next() ([]byte, error) {
	if lr.fail != nil {
		return nil, lr.fail
	}
	for {
		if i := bytes.IndexByte(lr.buf[lr.start:lr.end], '\n'); i >= 0 {
			line := lr.buf[lr.start : lr.start+i]
			lr.start += i + 1
			return trimCR(line), nil
		}
		if lr.rerr != nil {
			if lr.rerr != io.EOF {
				lr.fail = lr.rerr
				return nil, lr.fail
			}
			if lr.start == lr.end {
				return nil, io.EOF
			}
			line := lr.buf[lr.start:lr.end]
			lr.start = lr.end
			return trimCR(line), nil
		}
		// No newline buffered and the reader is live: compact, grow if
		// the buffer is full, refill.
		if lr.start > 0 {
			lr.end = copy(lr.buf, lr.buf[lr.start:lr.end])
			lr.start = 0
		}
		if lr.end == len(lr.buf) {
			if len(lr.buf) >= maxLine {
				lr.fail = fmt.Errorf("wire: line exceeds %d bytes", maxLine)
				return nil, lr.fail
			}
			grown := make([]byte, min(2*len(lr.buf), maxLine))
			copy(grown, lr.buf[:lr.end])
			lr.buf = grown
		}
		n, err := lr.r.Read(lr.buf[lr.end:len(lr.buf):len(lr.buf)])
		lr.end += n
		if err != nil {
			lr.rerr = err
		}
	}
}

func trimCR(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\r' {
		return line[:n-1]
	}
	return line
}
