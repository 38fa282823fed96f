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

	"sound/internal/stream"
)

// maxLine bounds one NDJSON or CSV line. A missing newline in hostile
// input must not buffer without bound.
const maxLine = 1 << 20

// maxInterned caps the key intern table. Past the cap new keys fall
// back to a per-event copy — correctness is unchanged, only the
// zero-alloc guarantee degrades — so hostile key churn cannot pin
// unbounded memory in a long-lived decoder.
const maxInterned = 1 << 16

// intern deduplicates key strings in a table indexed by stream.KeyHash:
// a hit (the steady state: a bounded set of series keys) hashes a view
// of the decoder's buffer and allocates nothing.
type intern struct {
	t stream.KeyTable[struct{}]
}

// emptyKeyHash is stream.KeyHash(""), the hash of an event without a key.
var emptyKeyHash = stream.KeyHash("")

// get returns the interned copy of key b and its stream.KeyHash. The
// hash is the one the table lookup computes anyway: a decoder stores it
// in Event.Hash, so nothing downstream hashes the key again. It is never
// read from the wire, so a client cannot choose a shard or a seed.
func (it *intern) get(b []byte) (string, uint64) {
	if len(b) == 0 {
		return "", emptyKeyHash
	}
	h := stream.KeyHash(unsafeString(b))
	if s, ok := it.t.Key(h, unsafeString(b)); ok {
		return s, h
	}
	s := string(b)
	if it.t.Len() < maxInterned {
		it.t.Put(h, s, struct{}{})
	}
	return s, h
}

// unsafeString views a byte slice as a string for read-only use inside
// one call (strconv.ParseFloat, key lookups). The caller must not
// retain the result past the life of b's backing array.
func unsafeString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// scanNumber reads the JSON number (RFC 8259 §6) that starts b and
// returns its value and byte length. The number ends at the first byte
// the grammar cannot extend it with; whether that byte may follow a
// number is the caller's business. ok is false when b does not start
// with a JSON number, or when its value is out of float64 range (which
// strconv.ParseFloat and encoding/json reject).
//
// The scan builds the decimal mantissa as it checks the grammar. A
// mantissa below 2^53 scaled by 10^±22 at most is converted with one
// IEEE multiply or divide of two exact operands, which is correctly
// rounded: the exact case strconv.ParseFloat itself takes, so the bits
// are the same. Every other number goes to strconv.ParseFloat.
func scanNumber(b []byte) (f float64, n int, ok bool) {
	i := 0
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var mant uint64
	nd, exp := 0, 0 // significant digits in mant; decimal exponent of mant
	long := false   // more significant digits than mant holds
	if i >= len(b) {
		return 0, 0, false
	}
	switch c := b[i]; {
	case c == '0':
		i++
	case '1' <= c && c <= '9':
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if nd < 19 {
				mant = mant*10 + uint64(b[i]-'0')
				nd++
			} else {
				long = true
			}
		}
	default:
		return 0, 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		start := i
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if nd < 19 {
				mant = mant*10 + uint64(b[i]-'0')
				if mant != 0 {
					nd++
				}
				exp--
			} else {
				long = true
			}
		}
		if i == start {
			return 0, 0, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		start, e := i, 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e < 1e4 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == start {
			return 0, 0, false
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	if !long && mant < 1<<53 && -22 <= exp && exp <= 22 {
		f = float64(mant)
		if exp > 0 {
			f *= exactPow10[exp]
		} else if exp < 0 {
			f /= exactPow10[-exp]
		}
		if neg {
			f = -f
		}
		return f, i, true
	}
	f, err := strconv.ParseFloat(unsafeString(b[:i]), 64)
	return f, i, err == nil
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
