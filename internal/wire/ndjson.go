package wire

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"sound/internal/stream"
)

// NDJSON event shape: one JSON object per line, with the field names of
// the series JSON codec plus the routing key —
//
//	{"key":"host7","t":12.5,"v":98.2,"sig_up":1.5,"sig_down":2}
//
// t and v are required; key and the uncertainty fields default to
// zero values. Unknown scalar fields are ignored.

// NDJSONDecoder reads NDJSON events with zero allocations per event in
// steady state. Lines are scanned by a hand-rolled parser over the
// reused line buffer; a line the fast path cannot prove it handles —
// escape sequences in strings, nested objects or arrays, non-scalar
// unknown fields — is re-parsed with encoding/json, so the fast path
// never changes what is accepted, only what it costs. Errors are
// sticky; blank lines are skipped.
type NDJSONDecoder struct {
	lr   *lineReader
	keys intern
	line int64
	err  error
}

func NewNDJSONDecoder(r io.Reader) *NDJSONDecoder {
	return &NDJSONDecoder{lr: newLineReader(r, 4096)}
}

// Reset rebinds the decoder to a new stream, keeping the buffers and
// the key intern table warm.
func (d *NDJSONDecoder) Reset(r io.Reader) {
	d.lr.reset(r)
	d.line = 0
	d.err = nil
}

// Next returns the next event, or io.EOF at a clean end of stream.
func (d *NDJSONDecoder) Next() (stream.Event, error) {
	if d.err != nil {
		return stream.Event{}, d.err
	}
	for {
		b, err := d.lr.next()
		if err != nil {
			d.err = err
			return stream.Event{}, err
		}
		d.line++
		if len(trimSpace(b)) == 0 {
			continue
		}
		ev, ok, err := d.fastParse(b)
		if !ok {
			ev, err = d.slowParse(b)
		}
		if err != nil {
			d.err = fmt.Errorf("wire: ndjson line %d: %w", d.line, err)
			return stream.Event{}, d.err
		}
		return ev, nil
	}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' }

func trimSpace(b []byte) []byte {
	for len(b) > 0 && isSpace(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && isSpace(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

// fastParse scans one flat JSON object without allocating. ok=false
// defers the line to the stdlib fallback; err is only returned for
// lines the fast path fully understood and can reject authoritatively
// (it must match what the fallback would say, so rejections are never
// fast-path-only).
func (d *NDJSONDecoder) fastParse(b []byte) (ev stream.Event, ok bool, err error) {
	i := 0
	skip := func() {
		for i < len(b) && isSpace(b[i]) {
			i++
		}
	}
	// scanString returns the contents of a quoted string starting at
	// b[i] == '"'; any escape sequence punts to the fallback.
	scanString := func() ([]byte, bool) {
		if i >= len(b) || b[i] != '"' {
			return nil, false
		}
		start := i + 1
		for j := start; j < len(b); j++ {
			switch b[j] {
			case '\\':
				return nil, false
			case '"':
				i = j + 1
				return b[start:j], true
			}
		}
		return nil, false
	}
	skip()
	if i >= len(b) || b[i] != '{' {
		return ev, false, nil
	}
	i++
	var seenT, seenV bool
	for {
		skip()
		if i < len(b) && b[i] == '}' {
			i++
			break
		}
		name, sok := scanString()
		if !sok {
			return ev, false, nil
		}
		skip()
		if i >= len(b) || b[i] != ':' {
			return ev, false, nil
		}
		i++
		skip()
		if i >= len(b) {
			return ev, false, nil
		}
		if b[i] == '"' {
			val, sok := scanString()
			if !sok {
				return ev, false, nil
			}
			if string(name) == "key" {
				ev.Key = d.keys.get(val)
			}
		} else if b[i] == '{' || b[i] == '[' {
			return ev, false, nil
		} else {
			start := i
			for i < len(b) && b[i] != ',' && b[i] != '}' && !isSpace(b[i]) {
				i++
			}
			tok := b[start:i]
			var f float64
			switch string(name) {
			case "t", "v", "sig_up", "sig_down":
				if f, err = parseFloatBytes(tok); err != nil {
					// Could be null/true/false — shapes whose handling
					// belongs to one place, the fallback.
					return stream.Event{}, false, nil
				}
			default:
				// Unknown scalar field: any bare token is skippable.
				if len(tok) == 0 {
					return ev, false, nil
				}
			}
			switch string(name) {
			case "t":
				ev.Time, seenT = f, true
			case "v":
				ev.Value, seenV = f, true
			case "sig_up":
				ev.SigUp = f
			case "sig_down":
				ev.SigDown = f
			}
		}
		skip()
		if i < len(b) && b[i] == ',' {
			i++
			continue
		}
		if i < len(b) && b[i] == '}' {
			continue
		}
		return stream.Event{}, false, nil
	}
	skip()
	if i != len(b) {
		return stream.Event{}, false, nil
	}
	if !seenT || !seenV {
		return stream.Event{}, true, fmt.Errorf("missing required field %q", missingField(seenT))
	}
	return ev, true, nil
}

func missingField(seenT bool) string {
	if !seenT {
		return "t"
	}
	return "v"
}

// eventJSON is the stdlib-fallback shape. Pointer fields distinguish
// absent/null from zero, so the fallback enforces the same
// required-field rule as the fast path.
type eventJSON struct {
	T       *float64 `json:"t"`
	V       *float64 `json:"v"`
	SigUp   float64  `json:"sig_up"`
	SigDown float64  `json:"sig_down"`
	Key     string   `json:"key"`
}

func (d *NDJSONDecoder) slowParse(b []byte) (stream.Event, error) {
	var ej eventJSON
	if err := json.Unmarshal(b, &ej); err != nil {
		return stream.Event{}, err
	}
	if ej.T == nil || ej.V == nil {
		return stream.Event{}, fmt.Errorf("missing required field %q", missingField(ej.T != nil))
	}
	return stream.Event{
		Time:    *ej.T,
		Key:     d.keys.get([]byte(ej.Key)),
		Value:   *ej.V,
		SigUp:   ej.SigUp,
		SigDown: ej.SigDown,
	}, nil
}

// AppendNDJSON appends one event as an NDJSON line (with trailing
// newline) to dst. Floats are formatted shortest-roundtrip, so a
// decoded event carries the exact bits that were encoded. Keys
// containing quotes or control bytes go through the stdlib escaper.
func AppendNDJSON(dst []byte, ev stream.Event) []byte {
	dst = append(dst, `{"key":`...)
	dst = appendJSONString(dst, ev.Key)
	dst = append(dst, `,"t":`...)
	dst = appendJSONFloat(dst, ev.Time)
	dst = append(dst, `,"v":`...)
	dst = appendJSONFloat(dst, ev.Value)
	dst = append(dst, `,"sig_up":`...)
	dst = appendJSONFloat(dst, ev.SigUp)
	dst = append(dst, `,"sig_down":`...)
	dst = appendJSONFloat(dst, ev.SigDown)
	return append(dst, "}\n"...)
}

func appendJSONFloat(dst []byte, f float64) []byte {
	// JSON has no NaN/Inf literals; mirror what the checker's group
	// state would see after a stdlib round-trip by rejecting at encode
	// time is not an option here (append API), so encode as null — the
	// decoder then rejects the line loudly instead of silently zeroing.
	if f != f || f > 1.7976931348623157e308 || f < -1.7976931348623157e308 {
		return append(dst, "null"...)
	}
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}

func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= 0x80 {
			b, _ := json.Marshal(s)
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
