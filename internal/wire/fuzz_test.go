package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"testing"

	"sound/internal/stream"
)

// FuzzWireDecode throws arbitrary bytes at all three wire decoders.
// Invariants: no decoder may panic; every event the frame and NDJSON
// decoders return carries its key's stream.KeyHash; frames that do
// decode must round-trip bit-identically through the encoder; and every
// error must be sticky — after the first failure a decoder keeps
// returning the same error instead of resynchronizing into garbage.
func FuzzWireDecode(f *testing.F) {
	valid, err := AppendFrame(nil, []stream.Event{
		{Time: 1, Key: "k", Value: 2.5, SigUp: 0.5, SigDown: 0.25},
		{Time: 2, Key: "other", Value: math.Inf(-1)},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-2])        // torn write
	f.Add(valid[:frameHeaderSize])     // header only
	f.Add(append([]byte{}, "SNDF"...)) // bare magic
	f.Add([]byte("{\"t\":1,\"v\":2}\n{malformed"))
	f.Add([]byte("t,v\n1,2\n3,nope\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		func() {
			dec := NewFrameDecoder(bytes.NewReader(data))
			for {
				evs, err := dec.Next()
				if err != nil {
					if err != io.EOF {
						if _, again := dec.Next(); again != err {
							t.Fatalf("frame error not sticky: %v then %v", err, again)
						}
					}
					return
				}
				for i := range evs {
					checkHash(t, evs[i])
				}
				// A frame the decoder accepted must re-encode and decode
				// to the same events (canonical bytes may differ: the
				// wire tolerates non-minimal uvarints, the encoder does
				// not emit them).
				re, err := AppendFrame(nil, evs)
				if err != nil {
					t.Fatalf("re-encode of decoded frame failed: %v", err)
				}
				back, err := NewFrameDecoder(bytes.NewReader(re)).Next()
				if err != nil {
					t.Fatalf("re-decode failed: %v", err)
				}
				if len(back) != len(evs) {
					t.Fatalf("round trip changed event count: %d != %d", len(back), len(evs))
				}
				for i := range evs {
					if !eventsEqual(back[i], evs[i]) {
						t.Fatalf("round trip changed event %d: %+v != %+v", i, back[i], evs[i])
					}
				}
			}
		}()

		nd := NewNDJSONDecoder(bytes.NewReader(data))
		for {
			ev, err := nd.Next()
			if err == nil {
				checkHash(t, ev)
				continue
			}
			if err != io.EOF {
				if _, again := nd.Next(); again != err {
					t.Fatalf("ndjson error not sticky: %v then %v", err, again)
				}
			}
			break
		}

		sc := NewCSVScanner(bytes.NewReader(data))
		for {
			if _, err := sc.Next(); err != nil {
				if err != io.EOF {
					if _, again := sc.Next(); again != err {
						t.Fatalf("csv error not sticky: %v then %v", err, again)
					}
				}
				break
			}
		}
	})
}

// checkHash fails the test unless ev carries its key's hash, as every
// event a decoder returns must.
func checkHash(t *testing.T, ev stream.Event) {
	t.Helper()
	if ev.Hash != stream.KeyHash(ev.Key) {
		t.Fatalf("event of key %q carries hash %#x, want stream.KeyHash %#x", ev.Key, ev.Hash, stream.KeyHash(ev.Key))
	}
}

// FuzzNDJSONFastPath holds the NDJSON fast path to its fallback: when
// fastParse decides a line, encoding/json must decide it the same way —
// both reject it, or both accept it with the same key, the key's hash
// and the same bits in all four numeric fields. A line either path
// accepts carries its key's stream.KeyHash.
func FuzzNDJSONFastPath(f *testing.F) {
	for _, seed := range []string{
		`{"key":"k","t":1,"v":2,"sig_up":3,"sig_down":4}`,
		`{"key":"h7","t":1234567.891,"v":-98.125,"sig_up":0,"sig_down":1e-3}`,
		` { "t" : 1.5 , "v" : -2e3 , "x" : [1] } `,
		`{"t":1,"v":2,"a":true,"b":null,"c":"s","d":-0.0}`,
		`{"T":1,"V":2,"ſig_up":3}`,
		`{"key":"héllo","t":1,"v":2}`,
		`{"t":NaN,"v":01}`,
		`{"t":1,"v":2,}`,
		`{"v":2}`,
		`{"t":1e400,"v":2}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		fast, ok, ferr := NewNDJSONDecoder(nil).fastParse(line)
		slow, serr := NewNDJSONDecoder(nil).slowParse(line)
		if serr == nil {
			checkHash(t, slow)
		}
		if !ok {
			return
		}
		if (ferr != nil) != (serr != nil) {
			t.Fatalf("%q: fast path error %v, fallback error %v", line, ferr, serr)
		}
		if ferr != nil {
			return
		}
		checkHash(t, fast)
		if fast.Key != slow.Key || fast.Hash != slow.Hash ||
			math.Float64bits(fast.Time) != math.Float64bits(slow.Time) ||
			math.Float64bits(fast.Value) != math.Float64bits(slow.Value) ||
			math.Float64bits(fast.SigUp) != math.Float64bits(slow.SigUp) ||
			math.Float64bits(fast.SigDown) != math.Float64bits(slow.SigDown) {
			t.Fatalf("%q: fast path %+v, fallback %+v", line, fast, slow)
		}
	})
}

// FuzzParseNumber holds the JSON number scanner to strconv.ParseFloat
// bit for bit, and to the JSON grammar: every token it accepts is a
// valid JSON document, and every input that is one JSON number in
// float64 range is accepted whole.
func FuzzParseNumber(f *testing.F) {
	for _, seed := range []string{
		"0", "-0", "1", "-12.5", "1234567.891", "0.001", "1e22", "1e23",
		"9007199254740993", "4503599627370497.5", "123456789012345678901",
		"1.7976931348623157e308", "1e309", "5e-324", "1e-400", "0.1e-21",
		"1E+2", "01", ".5", "1.", "+1", "0x1p-2", "1_0", "-", "1e", "NaN",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, n, ok := scanNumber([]byte(s))
		want, err := strconv.ParseFloat(s, 64)
		isNumber := err == nil && len(s) > 0 && (s[0] == '-' || '0' <= s[0] && s[0] <= '9') && json.Valid([]byte(s))
		if isNumber && (!ok || n != len(s)) {
			t.Fatalf("%q: scanned %d bytes, ok %v; want the whole number", s, n, ok)
		}
		if !ok {
			return
		}
		tok := s[:n]
		if !json.Valid([]byte(tok)) {
			t.Fatalf("%q: accepted %q, which is not JSON", s, tok)
		}
		want, err = strconv.ParseFloat(tok, 64)
		if err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%q: scanned %v (%#x), strconv %v (%#x), %v", tok, got, math.Float64bits(got), want, math.Float64bits(want), err)
		}
	})
}
