package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"

	"sound/internal/series"
	"sound/internal/stream"
)

func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func eventsEqual(a, b stream.Event) bool {
	return a.Key == b.Key && bitsEqual(a.Time, b.Time) && bitsEqual(a.Value, b.Value) &&
		bitsEqual(a.SigUp, b.SigUp) && bitsEqual(a.SigDown, b.SigDown)
}

func testFrames() [][]stream.Event {
	return [][]stream.Event{
		{
			{Time: 1, Key: "k", Value: 2.5, SigUp: 0.25, SigDown: 0.125},
			{Time: 2, Key: "", Value: -0.0, SigUp: math.Inf(1), SigDown: math.NaN()},
			{Time: 1e300, Key: "a-much-longer-key/with/path#chars", Value: -1e-300},
		},
		{}, // empty frame is legal
		{{Time: 3, Key: "k", Value: 4}},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := NewFrameEncoder(&buf)
	frames := testFrames()
	for _, fr := range frames {
		if err := enc.Encode(fr); err != nil {
			t.Fatalf("Encode: %v", err)
		}
	}
	dec := NewFrameDecoder(&buf)
	for fi, want := range frames {
		got, err := dec.Next()
		if err != nil {
			t.Fatalf("frame %d: Next: %v", fi, err)
		}
		if len(got) != len(want) {
			t.Fatalf("frame %d: got %d events, want %d", fi, len(got), len(want))
		}
		for i := range want {
			if !eventsEqual(got[i], want[i]) {
				t.Errorf("frame %d event %d: got %+v, want %+v", fi, i, got[i], want[i])
			}
		}
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("after last frame: got %v, want io.EOF", err)
	}
}

// TestFrameDecoderRejects covers the torn-write/short-read satellite:
// truncated, oversized, and corrupted frames must fail loudly, stick,
// and never panic.
func TestFrameDecoderRejects(t *testing.T) {
	valid, err := AppendFrame(nil, testFrames()[0])
	if err != nil {
		t.Fatal(err)
	}
	oversized := append([]byte(frameMagic), 1, 0, 0xff, 0xff, 0xff, 0xff)
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"torn header", valid[:5], "truncated frame header"},
		{"torn body", valid[:len(valid)-3], "truncated frame body"},
		{"bad magic", append([]byte("XXXX"), valid[4:]...), "bad frame magic"},
		{"bad version", append([]byte("SNDF\x07\x00"), valid[6:]...), "unsupported frame version"},
		{"oversized length", oversized, "exceeds"},
		{"crc flip", flipByte(valid, len(valid)-6), "CRC mismatch"},
		{"header flip", flipByte(valid, 7), ""}, // length corrupt: body read fails or CRC fails
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dec := NewFrameDecoder(bytes.NewReader(tc.data))
			_, err := dec.Next()
			if err == nil || err == io.EOF {
				t.Fatalf("decoded corrupt frame: err=%v", err)
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if _, again := dec.Next(); again != err {
				t.Fatalf("error not sticky: first %v, then %v", err, again)
			}
		})
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xff
	return out
}

// TestFrameDecodeZeroAlloc pins the tentpole's steady-state contract:
// once the payload buffer, event slice, and key intern table are warm,
// decoding allocates nothing per frame.
func TestFrameDecodeZeroAlloc(t *testing.T) {
	var buf bytes.Buffer
	enc := NewFrameEncoder(&buf)
	evs := make([]stream.Event, 64)
	for i := range evs {
		evs[i] = stream.Event{Time: float64(i), Key: fmt.Sprintf("key-%d", i%8), Value: float64(i) * 1.5, SigUp: 1, SigDown: 2}
	}
	for f := 0; f < 4; f++ {
		if err := enc.Encode(evs); err != nil {
			t.Fatal(err)
		}
	}
	data := buf.Bytes()
	r := bytes.NewReader(data)
	dec := NewFrameDecoder(r)
	decodeAll := func() {
		r.Reset(data)
		dec.Reset(r)
		for {
			fr, err := dec.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(fr) != len(evs) {
				t.Fatalf("got %d events, want %d", len(fr), len(evs))
			}
		}
	}
	decodeAll() // warm buffers and interner
	if allocs := testing.AllocsPerRun(20, decodeAll); allocs > 0 {
		t.Fatalf("frame decode allocates %.1f times per pass, want 0", allocs)
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	var buf []byte
	want := testFrames()[0]
	// NaN/Inf have no JSON form; AppendNDJSON encodes them as null and
	// the decoder rejects — test them separately below.
	want[1].SigUp, want[1].SigDown = 0.5, 1.25
	for _, ev := range want {
		buf = AppendNDJSON(buf, ev)
	}
	dec := NewNDJSONDecoder(bytes.NewReader(buf))
	for i, w := range want {
		got, err := dec.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if !eventsEqual(got, w) {
			t.Errorf("event %d: got %+v, want %+v", i, got, w)
		}
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("got %v, want io.EOF", err)
	}

	nan := AppendNDJSON(nil, stream.Event{Time: 1, Value: math.NaN()})
	if _, err := NewNDJSONDecoder(bytes.NewReader(nan)).Next(); err == nil {
		t.Fatal("NaN value encoded as null was not rejected")
	}
}

// chunkReader hands out one prepared chunk per Read.
type chunkReader struct {
	chunks [][]byte
	reads  int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if c.reads == len(c.chunks) {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[c.reads])
	c.reads++
	return n, nil
}

// TestNDJSONDecodesPerRead pins when an NDJSON event is delivered: as
// soon as the Read that completes its line has returned, without
// reading ahead — so a line torn across two reads waits for the second,
// and an unterminated last line is delivered before io.EOF.
func TestNDJSONDecodesPerRead(t *testing.T) {
	var lines [][]byte
	for i := 0; i < 9; i++ {
		lines = append(lines, AppendNDJSON(nil, stream.Event{Time: float64(i), Key: "k", Value: 1}))
	}
	torn := lines[5]
	cr := &chunkReader{chunks: [][]byte{
		bytes.Join(lines[:3], nil),
		append(bytes.Join(lines[3:5], nil), torn[:7]...),
		append(append([]byte{}, torn[7:]...), bytes.Join(lines[6:8], nil)...),
		bytes.TrimSuffix(lines[8], []byte("\n")), // unterminated last line
	}}
	dec := NewNDJSONDecoder(cr)
	wantRead := []int{1, 1, 1, 2, 2, 3, 3, 3, 4}
	for i, read := range wantRead {
		ev, err := dec.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if cr.reads != read {
			t.Fatalf("event %d: decoded after %d reads, want %d", i, cr.reads, read)
		}
		if ev.Time != float64(i) {
			t.Fatalf("event %d: decoded time %v", i, ev.Time)
		}
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("got %v, want io.EOF", err)
	}
}

func TestNDJSONShapes(t *testing.T) {
	cases := []struct {
		name string
		line string
		want stream.Event
		bad  bool
	}{
		{name: "minimal", line: `{"t":1,"v":2}`, want: stream.Event{Time: 1, Value: 2}},
		{name: "full", line: `{"key":"k","t":1,"v":2,"sig_up":3,"sig_down":4}`, want: stream.Event{Key: "k", Time: 1, Value: 2, SigUp: 3, SigDown: 4}},
		{name: "reordered", line: `{"sig_down":4,"v":2,"key":"k","t":1}`, want: stream.Event{Key: "k", Time: 1, Value: 2, SigDown: 4}},
		{name: "whitespace", line: ` { "t" : 1.5 , "v" : -2e3 } `, want: stream.Event{Time: 1.5, Value: -2e3}},
		{name: "unknown scalar", line: `{"t":1,"v":2,"src":"sensor","n":7}`, want: stream.Event{Time: 1, Value: 2}},
		{name: "escaped key via fallback", line: `{"key":"a\"b","t":1,"v":2}`, want: stream.Event{Key: `a"b`, Time: 1, Value: 2}},
		{name: "unicode key", line: `{"key":"héllo","t":1,"v":2}`, want: stream.Event{Key: "héllo", Time: 1, Value: 2}},
		{name: "nested unknown via fallback", line: `{"t":1,"v":2,"meta":{"a":[1,2]}}`, want: stream.Event{Time: 1, Value: 2}},
		{name: "missing t", line: `{"v":2}`, bad: true},
		{name: "missing v", line: `{"t":1}`, bad: true},
		{name: "null t", line: `{"t":null,"v":2}`, bad: true},
		{name: "not an object", line: `[1,2]`, bad: true},
		{name: "garbage", line: `t=1 v=2`, bad: true},
		{name: "trailing garbage", line: `{"t":1,"v":2} x`, bad: true},
		{name: "string t", line: `{"t":"1","v":2}`, bad: true},
		{name: "NaN t", line: `{"t":NaN,"v":2}`, bad: true},
		{name: "-Inf v", line: `{"t":1,"v":-Inf}`, bad: true},
		{name: "hex float", line: `{"t":0x1p-2,"v":2}`, bad: true},
		{name: "plus sign", line: `{"t":+1,"v":2}`, bad: true},
		{name: "bare fraction", line: `{"t":.5,"v":2}`, bad: true},
		{name: "empty fraction", line: `{"t":1.,"v":2}`, bad: true},
		{name: "leading zero", line: `{"t":01,"v":2}`, bad: true},
		{name: "digit separator", line: `{"t":1_0,"v":2}`, bad: true},
		{name: "trailing comma", line: `{"t":1,"v":2,}`, bad: true},
		{name: "number key", line: `{"key":7,"t":1,"v":2}`, bad: true},
		{name: "string sig_up", line: `{"t":1,"v":2,"sig_up":"x"}`, bad: true},
		{name: "unknown bad literal", line: `{"t":1,"v":2,"x":tru}`, bad: true},
		{name: "control byte in key", line: "{\"key\":\"a\x01b\",\"t\":1,\"v\":2}", bad: true},
		{name: "folded names via fallback", line: `{"KEY":"k","T":1,"V":2}`, want: stream.Event{Key: "k", Time: 1, Value: 2}},
		{name: "unknown literals and numbers", line: `{"a":true,"b":false,"c":null,"d":-0.5e+3,"t":1,"v":2}`, want: stream.Event{Time: 1, Value: 2}},
		{name: "exponent forms", line: `{"t":1E2,"v":-25e-1,"sig_up":0.000,"sig_down":1e0}`, want: stream.Event{Time: 100, Value: -2.5, SigUp: 0, SigDown: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dec := NewNDJSONDecoder(strings.NewReader(tc.line + "\n"))
			got, err := dec.Next()
			if tc.bad {
				if err == nil {
					t.Fatalf("accepted %q as %+v", tc.line, got)
				}
				if _, again := dec.Next(); again != err {
					t.Fatalf("error not sticky: %v then %v", err, again)
				}
				return
			}
			if err != nil {
				t.Fatalf("Next(%q): %v", tc.line, err)
			}
			if !eventsEqual(got, tc.want) {
				t.Fatalf("got %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestScanNumberMatchesStrconv compares the JSON number scanner with
// strconv.ParseFloat bit for bit on random decimals around the edges of
// its exact conversion: mantissas up to 2^53 and beyond, exponents up to
// ±22 and beyond, leading and trailing zeros, and the float64 shortest
// forms AppendNDJSON writes.
func TestScanNumberMatchesStrconv(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 11))
	check := func(s string) {
		t.Helper()
		got, n, ok := scanNumber([]byte(s))
		want, err := strconv.ParseFloat(s, 64)
		if err != nil {
			if ok {
				t.Fatalf("%q: scanned %v, strconv error %v", s, got, err)
			}
			return
		}
		if !ok || n != len(s) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%q: scanned %v (%d bytes, ok %v), strconv %v", s, got, n, ok, want)
		}
	}
	for i := 0; i < 200000; i++ {
		var mant uint64
		switch r.IntN(3) {
		case 0:
			mant = r.Uint64N(1 << 53)
		case 1:
			mant = 1<<53 - 2 + r.Uint64N(5)
		default:
			mant = r.Uint64()
		}
		digits := strconv.FormatUint(mant, 10)
		if r.IntN(4) == 0 {
			digits = strings.Repeat("0", r.IntN(4)) + digits + strings.Repeat("0", r.IntN(6))
			digits = strings.TrimLeft(digits, "0")
			if digits == "" {
				digits = "0"
			}
		}
		point := r.IntN(len(digits) + 1)
		s := digits
		if point < len(digits) {
			s = digits[:point] + "." + digits[point:]
			if point == 0 {
				s = "0" + s
			}
		}
		if r.IntN(2) == 0 {
			s += "e" + strconv.Itoa(r.IntN(61)-30)
		}
		if r.IntN(2) == 0 {
			s = "-" + s
		}
		check(s)
		f := math.Float64frombits(r.Uint64())
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			check(strconv.FormatFloat(f, 'g', -1, 64))
		}
		check(strconv.FormatFloat(math.Round(r.Float64()*1e10)/1e3, 'g', -1, 64))
	}
}

func TestNDJSONDecodeZeroAlloc(t *testing.T) {
	var buf []byte
	for i := 0; i < 256; i++ {
		buf = AppendNDJSON(buf, stream.Event{Time: float64(i), Key: fmt.Sprintf("key-%d", i%8), Value: 1.5, SigUp: 1, SigDown: 2})
	}
	r := bytes.NewReader(buf)
	dec := NewNDJSONDecoder(r)
	decodeAll := func() {
		r.Reset(buf)
		dec.Reset(r)
		for {
			if _, err := dec.Next(); err == io.EOF {
				return
			} else if err != nil {
				t.Fatal(err)
			}
		}
	}
	decodeAll()
	if allocs := testing.AllocsPerRun(20, decodeAll); allocs > 0 {
		t.Fatalf("ndjson decode allocates %.1f times per pass, want 0", allocs)
	}
}

// TestCSVScannerMatchesReadCSV pins the streaming scanner to the
// slurping reader on sorted inputs: same points, same header handling,
// same tolerance for optional columns and blank lines.
func TestCSVScannerMatchesReadCSV(t *testing.T) {
	cases := []string{
		"t,v,sig_up,sig_down\n1,2,0.5,0.25\n2,3,0.5,0.25\n",
		"1,2\n2,3\n3,4",             // no header, no trailing newline
		"1,2,0.5\n\n2,3,1\n",        // blank line, three columns
		"t,v\r\n1,2\r\n2,3\r\n",     // CRLF
		"1,2,,\n2,3,0.5,\n",         // empty uncertainty fields
		"1,2,0.5,0.25,9,9\n2,3\n",   // extra columns ignored
		"time,value,up,down\n1,2\n", // arbitrary header names
	}
	for i, data := range cases {
		want, err := series.ReadCSV(strings.NewReader(data))
		if err != nil {
			t.Fatalf("case %d: ReadCSV: %v", i, err)
		}
		sc := NewCSVScanner(strings.NewReader(data))
		var got series.Series
		for {
			p, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("case %d: scan: %v", i, err)
			}
			got = append(got, p)
		}
		if len(got) != len(want) {
			t.Fatalf("case %d: got %d points, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Errorf("case %d point %d: got %+v, want %+v", i, j, got[j], want[j])
			}
		}
	}
}

func TestCSVScannerErrors(t *testing.T) {
	cases := []struct {
		data, want string
	}{
		{"1,2\nx,3\n", "bad timestamp"},
		{"1,2\n2,y\n", "bad value"},
		{"1,2\n3\n", "want >= 2"},
		{"1,2,a\n", "bad sig_up"},
		{"1,2,1,b\n", "bad sig_down"},
	}
	for i, tc := range cases {
		sc := NewCSVScanner(strings.NewReader(tc.data))
		var err error
		for err == nil {
			_, err = sc.Next()
		}
		if err == io.EOF || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: got %v, want error mentioning %q", i, err, tc.want)
		}
	}
	sc := NewCSVScanner(strings.NewReader("1,2\n\"3\",4\n"))
	var err error
	for err == nil {
		_, err = sc.Next()
	}
	if !errors.Is(err, ErrQuotedCSV) {
		t.Fatalf("quoted field: got %v, want ErrQuotedCSV", err)
	}
}

func TestCSVScanZeroAlloc(t *testing.T) {
	var sb strings.Builder
	// No header row: detecting one costs a strconv error allocation,
	// once per file — the steady-state contract is per data row.
	for i := 0; i < 256; i++ {
		fmt.Fprintf(&sb, "%d,%d.5,0.5,0.25\n", i, i)
	}
	data := sb.String()
	r := strings.NewReader(data)
	sc := NewCSVScanner(r)
	scanAll := func() {
		r.Reset(data)
		sc.Reset(r)
		for {
			if _, err := sc.Next(); err == io.EOF {
				return
			} else if err != nil {
				t.Fatal(err)
			}
		}
	}
	scanAll()
	if allocs := testing.AllocsPerRun(20, scanAll); allocs > 0 {
		t.Fatalf("csv scan allocates %.1f times per pass, want 0", allocs)
	}
}

// TestLineReaderLongLines exercises buffer growth and the hostile
// unbounded-line guard.
func TestLineReaderLongLines(t *testing.T) {
	long := strings.Repeat("a", 100_000)
	lr := newLineReader(strings.NewReader(long+"\n"+long), 64)
	for i := 0; i < 2; i++ {
		b, err := lr.next()
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if string(b) != long {
			t.Fatalf("line %d: got %d bytes, want %d", i, len(b), len(long))
		}
	}
	if _, err := lr.next(); err != io.EOF {
		t.Fatalf("got %v, want io.EOF", err)
	}

	lr = newLineReader(&endlessReader{}, 64)
	if _, err := lr.next(); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("unbounded line: got %v, want line-too-long error", err)
	}
}

// endlessReader yields 'x' forever — a newline never comes.
type endlessReader struct{}

func (endlessReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	return len(p), nil
}
