package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.U64(0xdeadbeefcafe1234)
	e.Uvarint(0)
	e.Uvarint(1 << 40)
	e.Int(42)
	e.F64(math.Pi)
	e.F64(math.Inf(-1))
	e.F64(math.NaN())
	e.Bool(true)
	e.Bool(false)
	e.Bytes([]byte{1, 2, 3})
	e.Bytes(nil)
	e.String("windmill")
	e.F64s([]float64{-1.5, 0, 2.25})
	e.F64s(nil)
	e.Ints([]int{7, 0, 1 << 30})
	data := e.Finish()

	d, err := NewDecoder(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.U64(); got != 0xdeadbeefcafe1234 {
		t.Errorf("U64 = %#x", got)
	}
	if got := d.Uvarint(); got != 0 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := d.Uvarint(); got != 1<<40 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := d.Int(); got != 42 {
		t.Errorf("Int = %d", got)
	}
	if got := d.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := d.F64(); !math.IsInf(got, -1) {
		t.Errorf("F64 = %v, want -Inf", got)
	}
	if got := d.F64(); !math.IsNaN(got) {
		t.Errorf("F64 = %v, want NaN", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", got)
	}
	if got := d.Bytes(); len(got) != 0 {
		t.Errorf("empty Bytes = %v", got)
	}
	if got := d.String(); got != "windmill" {
		t.Errorf("String = %q", got)
	}
	if got := d.F64s(nil); len(got) != 3 || got[0] != -1.5 || got[2] != 2.25 {
		t.Errorf("F64s = %v", got)
	}
	if got := d.F64s(nil); len(got) != 0 {
		t.Errorf("empty F64s = %v", got)
	}
	if got := d.Ints(nil); len(got) != 3 || got[2] != 1<<30 {
		t.Errorf("Ints = %v", got)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("decoder error: %v", err)
	}
	if d.Remaining() != 0 {
		t.Errorf("%d bytes left over", d.Remaining())
	}
}

func TestRawNesting(t *testing.T) {
	inner := NewRawEncoder()
	inner.String("payload")
	inner.U64(99)

	outer := NewEncoder()
	outer.Bytes(inner.Finish())
	data := outer.Finish()

	d, err := NewDecoder(data)
	if err != nil {
		t.Fatal(err)
	}
	nd := NewRawDecoder(d.Bytes())
	if got := nd.String(); got != "payload" {
		t.Errorf("nested string = %q", got)
	}
	if got := nd.U64(); got != 99 {
		t.Errorf("nested u64 = %d", got)
	}
	if err := nd.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderValidation(t *testing.T) {
	good := NewEncoder()
	good.U64(7)
	data := good.Finish()

	if _, err := NewDecoder(nil); err == nil {
		t.Error("empty document accepted")
	}
	bad := append([]byte{}, data...)
	bad[0] ^= 0xff
	if _, err := NewDecoder(bad); err == nil {
		t.Error("bad magic accepted")
	}
	flip := append([]byte{}, data...)
	flip[len(flip)-5] ^= 0x01 // corrupt the body, not the CRC
	if _, err := NewDecoder(flip); err == nil {
		t.Error("corrupt body accepted")
	}
	vers := append([]byte{}, data...)
	vers[len(Magic)] ^= 0x7f // version mismatch (CRC now wrong too, but version is checked first)
	if _, err := NewDecoder(vers); err == nil {
		t.Error("future version accepted")
	}
	// Well-formed older documents (valid CRC) are refused by name: version
	// 1 stream workers carried RNG positions, version 2 wrapped them in a
	// per-worker registry record, version 3 held one lone-check operator
	// without a bucket list, version 4 groups carried three buffer sets
	// and their extractions, and version 5 members carried kernel spec
	// fields in place of their template text.
	if Version != 6 {
		t.Fatalf("Version = %d, want 6", Version)
	}
	for _, v := range []uint16{1, 2, 3, 4, 5} {
		old := append([]byte{}, data[:len(data)-4]...)
		binary.LittleEndian.PutUint16(old[len(Magic):], v)
		old = binary.LittleEndian.AppendUint32(old, crc32.ChecksumIEEE(old))
		if _, err := NewDecoder(old); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d, want 6", v)) {
			t.Errorf("version-%d document: err = %v, want a version mismatch", v, err)
		}
	}
}

// TestNonCanonicalRejected: a padded uvarint and a bool byte other than
// 0 or 1 decode to values the encoder spells differently, so accepting
// them would let a snapshot decode without re-encoding to its own bytes.
func TestNonCanonicalRejected(t *testing.T) {
	for name, data := range map[string][]byte{
		"padded uvarint 0": {0x80, 0x00},
		"padded uvarint 1": {0x81, 0x80, 0x00},
	} {
		d := NewRawDecoder(data)
		if d.Uvarint(); d.Err() == nil {
			t.Errorf("%s accepted", name)
		}
	}
	d := NewRawDecoder([]byte{0x02})
	if d.Bool() || d.Err() == nil {
		t.Error("bool byte 2 accepted")
	}
	d = NewRawDecoder([]byte{0x00, 0x01, 0x80, 0x01})
	if d.Bool() || !d.Bool() || d.Uvarint() != 128 || d.Err() != nil {
		t.Errorf("canonical fields rejected: %v", d.Err())
	}
}

func TestStickyErrors(t *testing.T) {
	d := NewRawDecoder([]byte{0x05, 0x01}) // claims 5 bytes, has 1
	if got := d.Bytes(); got != nil {
		t.Errorf("truncated Bytes = %v", got)
	}
	if d.Err() == nil {
		t.Fatal("truncated Bytes not rejected")
	}
	// Every later read stays zero-valued under the sticky error.
	if d.U64() != 0 || d.Bool() || d.Int() != 0 {
		t.Error("reads after error are not zero-valued")
	}
}

func TestOversizedLengthRejected(t *testing.T) {
	// A uvarint length far beyond the buffer must fail without
	// attempting the allocation.
	e := NewRawEncoder()
	e.Uvarint(1 << 62)
	d := NewRawDecoder(e.Finish())
	if got := d.F64s(nil); len(got) != 0 || d.Err() == nil {
		t.Error("oversized float slice accepted")
	}
}

// FuzzCheckpointRoundTrip drives both directions: arbitrary input bytes
// must never panic the decoder, and a document encoded from decoded
// values must round-trip exactly.
func FuzzCheckpointRoundTrip(f *testing.F) {
	seed := NewEncoder()
	seed.U64(1)
	seed.String("k")
	seed.F64s([]float64{1, 2})
	f.Add(seed.Finish())
	f.Add([]byte(Magic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Direction 1: hostile bytes. Framed open may reject; raw reads
		// must survive any input without panicking.
		if d, err := NewDecoder(data); err == nil {
			_ = d.U64()
			_ = d.Bytes()
			_ = d.Err()
		}
		rd := NewRawDecoder(data)
		u := rd.U64()
		s := rd.String()
		fs := rd.F64s(nil)
		is := rd.Ints(nil)
		b := rd.Bool()
		if rd.Err() != nil {
			return
		}
		// Direction 2: whatever decoded cleanly must re-encode and
		// decode back bit-identically.
		e := NewEncoder()
		e.U64(u)
		e.String(s)
		e.F64s(fs)
		e.Ints(is)
		e.Bool(b)
		d2, err := NewDecoder(e.Finish())
		if err != nil {
			t.Fatalf("re-encoded document rejected: %v", err)
		}
		if got := d2.U64(); got != u {
			t.Fatalf("u64 %d != %d", got, u)
		}
		if got := d2.String(); got != s {
			t.Fatalf("string %q != %q", got, s)
		}
		gfs := d2.F64s(nil)
		if len(gfs) != len(fs) {
			t.Fatalf("f64s len %d != %d", len(gfs), len(fs))
		}
		for i := range fs {
			if math.Float64bits(gfs[i]) != math.Float64bits(fs[i]) {
				t.Fatalf("f64s[%d] %v != %v", i, gfs[i], fs[i])
			}
		}
		gis := d2.Ints(nil)
		if len(gis) != len(is) {
			t.Fatalf("ints len %d != %d", len(gis), len(is))
		}
		for i := range is {
			if gis[i] != is[i] {
				t.Fatalf("ints[%d] %d != %d", i, gis[i], is[i])
			}
		}
		if d2.Bool() != b || d2.Err() != nil {
			t.Fatal("bool or trailing error mismatch")
		}
	})
}
