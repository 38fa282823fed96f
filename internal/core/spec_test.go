package core

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestTemplateTable walks every template op: each has a token of its
// own, its constructor builds that op, and its text parses back to the
// constraint the constructor gives.
func TestTemplateTable(t *testing.T) {
	if len(templates) != int(KernelKLBelow)+1 {
		t.Fatalf("table has %d rows, want one per op up to KernelKLBelow", len(templates))
	}
	if templates[KernelNone].token != "" {
		t.Errorf("a user constraint has a token: %q", templates[KernelNone].token)
	}
	seen := map[string]bool{}
	for op := KernelRange; op <= KernelKLBelow; op++ {
		row := templates[op]
		if row.token == "" || seen[row.token] || strings.ContainsAny(row.token, ";=") {
			t.Errorf("op %d: token %q is empty, taken or not a token", op, row.token)
		}
		seen[row.token] = true
		c := row.build(KernelSpec{Op: op, A: 0.25, B: 4, C: 0.5, Bins: 8, Strict: true})
		if c.Spec.Op != op {
			t.Errorf("%s: constructor builds op %d, want %d", row.token, c.Spec.Op, op)
		}
		text, err := FormatTemplate(c)
		if err != nil {
			t.Errorf("%s: %v", row.token, err)
			continue
		}
		back, err := ParseTemplate(text)
		if err != nil {
			t.Errorf("%s: %q does not parse: %v", row.token, text, err)
			continue
		}
		if !reflect.DeepEqual(back, c) {
			t.Errorf("%s: %q parses to %+v, want %+v", row.token, text, back, c)
		}
		if again, _ := FormatTemplate(back); again != text {
			t.Errorf("%s: formats as %q, then as %q", row.token, text, again)
		}
	}
}

// TestTemplateTextExamples pins the canonical spelling of a few
// templates, the keys they read and the order they are written in.
func TestTemplateTextExamples(t *testing.T) {
	for _, tc := range []struct {
		c    Constraint
		want string
	}{
		{Range(0, 100), "range;min=0;max=100"},
		{FractionInRange(0, 13, 0.8), "fraction;min=0;max=13;threshold=0.8"},
		{NonNegative(), "nonneg"},
		{MonotonicIncrease(true), "monotonic;strict=true"},
		{LowerMeanDelta(), "lowerdelta"},
		{KLDivergenceBelow(0.5, 16), "kl;threshold=0.5;bins=16"},
	} {
		if got, err := FormatTemplate(tc.c); err != nil || got != tc.want {
			t.Errorf("%s: FormatTemplate = %q, %v; want %q", tc.c.Name, got, err, tc.want)
		}
	}
}

// TestTemplateFloatsRoundTrip: every bound a text can hold comes back
// bit for bit — signed zeros, infinities, subnormals and the NaN
// strconv.ParseFloat returns.
func TestTemplateFloatsRoundTrip(t *testing.T) {
	for _, x := range []float64{0, math.Copysign(0, -1), 0.1, -1e-300, math.SmallestNonzeroFloat64,
		-math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 1.0000000000000002} {
		text, err := FormatTemplate(FractionInRange(x, x, x))
		if err != nil {
			t.Fatal(err)
		}
		c, err := ParseTemplate(text)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		for i, got := range []float64{c.Spec.A, c.Spec.B, c.Spec.C} {
			if math.Float64bits(got) != math.Float64bits(x) {
				t.Errorf("%q: bound %d is %#x, want %#x", text, i, math.Float64bits(got), math.Float64bits(x))
			}
		}
	}
}

// TestParseTemplateRefuses: a text that is not exactly one template's
// keys with readable values is an error.
func TestParseTemplateRefuses(t *testing.T) {
	for _, text := range []string{
		"",
		"frobnicate",
		"nonneg;min=5",             // a key the template does not read
		"range;min=1;min=5;max=9",  // a repeated key
		"range;min",                // not key=value
		"range;min=NOPE",           // bad float
		"monotonic;strict=maybe",   // bad bool
		"kl;threshold=1;bins=0",    // no bins
		"kl;threshold=1;bins=4097", // more bins than a histogram may have
		"kl;threshold=1;bins=1e9",  // not an integer
		"kl;threshold=1;bins=2147483648",
	} {
		if c, err := ParseTemplate(text); err == nil {
			t.Errorf("ParseTemplate(%q) accepted %+v", text, c)
		}
	}
}

// TestFormatTemplateRefusesFn: a user constraint is its function and has
// no text.
func TestFormatTemplateRefusesFn(t *testing.T) {
	fn := Constraint{Name: "custom", Arity: 1, Fn: func([][]float64) bool { return true }}
	if text, err := FormatTemplate(fn); err == nil {
		t.Errorf("user constraint formatted as %q", text)
	}
	if text, err := FormatTemplate(Constraint{Name: "bogus", Arity: 1, Spec: KernelSpec{Op: KernelKLBelow + 1}}); err == nil {
		t.Errorf("unknown op formatted as %q", text)
	}
}

// TestValidateBoundsKLBins: a KL histogram has 1 to MaxKLBins bins. With
// none it scores NaN and every window is ⊥; with 2³¹−1 it allocates that
// many bins for every row it scores.
func TestValidateBoundsKLBins(t *testing.T) {
	for bins, ok := range map[int]bool{0: false, -1: false, 1: true, MaxKLBins: true, MaxKLBins + 1: false, math.MaxInt32: false} {
		if err := KLDivergenceBelow(0.5, bins).Validate(); (err == nil) != ok {
			t.Errorf("KLDivergenceBelow(0.5, %d).Validate() = %v", bins, err)
		}
	}
	if err := (Constraint{Name: "bogus", Arity: 1, Spec: KernelSpec{Op: KernelKLBelow + 1}}).Validate(); err == nil {
		t.Error("a kernel op past the table validates")
	}
}

// TestParseWindow: each window text reads into its built-in windower,
// whose String and FormatWindow give the canonical text of its grid and
// parse back to it; the other spellings of one grid read to the same
// windower, and every text that names no grid is refused.
func TestParseWindow(t *testing.T) {
	for text, want := range map[string]string{
		"point":      "point",
		"global":     "global",
		"time:5":     "time:5",
		"time:6:2":   "time:6:2",
		"time:10:20": "time:10:20",
		"time:10:10": "time:10",
		"time:10:0":  "time:10",
		"time:10:-0": "time:10",
		"time:1e1":   "time:10",
		"time:0.1":   "time:0.1",
		"count:4":    "count:4",
		"count:4:1":  "count:4:1",
		"count:4:4":  "count:4",
		"count:4:0":  "count:4",
		"count:+4":   "count:4",
		"session:10": "session:10",
	} {
		w, err := ParseWindow(text)
		if err != nil {
			t.Errorf("%s: %v", text, err)
			continue
		}
		got, err := FormatWindow(w)
		if err != nil || got != want || w.String() != want {
			t.Errorf("%s: FormatWindow = %q, %v, String = %q; want %q", text, got, err, w.String(), want)
		}
		if back, err := ParseWindow(got); err != nil || back != w {
			t.Errorf("%s: %q parses back to %#v, %v; want %#v", text, got, back, err, w)
		}
	}
	for _, bad := range []string{
		"", "time", "martian:3", "time:x", "count:x", "session:x", "count:3:y", "time:3:y",
		"time:1:2:3", "point:junk", "point:", "session:5:9", "global:x", "time:10:-5", "count:4:-3",
		"time:0", "time:NaN", "time:+Inf", "session:0", "count:0", "time:10:1e-300",
	} {
		if w, err := ParseWindow(bad); err == nil {
			t.Errorf("ParseWindow(%q) accepted %#v", bad, w)
		}
	}
}

// TestFormatWindowRefuses: a windower of another type and a built-in one
// that places no events have no text.
func TestFormatWindowRefuses(t *testing.T) {
	for _, w := range []Windower{
		&TimeWindow{Size: 1}, customWindower{},
		TimeWindow{Size: 10, Slide: -5}, CountWindow{Size: 4, Slide: -3}, SessionWindow{}, TimeWindow{Size: math.NaN()},
	} {
		if text, err := FormatWindow(w); err == nil {
			t.Errorf("%#v formatted as %q", w, text)
		}
	}
}
