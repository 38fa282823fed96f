package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// A template's text form is its spec token followed by every key the
// template reads, in canonical order: "range;min=0;max=100",
// "fraction;min=0;max=13;threshold=0.8", "monotonic;strict=false",
// "kl;threshold=0.5;bins=16". The table below is the one place that
// knows this vocabulary: ParseTemplate reads it, FormatTemplate writes
// it, and the two are exact inverses. Keys fill the KernelSpec by one
// rule: "strict" fills Strict, "bins" fills Bins, and the i-th other
// key fills A, B, C in turn. Floats are written with 'g' and the
// shortest precision that round-trips, so -0, ±Inf and every bound a
// text can hold come back bit for bit (a NaN is read as the one NaN
// strconv.ParseFloat returns).
//
// A window's text is one of point, global, session:<gap>,
// time:<size>[:<slide>] and count:<size>[:<slide>]. ParseWindow reads it
// and FormatWindow (the built-in windowers' String) writes it. One grid
// has one text: a slide equal to the size, 0 or -0 reads as the
// canonical Slide 0 and is written by leaving it out, and a text with
// more parts than its kind takes, a negative slide, or any other window
// that places no events is refused.

// templateText is one template's row: its spec token, the keys it reads
// in canonical order, and its constructor, which sets arity, name and
// taxonomy.
type templateText struct {
	token string
	keys  []string
	build func(KernelSpec) Constraint
}

var thresholdKey = []string{"threshold"}

// templates is indexed by KernelOp; KernelNone, a user constraint, has
// no row.
var templates = [...]templateText{
	KernelRange:           {"range", []string{"min", "max"}, func(s KernelSpec) Constraint { return Range(s.A, s.B) }},
	KernelGreaterThan:     {"gt", thresholdKey, func(s KernelSpec) Constraint { return GreaterThan(s.A) }},
	KernelNonNegative:     {"nonneg", nil, func(KernelSpec) Constraint { return NonNegative() }},
	KernelFractionInRange: {"fraction", []string{"min", "max", "threshold"}, func(s KernelSpec) Constraint { return FractionInRange(s.A, s.B, s.C) }},
	KernelMonotone:        {"monotonic", []string{"strict"}, func(s KernelSpec) Constraint { return MonotonicIncrease(s.Strict) }},
	KernelMaxDelta:        {"maxdelta", thresholdKey, func(s KernelSpec) Constraint { return MaxDelta(s.A) }},
	KernelCountAtLeast:    {"count", nil, func(KernelSpec) Constraint { return CountAtLeast() }},
	KernelStdNonZero:      {"stdnonzero", nil, func(KernelSpec) Constraint { return StdNonZero() }},
	KernelLowerMeanDelta:  {"lowerdelta", nil, func(KernelSpec) Constraint { return LowerMeanDelta() }},
	KernelCorrAbove:       {"corr", thresholdKey, func(s KernelSpec) Constraint { return CorrelationAbove(s.A) }},
	KernelCorrBelow:       {"nocorr", thresholdKey, func(s KernelSpec) Constraint { return CorrelationBelow(s.A) }},
	KernelRSquaredAbove:   {"r2", thresholdKey, func(s KernelSpec) Constraint { return RSquaredAbove(s.A) }},
	KernelKSBelow:         {"ks", thresholdKey, func(s KernelSpec) Constraint { return KSDistanceBelow(s.A) }},
	KernelKLBelow:         {"kl", []string{"threshold", "bins"}, func(s KernelSpec) Constraint { return KLDivergenceBelow(s.A, int(s.Bins)) }},
}

func templateByToken(token string) (templateText, error) {
	for _, t := range templates {
		if t.token != "" && t.token == token {
			return t, nil
		}
	}
	return templateText{}, fmt.Errorf("unknown constraint %q", token)
}

// ParseTemplate builds a template constraint from its text: the spec
// token, then key=value pairs separated by ';'. A key the template does
// not read, a repeated key and a malformed value are errors; a key left
// out reads as zero (false for strict). The constraint is validated.
func ParseTemplate(text string) (Constraint, error) {
	token, rest, _ := strings.Cut(text, ";")
	t, err := templateByToken(token)
	if err != nil {
		return Constraint{}, err
	}
	vals := map[string]string{}
	if rest != "" {
		for _, kv := range strings.Split(rest, ";") {
			k, v, ok := strings.Cut(kv, "=")
			switch {
			case !ok:
				return Constraint{}, fmt.Errorf("%q is not key=value", kv)
			case !slices.Contains(t.keys, k):
				return Constraint{}, fmt.Errorf("constraint %q reads no key %q", token, k)
			}
			if _, dup := vals[k]; dup {
				return Constraint{}, fmt.Errorf("key %q given twice", k)
			}
			vals[k] = v
		}
	}
	var s KernelSpec
	nums := []*float64{&s.A, &s.B, &s.C}
	for _, k := range t.keys {
		v, ok := vals[k]
		switch k {
		case "strict":
			if ok {
				s.Strict, err = strconv.ParseBool(v)
			}
		case "bins":
			if ok {
				var n int64
				n, err = strconv.ParseInt(v, 10, 32)
				s.Bins = int32(n)
			}
		default:
			if ok {
				*nums[0], err = strconv.ParseFloat(v, 64)
			}
			nums = nums[1:]
		}
		if err != nil {
			return Constraint{}, fmt.Errorf("bad %s: %w", k, err)
		}
	}
	c := t.build(s)
	if err := c.Validate(); err != nil {
		return Constraint{}, err
	}
	return c, nil
}

// FormatTemplate writes a template constraint as the text ParseTemplate
// reads back into it: the token and every key the template reads. A user
// constraint (Fn) has no text form and is an error.
func FormatTemplate(c Constraint) (string, error) {
	op := c.Spec.Op
	if c.Fn != nil || op == KernelNone || int(op) >= len(templates) {
		return "", fmt.Errorf("core: constraint %q is no template and has no text form", c.Name)
	}
	t := templates[op]
	s := c.Spec
	b := []byte(t.token)
	nums := []float64{s.A, s.B, s.C}
	for _, k := range t.keys {
		b = append(append(append(b, ';'), k...), '=')
		switch k {
		case "strict":
			b = strconv.AppendBool(b, s.Strict)
		case "bins":
			b = strconv.AppendInt(b, int64(s.Bins), 10)
		default:
			b = strconv.AppendFloat(b, nums[0], 'g', -1, 64)
			nums = nums[1:]
		}
	}
	return string(b), nil
}

// ParseWindow reads a window's text into the built-in windower it names,
// with its slide in canonical form. FormatWindow writes that windower
// back to the same text.
func ParseWindow(text string) (Windower, error) {
	parts := strings.Split(text, ":")
	kind, args := parts[0], parts[1:]
	var (
		w   Windower
		err error
	)
	switch n := len(args); {
	case kind == "point" && n == 0:
		w = PointWindow{}
	case kind == "global" && n == 0:
		w = GlobalWindow{}
	case kind == "session" && n == 1:
		var gap float64
		gap, err = strconv.ParseFloat(args[0], 64)
		w = SessionWindow{Gap: gap}
	case kind == "time" && (n == 1 || n == 2):
		var tw TimeWindow
		if tw.Size, err = strconv.ParseFloat(args[0], 64); err == nil && n == 2 {
			tw.Slide, err = strconv.ParseFloat(args[1], 64)
		}
		if tw.Slide == tw.Size || tw.Slide == 0 {
			tw.Slide = 0 // tumbling; -0 reads as 0
		}
		w = tw
	case kind == "count" && (n == 1 || n == 2):
		var cw CountWindow
		if cw.Size, err = strconv.Atoi(args[0]); err == nil && n == 2 {
			cw.Slide, err = strconv.Atoi(args[1])
		}
		if cw.Slide == cw.Size {
			cw.Slide = 0
		}
		w = cw
	default:
		return nil, fmt.Errorf("window %q is none of point, global, session:<gap>, time:<size>[:<slide>], count:<size>[:<slide>]", text)
	}
	if err != nil {
		return nil, fmt.Errorf("window %q: %w", text, err)
	}
	if err := validWindow(w); err != nil {
		return nil, err
	}
	return w, nil
}

// FormatWindow writes a built-in windower as the text ParseWindow reads
// back into a windower with the same grid (the same windower, when its
// slide is canonical). A window that places no events and a windower of
// another type have no text form and are errors.
func FormatWindow(w Windower) (string, error) {
	switch w.(type) {
	case PointWindow, GlobalWindow, SessionWindow, TimeWindow, CountWindow:
		if err := validWindow(w); err != nil {
			return "", err
		}
		return w.String(), nil
	}
	return "", fmt.Errorf("core: window %v has no text form", w)
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
