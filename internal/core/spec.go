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

// TemplateKeys returns the keys the template spelled token reads, in
// canonical order.
func TemplateKeys(token string) ([]string, error) {
	t, err := templateByToken(token)
	return slices.Clone(t.keys), err
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
