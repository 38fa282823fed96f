// Package ingest is the always-on checking service: a long-lived server
// that accepts events over TCP (binary frames) and HTTP (NDJSON),
// fans them out to shards by the engine's stable key hash — one
// goroutine per shard driving a checker.Mux operator — and runs
// registered checks online with live counters and an outcome feed
// (DESIGN.md §4k).
package ingest

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode"

	"sound/internal/checker"
	"sound/internal/core"
)

// ParseCheck parses one check spec: the text soundserve -check and
// POST /checks take and FormatCheck writes. The spec is a
// semicolon-separated key=value list; a bare first token is shorthand
// for constraint=<token>:
//
//	range;min=0;max=100;window=time:60
//	name=latency-vs-load;constraint=corr;threshold=0.3;window=time:120;route=inputs:latency,load
//
// constraint (required) names the template, and the keys the template
// reads (among min, max, threshold, strict, bins) set its parameters; a
// key it does not read is an error, and one left out is zero. The
// check's own keys: name (defaults to the constraint token), window
// (core.ParseWindow's text, default point), seed (overrides the server
// default), and route — "event" (default: group by the event key; unary constraints
// only) or "inputs:a,b" (route events whose keys are the named series
// into the check's inputs: one distinct, non-empty key per input). No
// key may be given twice. params and evict carry the server-wide
// defaults into the config.
func ParseCheck(spec string, params core.Params, seed uint64, evict checker.EvictionPolicy) (CheckConfig, error) {
	var (
		name, constraint string
		window           = "point"
		route            = "event"
		template         []string
	)
	fail := func(err error) (CheckConfig, error) {
		return CheckConfig{}, fmt.Errorf("check spec %q: %w", spec, err)
	}
	seen := map[string]bool{}
	for i, kv := range strings.Split(spec, ";") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			if i != 0 {
				return fail(fmt.Errorf("%q is not key=value", kv))
			}
			k, v = "constraint", kv
		}
		if seen[k] {
			return fail(fmt.Errorf("key %q given twice", k))
		}
		seen[k] = true
		switch k {
		case "constraint":
			constraint = v
		case "name":
			name = v
		case "window":
			window = v
		case "route":
			route = v
		case "seed":
			var err error
			if seed, err = strconv.ParseUint(v, 10, 64); err != nil {
				return fail(fmt.Errorf("bad seed: %w", err))
			}
		default:
			template = append(template, kv)
		}
	}
	if constraint == "" {
		return fail(fmt.Errorf("missing constraint"))
	}
	c, err := core.ParseTemplate(strings.Join(append([]string{constraint}, template...), ";"))
	if err != nil {
		return fail(err)
	}
	win, err := core.ParseWindow(window)
	if err != nil {
		return fail(err)
	}
	if name == "" {
		name = constraint
	}
	cfg := CheckConfig{
		Name:   name,
		Params: params,
		Seed:   seed,
		Evict:  evict,
	}
	switch {
	case route == "event":
		if c.Arity != 1 {
			return fail(fmt.Errorf("constraint %q takes %d inputs; use route=inputs:<a>,<b>", constraint, c.Arity))
		}
		cfg.Check = core.Check{Name: name, Constraint: c, SeriesNames: []string{"v"}, Window: win}
	case strings.HasPrefix(route, "inputs:"):
		tags := strings.Split(strings.TrimPrefix(route, "inputs:"), ",")
		if len(tags) != c.Arity {
			return fail(fmt.Errorf("constraint %q takes %d inputs, route names %d", constraint, c.Arity, len(tags)))
		}
		for i, tag := range tags {
			if tag == "" || slices.Contains(tags[:i], tag) {
				return fail(fmt.Errorf("route %q names an empty or repeated input key", route))
			}
		}
		cfg.Route = checker.ByInputKeys(tags...)
		cfg.Check = core.Check{Name: name, Constraint: c, SeriesNames: tags, Window: win}
	default:
		return fail(fmt.Errorf("unknown route %q (want event or inputs:<a>,<b>)", route))
	}
	// The grammar refuses what Register would: a window that cannot
	// place events fails here, not in a running shard.
	if err := cfg.Check.Validate(); err != nil {
		return fail(err)
	}
	// The normalized route string is the sharing token: checks parsed
	// with the same route (and window/params class) multiplex onto one
	// operator bucket.
	cfg.RouteSpec = route
	return cfg, nil
}

// FormatCheck writes cc as the spec ParseCheck reads back into it:
//
//	<token>;<every key the template reads>;window=…;route=…;seed=…;name=…
//
// ParseCheck(FormatCheck(cc), params, anySeed, evict) equals cc for
// every cc that ParseCheck accepted with those params and evict, and
// formatting that result again gives the same bytes. Params and Evict
// have no keys. A naive check, a user constraint (Fn), a window other
// than the built-in ones, and a name or input key the grammar could not
// have produced are errors.
func FormatCheck(cc CheckConfig) (string, error) {
	fail := func(err error) (string, error) { return "", fmt.Errorf("check %q: %w", cc.Name, err) }
	if cc.Naive {
		return fail(errors.New("a naive check has no text form"))
	}
	tmpl, err := core.FormatTemplate(cc.Check.Constraint)
	if err != nil {
		return fail(err)
	}
	win, err := core.FormatWindow(cc.Check.Window)
	if err != nil {
		return fail(err)
	}
	route := "event"
	if cc.Route != nil {
		for i, tag := range cc.Route {
			if tag == "" || strings.ContainsAny(tag, ",;") || slices.Contains(cc.Route[:i], tag) {
				return fail(fmt.Errorf("input key %q has no text form", tag))
			}
		}
		route = "inputs:" + strings.Join(cc.Route, ",")
		if !spellable(route) {
			return fail(errors.New("the route ends in white space"))
		}
	}
	if !spellable(cc.Name) {
		return fail(errors.New("the name has no text form"))
	}
	return tmpl + ";window=" + win + ";route=" + route + ";seed=" + strconv.FormatUint(cc.Seed, 10) + ";name=" + cc.Name, nil
}

// spellable reports whether ParseCheck can produce s as a value: it is
// not empty, holds no ';', and does not end in the white space that
// ParseCheck trims off every key=value pair.
func spellable(s string) bool {
	return s != "" && !strings.Contains(s, ";") && strings.TrimRightFunc(s, unicode.IsSpace) == s
}
