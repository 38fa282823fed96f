// Package ingest is the always-on checking service: a long-lived server
// that accepts events over TCP (binary frames) and HTTP (NDJSON),
// fans them out to shards by the engine's stable key hash — one
// goroutine per shard driving a checker.Mux operator — and runs
// registered checks online with live counters and an outcome feed
// (DESIGN.md §4k).
package ingest

import (
	"fmt"
	"strconv"
	"strings"

	"sound/internal/checker"
	"sound/internal/core"
)

// BuildConstraint resolves a constraint template by CLI name. The
// returned arity is the number of input series the template consumes.
// Shared by soundcheck and soundserve so both front-ends accept the
// same vocabulary.
func BuildConstraint(name string, min, max, threshold float64) (core.Constraint, int, error) {
	switch name {
	case "range":
		return core.Range(min, max), 1, nil
	case "gt":
		return core.GreaterThan(threshold), 1, nil
	case "nonneg":
		return core.NonNegative(), 1, nil
	case "fraction":
		return core.FractionInRange(min, max, threshold), 1, nil
	case "monotonic":
		return core.MonotonicIncrease(false), 1, nil
	case "maxdelta":
		return core.MaxDelta(threshold), 1, nil
	case "stdnonzero":
		return core.StdNonZero(), 1, nil
	case "corr":
		return core.CorrelationAbove(threshold), 2, nil
	case "nocorr":
		return core.CorrelationBelow(threshold), 2, nil
	case "r2":
		return core.RSquaredAbove(threshold), 2, nil
	case "ks":
		return core.KSDistanceBelow(threshold), 2, nil
	case "count":
		return core.CountAtLeast(), 2, nil
	}
	return core.Constraint{}, 0, fmt.Errorf("unknown constraint %q", name)
}

// BuildWindow parses a CLI window spec: point, global, session:<gap>,
// time:<size>[:<slide>], or count:<size>[:<slide>].
func BuildWindow(spec string) (core.Windower, error) {
	parts := strings.Split(spec, ":")
	switch parts[0] {
	case "point":
		return core.PointWindow{}, nil
	case "global":
		return core.GlobalWindow{}, nil
	case "session":
		if len(parts) < 2 {
			return nil, fmt.Errorf("session window needs a gap: session:<gap>")
		}
		gap, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, err
		}
		return core.SessionWindow{Gap: gap}, nil
	case "time":
		if len(parts) < 2 {
			return nil, fmt.Errorf("time window needs a size: time:<size>[:<slide>]")
		}
		size, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, err
		}
		w := core.TimeWindow{Size: size}
		if len(parts) > 2 {
			if w.Slide, err = strconv.ParseFloat(parts[2], 64); err != nil {
				return nil, err
			}
		}
		return w, nil
	case "count":
		if len(parts) < 2 {
			return nil, fmt.Errorf("count window needs a size: count:<size>[:<slide>]")
		}
		size, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, err
		}
		w := core.CountWindow{Size: size}
		if len(parts) > 2 {
			if w.Slide, err = strconv.Atoi(parts[2]); err != nil {
				return nil, err
			}
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown window spec %q", spec)
}

// ParseCheck parses one soundserve -check registration. The spec is a
// semicolon-separated key=value list; a bare first token is shorthand
// for constraint=<token>:
//
//	range;min=0;max=100;window=time:60
//	name=latency-vs-load;constraint=corr;threshold=0.3;window=time:120;route=inputs:latency,load
//
// Keys: constraint (required), name (defaults to the constraint name),
// min, max, threshold, window (default point), seed (overrides the
// server default), route — "event" (default: group by the event key;
// unary constraints only) or "inputs:a,b" (route events whose keys are
// the named series into the check's inputs; arity must match).
// params and evict carry the server-wide defaults into the config.
func ParseCheck(spec string, params core.Params, seed uint64, evict checker.EvictionPolicy) (CheckConfig, error) {
	var (
		name, constraint    string
		window              = "point"
		route               = "event"
		min, max, threshold float64
	)
	fail := func(err error) (CheckConfig, error) {
		return CheckConfig{}, fmt.Errorf("check spec %q: %w", spec, err)
	}
	for i, kv := range strings.Split(spec, ";") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			if i == 0 {
				constraint = kv
				continue
			}
			return fail(fmt.Errorf("%q is not key=value", kv))
		}
		var err error
		switch k {
		case "constraint":
			constraint = v
		case "name":
			name = v
		case "window":
			window = v
		case "route":
			route = v
		case "min":
			min, err = strconv.ParseFloat(v, 64)
		case "max":
			max, err = strconv.ParseFloat(v, 64)
		case "threshold":
			threshold, err = strconv.ParseFloat(v, 64)
		case "seed":
			seed, err = strconv.ParseUint(v, 10, 64)
		default:
			return fail(fmt.Errorf("unknown key %q", k))
		}
		if err != nil {
			return fail(fmt.Errorf("bad %s: %w", k, err))
		}
	}
	if constraint == "" {
		return fail(fmt.Errorf("missing constraint"))
	}
	c, arity, err := BuildConstraint(constraint, min, max, threshold)
	if err != nil {
		return fail(err)
	}
	win, err := BuildWindow(window)
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
		if arity != 1 {
			return fail(fmt.Errorf("constraint %q takes %d inputs; use route=inputs:<a>,<b>", constraint, arity))
		}
		cfg.Route = checker.ByEventKey()
		cfg.Check = core.Check{Name: name, Constraint: c, SeriesNames: []string{"v"}, Window: win}
	case strings.HasPrefix(route, "inputs:"):
		tags := strings.Split(strings.TrimPrefix(route, "inputs:"), ",")
		if len(tags) != arity {
			return fail(fmt.Errorf("constraint %q takes %d inputs, route names %d", constraint, arity, len(tags)))
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
