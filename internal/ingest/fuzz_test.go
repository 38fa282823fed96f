package ingest

import (
	"reflect"
	"strings"
	"testing"

	"sound/internal/checker"
	"sound/internal/core"
	"sound/internal/stream"
)

// FuzzParseCheck throws hostile registration specs at the
// constraint;window;route=... grammar — the surface POST /checks
// exposes to untrusted clients. The contract: never panic, never
// accept a spec without naming the check, keep the accept/reject
// decision stable (a spec that parses once parses identically again —
// the grammar is pure), and build a running operator from every spec it
// accepts: Register takes it, and the operator survives an event and a
// Flush. Every accepted spec has one canonical text: FormatCheck writes
// it, ParseCheck reads it back — under any default seed — to the same
// config bit for bit, and that config formats to the same bytes. One
// grid has one text: the second argument, read as a window, formats and
// parses back to itself, and to the bytes of the spec's window when the
// two windows' assigners are equal.
func FuzzParseCheck(f *testing.F) {
	for _, spec := range []string{
		"range;min=0;max=100;window=time:60",
		"constraint=fraction;min=0;max=13;threshold=0.8;window=time:12:5;name=frac",
		"corr;threshold=0.3;window=time:120;route=inputs:latency,load",
		"monotonic;window=count:10;seed=99",
		"gt;threshold=1;window=session:5",
		"count;route=inputs:a,b;window=global",
		"range;window=point",
		"range;min=NaN;max=+Inf",
		"range;;;;window=time:1",
		"name=;constraint=range",
		"range;window=count:-3:0",
		"range;window=time:1:2:3:4",
		"ks;threshold=0.5;route=inputs:x,",
		"range;seed=18446744073709551615",
		"range;seed=18446744073709551616",
		"\x00;window=time:1",
		"range;window=time:NaN",
		"range;window=session:NaN",
		"range;window=time:0",
		"range;window=session:0",
		"range;window=time:10:1e-300",
		"range;window=time:4096:1",
		"range;route=inputs:" + strings.Repeat("a,", 50) + "b",
		"nonneg;window=time:10",
		"monotonic;strict=true;window=count:5",
		"maxdelta;threshold=9;window=count:8:3",
		"stdnonzero;window=count:4",
		"lowerdelta;window=count:16;route=inputs:x,y",
		"nocorr;threshold=0.5;window=time:30;route=inputs:x,y",
		"r2;threshold=0.9;window=count:16;route=inputs:obs,pred",
		"ks;threshold=0.3;window=time:20:10;route=inputs:a,b",
		"kl;threshold=0.5;bins=16;window=count:32;route=inputs:a,b",
		"kl;threshold=0.5;bins=2147483647;route=inputs:a,b",
		"nonneg;min=5",
		"range;min=1;min=5;max=9",
		"corr;threshold=0.3;window=count:8;route=inputs:a,a",
		"range;route=inputs:",
		"count;route=inputs:a ,b;name= x=y",
		"range;min=-0;max=0x1p-1074;seed=0",
		"range;window=time:1:2:3",
		"range;window=time:10:1:2",
		"range;window=point:junk",
		"range;window=session:5:9",
		"range;window=global:x",
		"range;window=time:10:-5",
		"range;window=count:4:-3",
	} {
		f.Add(spec, "")
	}
	for _, texts := range [][2]string{
		{"time:10", "time:10:10"},
		{"time:10:0", "time:10:-0"},
		{"time:12:5", "time:1.2e1:5"},
		{"count:4", "count:4:4"},
		{"count:4:0", "count:+4"},
		{"session:5", "session:5.0"},
	} {
		f.Add("range;window="+texts[0], texts[1])
	}
	params := core.DefaultParams()
	f.Fuzz(func(t *testing.T, spec, window string) {
		w2, werr := core.ParseWindow(window)
		if werr == nil {
			text, err := core.FormatWindow(w2)
			if back, err2 := core.ParseWindow(text); err != nil || err2 != nil || !sameBits(reflect.ValueOf(back), reflect.ValueOf(w2)) {
				t.Fatalf("window %q formats as %q, which parses to %#v (%v, %v)", window, text, back, err, err2)
			}
		}
		cfg, err := ParseCheck(spec, params, 7, checker.EvictionPolicy{})
		if err != nil {
			if !strings.Contains(err.Error(), "check spec") {
				t.Fatalf("error does not name the spec: %v", err)
			}
			return
		}
		if cfg.Name == "" || cfg.Check.Constraint.Validate() != nil || !routeOK(cfg) || cfg.Check.Window == nil {
			t.Fatalf("accepted spec %q produced incomplete config %+v", spec, cfg)
		}
		if cfg.RouteSpec == "" {
			t.Fatalf("accepted spec %q has no route token for multiplexing", spec)
		}
		cfg2, err2 := ParseCheck(spec, params, 7, checker.EvictionPolicy{})
		if err2 != nil || cfg2.Name != cfg.Name || cfg2.RouteSpec != cfg.RouteSpec {
			t.Fatalf("re-parse diverged: %+v vs %+v (err %v)", cfg, cfg2, err2)
		}
		roundTrip(t, cfg, params, checker.EvictionPolicy{})
		if werr == nil && core.ClassifyWindow(w2) == core.ClassifyWindow(cfg.Check.Window) {
			a, _ := core.FormatWindow(w2)
			if b, _ := core.FormatWindow(cfg.Check.Window); a != b {
				t.Fatalf("one grid, two texts: %q and %q", a, b)
			}
		}
		// An accepted spec must also be admissible: the compiled check
		// has to stream (ParseCheck only emits streamable windows), and
		// the operator built from it has to run. One event on the check's
		// first input, then Flush: no accepted window fires more than one
		// window on it.
		x := checker.NewMux(false, checker.EvictionPolicy{})
		if err := x.Register(checker.MuxCheck{
			Name: cfg.Name, Check: cfg.Check, Params: cfg.Params, Seed: cfg.Seed, Route: cfg.Route,
		}); err != nil {
			t.Fatalf("accepted spec %q does not compile to a stream operator: %v", spec, err)
		}
		op := x.Factory()()
		emit := func(stream.Event) {}
		op.Process(stream.Event{Key: cfg.Check.SeriesNames[0], Value: 1}, emit)
		op.Flush(emit)
	})
}

// routeOK reports whether cfg's Route is the value its RouteSpec names:
// the zero Route (by event key) for "event", the tag list of
// "inputs:<a>,<b>", one tag per input.
func routeOK(cfg CheckConfig) bool {
	if cfg.RouteSpec == "event" {
		return cfg.Route == nil
	}
	tags, ok := strings.CutPrefix(cfg.RouteSpec, "inputs:")
	return ok && cfg.Route != nil && strings.Join(cfg.Route, ",") == tags && len(cfg.Route) == len(cfg.Check.SeriesNames)
}
