package ingest

import (
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
// Flush.
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
		"range;route=inputs:" + strings.Repeat("a,", 50) + "b",
	} {
		f.Add(spec)
	}
	params := core.DefaultParams()
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseCheck(spec, params, 7, checker.EvictionPolicy{})
		if err != nil {
			if !strings.Contains(err.Error(), "check spec") {
				t.Fatalf("error does not name the spec: %v", err)
			}
			return
		}
		if cfg.Name == "" || cfg.Check.Constraint.Validate() != nil || cfg.Route == nil || cfg.Check.Window == nil {
			t.Fatalf("accepted spec %q produced incomplete config %+v", spec, cfg)
		}
		if cfg.RouteSpec == "" {
			t.Fatalf("accepted spec %q has no route token for multiplexing", spec)
		}
		cfg2, err2 := ParseCheck(spec, params, 7, checker.EvictionPolicy{})
		if err2 != nil || cfg2.Name != cfg.Name || cfg2.RouteSpec != cfg.RouteSpec {
			t.Fatalf("re-parse diverged: %+v vs %+v (err %v)", cfg, cfg2, err2)
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
