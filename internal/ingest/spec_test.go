package ingest

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sound/internal/checker"
	"sound/internal/core"
)

// sameBits is reflect.DeepEqual with floats compared by their bits, so
// a NaN bound equals itself and -0 differs from 0; a function is equal
// only to another nil function.
func sameBits(x, y reflect.Value) bool {
	if x.IsValid() != y.IsValid() || x.IsValid() && x.Type() != y.Type() {
		return false
	}
	if !x.IsValid() {
		return true
	}
	switch x.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(x.Float()) == math.Float64bits(y.Float())
	case reflect.Struct:
		for i := 0; i < x.NumField(); i++ {
			if !sameBits(x.Field(i), y.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if x.IsNil() != y.IsNil() || x.Len() != y.Len() {
			return false
		}
		for i := 0; i < x.Len(); i++ {
			if !sameBits(x.Index(i), y.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Interface, reflect.Pointer:
		if x.IsNil() || y.IsNil() {
			return x.IsNil() == y.IsNil()
		}
		return sameBits(x.Elem(), y.Elem())
	case reflect.Func:
		return x.IsNil() && y.IsNil()
	}
	return x.Equal(y)
}

// roundTrip asserts the FormatCheck contract on one accepted config:
// its text parses back — under another default seed — to a config equal
// to it bit for bit, and that config formats to the same text.
func roundTrip(t *testing.T, cfg CheckConfig, params core.Params, evict checker.EvictionPolicy) {
	t.Helper()
	text, err := FormatCheck(cfg)
	if err != nil {
		t.Fatalf("accepted config %q has no text: %v", cfg.Name, err)
	}
	back, err := ParseCheck(text, params, cfg.Seed+1, evict)
	if err != nil {
		t.Fatalf("FormatCheck wrote %q, which ParseCheck refuses: %v", text, err)
	}
	if !sameBits(reflect.ValueOf(back), reflect.ValueOf(cfg)) {
		t.Fatalf("%q parses to\n%+v\nwant\n%+v", text, back, cfg)
	}
	if again, err := FormatCheck(back); err != nil || again != text {
		t.Fatalf("formats as %q, then as %q (%v)", text, again, err)
	}
}

// TestFormatCheckRoundTrip: every spec of the repository's own suites
// and every template formats and parses back to itself.
func TestFormatCheckRoundTrip(t *testing.T) {
	params := core.DefaultParams()
	evict := checker.EvictionPolicy{TTL: 60, MaxGroups: 8}
	for _, spec := range append(slices.Clone(sharedTrioSpecs),
		"range;min=-0;max=+Inf;window=point",
		"gt;threshold=1e-300;window=session:5",
		"nonneg;window=global;name= leading space",
		"fraction;min=0;max=13;threshold=0.8;window=time:12:5",
		"monotonic;strict=1;window=count:10:3;seed=18446744073709551615",
		"maxdelta;threshold=9;window=time:9:-0",
		"count;window=count:8:0;route=inputs:a ,b",
		"stdnonzero;window=count:4",
		"lowerdelta;window=count:16;route=inputs:x,y",
		"corr;threshold=0.3;window=time:120;route=inputs:latency,load",
		"nocorr;threshold=0.5;window=time:30;route=inputs:x,y",
		"r2;threshold=0.9;window=count:16;route=inputs:obs,pred",
		"ks;threshold=0.3;window=time:20:10;route=inputs:a,b",
		"kl;threshold=0.5;bins=4096;window=count:32;route=inputs:a,b",
		"range;min=NaN;max=1;window=point;name=a=b",
	) {
		cfg, err := ParseCheck(spec, params, 7, evict)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		roundTrip(t, cfg, params, evict)
	}
	cfg, _ := ParseCheck("fraction;threshold=0.8;max=13;min=0;window=time:12:5;name=frac;seed=3", params, 7, evict)
	if got, _ := FormatCheck(cfg); got != "fraction;min=0;max=13;threshold=0.8;window=time:12:5;route=event;seed=3;name=frac" {
		t.Errorf("canonical text %q", got)
	}
}

// TestFormatCheckRefuses: what ParseCheck cannot have produced has no
// text — a user constraint, a naive check, a window outside the
// grammar, and a name or input key the grammar cannot spell.
func TestFormatCheckRefuses(t *testing.T) {
	base, err := ParseCheck("count;route=inputs:a,b;name=base", core.DefaultParams(), 1, checker.EvictionPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	for name, tweak := range map[string]func(*CheckConfig){
		"user constraint": func(cc *CheckConfig) {
			cc.Check.Constraint = core.Constraint{Name: "fn", Arity: 2, Fn: func([][]float64) bool { return true }}
		},
		"naive":            func(cc *CheckConfig) { cc.Naive = true },
		"custom window":    func(cc *CheckConfig) { cc.Check.Window = &core.TimeWindow{Size: 1} },
		"empty name":       func(cc *CheckConfig) { cc.Name = "" },
		"name with ';'":    func(cc *CheckConfig) { cc.Name = "a;b" },
		"trailing space":   func(cc *CheckConfig) { cc.Name = "a " },
		"repeated key":     func(cc *CheckConfig) { cc.Route = checker.ByInputKeys("a", "a") },
		"key with ','":     func(cc *CheckConfig) { cc.Route = checker.ByInputKeys("a,b", "c") },
		"empty key":        func(cc *CheckConfig) { cc.Route = checker.ByInputKeys("", "b") },
		"route ends blank": func(cc *CheckConfig) { cc.Route = checker.ByInputKeys("a", "b\t") },
	} {
		cc := base
		tweak(&cc)
		if text, err := FormatCheck(cc); err == nil {
			t.Errorf("%s: formatted as %q", name, text)
		}
	}
}

// TestListChecksSpecs: GET /checks lists the names under "checks", as
// before, and each check's canonical spec under "specs", in
// registration order — "" for a check that has none.
func TestListChecksSpecs(t *testing.T) {
	boot, err := ParseCheck(sharedTrioSpecs[0], core.DefaultParams(), 1, checker.EvictionPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	naive := boot
	naive.Name, naive.Check.Name, naive.Naive = "naive", "naive", true
	s, err := NewServer(Config{Shards: 1, Checks: []CheckConfig{boot, naive}, DefaultSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/checks", "text/plain", strings.NewReader(sharedTrioSpecs[1]))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/checks")
	if err != nil {
		t.Fatal(err)
	}
	var body struct{ Checks, Specs []string }
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"fraction;min=0;max=13;threshold=0.8;window=time:9;route=event;seed=1;name=frac",
		"",
		"range;min=-2;max=14;window=time:9;route=event;seed=1;name=rng",
	}
	if !slices.Equal(body.Checks, []string{"frac", "naive", "rng"}) || !slices.Equal(body.Specs, want) {
		t.Errorf("GET /checks = %+v, want names frac, naive, rng and specs %q", body, want)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}
