package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestBenchmarkJSON keeps ../BENCHMARK.json, which the driver reads, in
// step with the tables this program reports from, and inside the limits
// the driver refuses a file for.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want exactly command, paths, run_seconds, workloads, end_to_end, per_layer", len(keys))
	}
	bj, err := loadBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", bj.RunSeconds, defaultSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q (%q), defined as %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, %d reported", len(bj.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range bj.EndToEnd {
		name(m.Name)
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d.higher) {
			t.Errorf("end-to-end metric %d is %+v, reported as %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("unit %q breaks the unit rule", m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, %d reported", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		name(m.Name)
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d.higher) {
			t.Errorf("per-layer metric %d is %+v, reported as %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("unit %q breaks the unit rule", m.Unit)
		}
	}
}

// TestScheduleWait pins the part of a paced verdict's age that the
// latency metrics leave unscaled: half a frame fill and a whole one where
// a tick carries less than a frame per shard, nothing and a tick where it
// carries several.
func TestScheduleWait(t *testing.T) {
	want := map[string][2]float64{
		"frames-clearcut": {0, 1},
		"mc-borderline":   {4, 8},
		"suite-sliding":   {3.2, 6.4},
		"ndjson-manykeys": {0, 5},
	}
	for _, wl := range workloads {
		p50, p99 := wl.scheduleWaitMs()
		if w := want[wl.name]; math.Abs(p50-w[0]) > 1e-9 || math.Abs(p99-w[1]) > 1e-9 {
			t.Errorf("%s: schedule wait %g / %g ms, want %g / %g", wl.name, p50, p99, w[0], w[1])
		}
	}
}
