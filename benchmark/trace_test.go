package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestLayerTrace replays a small input through every layer: every
// per-layer metric is produced, the self times add up to the replays
// they were cut from, and the trace file links each span to an earlier
// parent.
func TestLayerTrace(t *testing.T) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	wl := testWorkload()
	lt, err := newLayerTrace(wl)
	if err != nil {
		t.Fatal(err)
	}
	if len(lt.buckets) != 2 || lt.compileNs <= 0 {
		t.Fatalf("%d buckets compiled in %v ns, want the time and the count bucket", len(lt.buckets), lt.compileNs)
	}
	// Long enough that the slice holds whole count:32 windows per key.
	const seconds = 10
	in, err := prepare(wl, 3, seconds)
	if err != nil {
		t.Fatal(err)
	}
	layers, err := lt.run(in, 3, seconds, &socketRun{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Remove(lt.file) })
	if _, missing := pack(perLayer, layers); len(missing) > 0 {
		t.Errorf("per-layer metrics not produced: %v", missing)
	}
	for name, v := range layers {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v", name, v)
		}
	}
	for _, name := range []string{"wire.decode_ns_per_point", "ingest.transport_ns_per_point", "checker.operator_ns_per_point",
		"core.evaluate_ns_per_window", "resample.draw_iid_ns_per_value", "resample.draw_block_ns_per_value", "core.samples_per_verdict"} {
		if layers[name] <= 0 {
			t.Errorf("%s = %v, want a positive measurement", name, layers[name])
		}
	}
	b := lt.bill
	sum := b["wire"] + b["ingest"] + b["checker"] + b["resample.extract"] + b["resample.draw"] + b["core"] + b["unattributed"]
	if math.Abs(sum-b["end_to_end"]) > 1e-6*b["end_to_end"] {
		t.Errorf("bill sums to %v ns/point, end to end is %v", sum, b["end_to_end"])
	}
	if got := b["checker"] + b["resample.extract"] + b["resample.draw"] + b["core"]; math.Abs(got-layers["checker.operator_ns_per_point"]) > 1e-6*got {
		t.Errorf("evaluation-side self times sum to %v, the operator span is %v", got, layers["checker.operator_ns_per_point"])
	}

	raw, err := os.ReadFile(lt.file)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workload string `json:"workload"`
		Spans    []struct {
			I      int    `json:"i"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Parent int    `json:"parent"`
			ID     string `json:"id"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	names := map[string]int{}
	for i, s := range file.Spans {
		names[s.Name]++
		if s.I != i || s.End < s.Start || s.Parent >= i || s.Parent < -1 {
			t.Fatalf("span %d is malformed: %+v", i, s)
		}
		if s.Name == "resample.draw" && file.Spans[s.Parent].Name != "core.evaluate" {
			t.Fatalf("draw span %d hangs from %q, want the evaluation it replays", i, file.Spans[s.Parent].Name)
		}
		if s.Name == "resample.draw" && s.ID != file.Spans[s.Parent].ID {
			t.Fatalf("draw span %d has id %q, its evaluation %q", i, s.ID, file.Spans[s.Parent].ID)
		}
	}
	for _, want := range spanNames {
		if names[want] == 0 {
			t.Errorf("no %s span in the trace", want)
		}
	}
}
