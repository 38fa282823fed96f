package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestListExperiments(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{"fig1", "fig4", "table5", "table6", "ablation"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list missing %s", want)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "fig1", "-quick"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "=== fig1") || !strings.Contains(out.String(), "SOUND") {
		t.Errorf("output = %q", out.String())
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "fig99"}, &out, &errb); code != 1 {
		t.Errorf("exit = %d", code)
	}
	if !strings.Contains(errb.String(), "unknown experiment") {
		t.Errorf("stderr = %q", errb.String())
	}
}

func TestBenchJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real benchmark")
	}
	var out, errb bytes.Buffer
	code := run([]string{"-benchjson", "-", "-benchfilter", "EvaluatePointCheck"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errb.String())
	}
	var report struct {
		GoVersion  string `json:"go_version"`
		Benchmarks []struct {
			Name       string  `json:"name"`
			Iterations int     `json:"iterations"`
			NsPerOp    float64 `json:"ns_per_op"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if report.GoVersion == "" || len(report.Benchmarks) != 1 {
		t.Fatalf("report = %+v", report)
	}
	b := report.Benchmarks[0]
	if b.Name != "EvaluatePointCheck" || b.Iterations <= 0 || b.NsPerOp <= 0 {
		t.Errorf("benchmark record = %+v", b)
	}
}

func TestBadFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-definitely-not-a-flag"}, &out, &errb); code != 1 {
		t.Errorf("exit = %d", code)
	}
}

func TestBenchJSONCPUFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real benchmark")
	}
	var out, errb bytes.Buffer
	code := run([]string{"-benchjson", "-", "-benchfilter", "Kernel/certain", "-cpu", "1"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errb.String())
	}
	var report struct {
		GoMaxProcs int `json:"gomaxprocs"`
		Benchmarks []struct {
			Name       string `json:"name"`
			GoMaxProcs int    `json:"gomaxprocs"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if len(report.Benchmarks) != 1 {
		t.Fatalf("report = %+v", report)
	}
	if b := report.Benchmarks[0]; b.GoMaxProcs != 1 {
		t.Errorf("per-spec gomaxprocs = %d, want 1 (-cpu 1)", b.GoMaxProcs)
	}
}

func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out, errb bytes.Buffer
	code := run([]string{"-exp", "fig1", "-quick", "-cpuprofile", cpu, "-memprofile", mem}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errb.String())
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

// TestAB feeds the pair summary ten synthetic pairs: a clear gain on one
// metric, an exact tie on a count metric, a regression beyond its bound.
// A run with wrong outputs and a run with no result line each take their
// pair out of the statistics and fail the summary.
func TestAB(t *testing.T) {
	line := func(side string, correct bool, cpu, agree, lat float64) string {
		return fmt.Sprintf(`%s {"correct":%t,"attempted":1,"failed":0,"metrics":{`+
			`"cpu_s_per_mpoint":{"value":%g,"unit":"cpu-s/Mpoint"},`+
			`"verdict_agree_frac":{"value":%g,"unit":"fraction"},`+
			`"verdict_lat_p50_ms":{"value":%g,"unit":"ms"}}}`, side, correct, cpu, agree, lat)
	}
	write := func(allValid bool) string {
		var lines []string
		for i := 0; i < 10; i++ {
			jitter := float64(i%3) * 0.01
			lines = append(lines, line("parent", true, 3.1+jitter, 0.887, 4+jitter))
			lines = append(lines, line("change", allValid || i != 9, 2.6+jitter, 0.887, 6+jitter))
		}
		if !allValid {
			lines[0] = "parent "
		}
		path := filepath.Join(t.TempDir(), "ab.txt")
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out, errb bytes.Buffer
	if code := runAB(write(true), "../../BENCHMARK.json", &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errb.String())
	}
	for metric, want := range map[string]string{
		"cpu_s_per_mpoint":   "gain",
		"verdict_agree_frac": "equal",
		"verdict_lat_p50_ms": "REGRESSION",
	} {
		found := false
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(l, metric+" ") && strings.HasSuffix(l, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s not labelled %q in:\n%s", metric, want, out.String())
		}
	}
	out.Reset()
	if code := runAB(write(false), "../../BENCHMARK.json", &out, &errb); code != 1 ||
		!strings.Contains(out.String(), "8 pairs (10 recorded)") || !strings.Contains(errb.String(), "2 of 10 pairs left out") {
		t.Errorf("two invalid runs: exit = %d, stdout = %q, stderr = %q", code, out.String(), errb.String())
	}
}
