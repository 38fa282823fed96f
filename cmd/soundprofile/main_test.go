package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"sound/internal/checker"
	"sound/internal/core"
	"sound/internal/ingest"
	"sound/internal/profile"
	"sound/internal/series"
)

func writeSeries(t *testing.T, dir, name string, gen func(i int) (tt, v float64), n int) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("t,v\n")
	for i := 0; i < n; i++ {
		tt, v := gen(i)
		fmt.Fprintf(&b, "%g,%g\n", tt, v)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// profiledFiles writes three series that draw a range, a monotonicity
// and a correlation suggestion: load.csv, counter.csv and twice.csv.
func profiledFiles(t *testing.T) (load, counter, twice string) {
	dir := t.TempDir()
	load = writeSeries(t, dir, "load.csv", func(i int) (float64, float64) {
		return float64(i), 50 + 10*math.Sin(float64(i)/8)
	}, 120)
	counter = writeSeries(t, dir, "counter.csv", func(i int) (float64, float64) {
		return float64(i), float64(i * i)
	}, 120)
	twice = writeSeries(t, dir, "twice.csv", func(i int) (float64, float64) {
		return float64(i), float64(2*i*i) + 1
	}, 120)
	return load, counter, twice
}

// printedSpecs runs the tool on files and returns its output and every
// spec it printed.
func printedSpecs(t *testing.T, files ...string) (string, []string) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(append([]string{"-mincorr", "0.7", "-margin", "1.5"}, files...), &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errb.String())
	}
	var specs []string
	for _, line := range strings.Split(out.String(), "\n") {
		if spec, ok := strings.CutPrefix(strings.TrimSpace(line), "spec: "); ok {
			specs = append(specs, spec)
		}
	}
	return out.String(), specs
}

// TestProfileSuggestsAndPrintsInvocations: every suggestion prints a
// spec that ParseCheck accepts and that parses back to the suggestion
// itself — its kernel spec bit for bit, its window, and its series as the
// check's routed inputs.
func TestProfileSuggestsAndPrintsInvocations(t *testing.T) {
	load, counter, twice := profiledFiles(t)
	text, specs := printedSpecs(t, load, counter, twice)
	for _, want := range []string{"suggested-range(load)", "suggested-monotone(counter)", "suggested-corr(", "evidence:"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}

	data := map[string]series.Series{}
	for _, path := range []string{load, counter, twice} {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := series.ReadCSV(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		data[strings.TrimSuffix(filepath.Base(path), ".csv")] = s
	}
	sugs := profile.Suggest(data, profile.Options{RangeMargin: 1.5, MinCorrelation: 0.7})
	if len(specs) != len(sugs) {
		t.Fatalf("%d specs printed for %d suggestions:\n%s", len(specs), len(sugs), text)
	}
	for i, sug := range sugs {
		cc, err := ingest.ParseCheck(specs[i], core.DefaultParams(), 0, checker.EvictionPolicy{})
		if err != nil {
			t.Errorf("%s: %v", sug.Check.Name, err)
			continue
		}
		got, want := cc.Check.Constraint.Spec, sug.Check.Constraint.Spec
		if got.Op != want.Op || got.Strict != want.Strict || got.Bins != want.Bins ||
			math.Float64bits(got.A) != math.Float64bits(want.A) ||
			math.Float64bits(got.B) != math.Float64bits(want.B) ||
			math.Float64bits(got.C) != math.Float64bits(want.C) {
			t.Errorf("%s: spec %q parses to kernel %+v, want %+v", sug.Check.Name, specs[i], got, want)
		}
		if cc.Name != sug.Check.Name || cc.Check.Window != sug.Check.Window || !slices.Equal(cc.Check.SeriesNames, sug.Check.SeriesNames) {
			t.Errorf("%s: spec %q parses to %q over %v on %v", sug.Check.Name, specs[i], cc.Name, cc.Check.SeriesNames, cc.Check.Window)
		}
	}
}

// TestProfileSpecsRunUnderSoundcheck: every spec the tool prints runs
// unchanged under soundcheck -check, given the profiled files in the
// order of the spec's inputs, and prints its summary line.
func TestProfileSpecsRunUnderSoundcheck(t *testing.T) {
	load, counter, twice := profiledFiles(t)
	_, specs := printedSpecs(t, load, counter, twice)
	soundcheck := filepath.Join(t.TempDir(), "soundcheck")
	if out, err := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "build", "-o", soundcheck, "sound/cmd/soundcheck").CombinedOutput(); err != nil {
		t.Fatalf("building soundcheck: %v\n%s", err, out)
	}
	file := map[string]string{"load": load, "counter": counter, "twice": twice}
	for _, spec := range specs {
		cc, err := ingest.ParseCheck(spec, core.DefaultParams(), 1, checker.EvictionPolicy{})
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		args := []string{"-check", spec}
		for _, input := range cc.Check.SeriesNames {
			args = append(args, file[input])
		}
		cmd := exec.Command(soundcheck, args...)
		out, err := cmd.Output()
		if code := cmd.ProcessState.ExitCode(); code != 0 && code != 2 || !strings.HasPrefix(string(out), cc.Name+": ") || !strings.Contains(string(out), " windows — ") {
			t.Errorf("soundcheck %q: exit %d (%v), stdout %q", args, code, err, out)
		}
	}
}

func TestProfileErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 1 {
		t.Errorf("no-input exit = %d", code)
	}
	if code := run([]string{"/does/not/exist.csv"}, &out, &errb); code != 1 {
		t.Errorf("missing-file exit = %d", code)
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.csv")
	os.WriteFile(bad, []byte("t,v\n1,zap\n"), 0o644)
	if code := run([]string{bad}, &out, &errb); code != 1 {
		t.Errorf("garbage-file exit = %d", code)
	}
}

func TestProfileNoStructure(t *testing.T) {
	dir := t.TempDir()
	tiny := writeSeries(t, dir, "tiny.csv", func(i int) (float64, float64) {
		return float64(i), float64(i)
	}, 3)
	var out, errb bytes.Buffer
	if code := run([]string{tiny}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out.String(), "no suggestions") {
		t.Errorf("output = %q", out.String())
	}
}
