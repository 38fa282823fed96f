package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sound/internal/checkpoint"
)

func writeCSV(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runTool(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRangeCheckClean(t *testing.T) {
	path := writeCSV(t, "s.csv", "t,v\n1,5\n2,6\n3,7\n")
	code, out, _ := runTool(t, "-constraint", "range", "-min", "0", "-max", "10", path)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "⊤ 3") {
		t.Errorf("output = %q", out)
	}
}

func TestRangeCheckViolationExitCode(t *testing.T) {
	path := writeCSV(t, "s.csv", "t,v\n1,5\n2,600\n")
	code, out, _ := runTool(t, "-constraint", "range", "-min", "0", "-max", "10", path)
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(out, "⊥ 1") {
		t.Errorf("output = %q", out)
	}
}

func TestVerboseOutput(t *testing.T) {
	path := writeCSV(t, "s.csv", "t,v\n1,5\n")
	_, out, _ := runTool(t, "-constraint", "range", "-min", "0", "-max", "10", "-v", path)
	if !strings.Contains(out, "window 0") || !strings.Contains(out, "P(viol)") {
		t.Errorf("verbose output = %q", out)
	}
}

func TestNaiveMode(t *testing.T) {
	path := writeCSV(t, "s.csv", "t,v,sig_up,sig_down\n1,10.2,0.1,5\n")
	code, out, _ := runTool(t, "-constraint", "range", "-min", "0", "-max", "10", "-naive", path)
	if code != 2 {
		t.Fatalf("naive exit = %d", code)
	}
	if !strings.Contains(out, "⊥ 1") {
		t.Errorf("naive output = %q", out)
	}
}

func TestBinaryConstraint(t *testing.T) {
	a := writeCSV(t, "a.csv", "t,v\n1,1\n2,2\n3,3\n4,4\n5,5\n6,6\n")
	b := writeCSV(t, "b.csv", "t,v\n1,2\n2,4\n3,6\n4,8\n5,10\n6,12\n")
	code, out, _ := runTool(t, "-constraint", "corr", "-threshold", "0.2", "-window", "global", a, b)
	if code != 0 {
		t.Fatalf("exit = %d (%s)", code, out)
	}
	if !strings.Contains(out, "⊤ 1") {
		t.Errorf("output = %q", out)
	}
}

func TestSessionWindowSpec(t *testing.T) {
	path := writeCSV(t, "s.csv", "t,v\n1,5\n2,5\n50,5\n51,5\n")
	code, out, _ := runTool(t, "-constraint", "maxdelta", "-threshold", "10", "-window", "session:10", path)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "2 windows") {
		t.Errorf("session windows not applied: %q", out)
	}
}

// explainCSV is a workload with a mid-series uncertainty regression, so
// the violation analysis finds at least one change point to explain.
func explainCSV(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("t,v,sig_up,sig_down\n")
	for i := 0; i < 80; i++ {
		sig := 0.1
		if i >= 40 {
			sig = 6.0
		}
		fmt.Fprintf(&b, "%d,10.5,%g,%g\n", i, sig, sig)
	}
	return writeCSV(t, "explain.csv", b.String())
}

// TestExplainFlag pins the printed violation summary: the analysis fans
// out over however many workers the host has and prints the same text.
func TestExplainFlag(t *testing.T) {
	path := explainCSV(t)
	_, out, _ := runTool(t, "-constraint", "gt", "-threshold", "10", "-window", "time:10", "-explain", path)
	const want = "gt: 8 windows — ⊤ 4, ⊥ 4, ⊣ 0\n" +
		"check gt: ⊤ 4  ⊥ 4  ⊣ 0  — 1 change point(s)\n" +
		"  E4 (high value uncertainty): 1\n"
	if out != want {
		t.Errorf("output:\n%q\nwant:\n%q", out, want)
	}
}

func TestExplainRejectsNaiveAndStream(t *testing.T) {
	path := writeCSV(t, "s.csv", "t,v\n1,5\n")
	for _, extra := range []string{"-naive", "-stream"} {
		code, _, errOut := runTool(t, "-constraint", "range", "-min", "0", "-max", "10", "-explain", extra, path)
		if code != 1 || !strings.Contains(errOut, "explain") {
			t.Errorf("%s: exit = %d, stderr = %q", extra, code, errOut)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	path := writeCSV(t, "s.csv", "t,v\n1,5\n")
	cases := [][]string{
		{"-constraint", "bogus", path},
		{"-constraint", "corr", path},            // arity mismatch
		{"-window", "time", path},                // missing size
		{"-window", "martian:3", path},           // unknown window
		{"-constraint", "range", "/nonexistent"}, // unreadable file
		{"-c", "7", path},                        // invalid credibility
		{"-explain", "-parallel", path},          // -explain always fans out; no flag picks
	}
	for _, args := range cases {
		code, _, errOut := runTool(t, args...)
		if code != 1 {
			t.Errorf("args %v: exit = %d, want 1 (stderr %q)", args, code, errOut)
		}
		if errOut == "" {
			t.Errorf("args %v: no error message", args)
		}
	}
}

func TestGarbageCSVRejected(t *testing.T) {
	path := writeCSV(t, "s.csv", "t,v\n1,notanumber\n")
	code, _, errOut := runTool(t, "-constraint", "range", path)
	if code != 1 || !strings.Contains(errOut, "soundcheck") {
		t.Errorf("exit = %d, stderr = %q", code, errOut)
	}
}

func TestBuildWindowVariants(t *testing.T) {
	for spec, want := range map[string]string{
		"point":      "point",
		"global":     "global",
		"time:5":     "time(size=5)",
		"time:6:2":   "time(size=6, slide=2)",
		"count:4":    "count(size=4)",
		"count:4:1":  "count(size=4, slide=1)",
		"session:10": "session(gap=10)",
	} {
		w, err := buildWindow(spec)
		if err != nil {
			t.Errorf("%s: %v", spec, err)
			continue
		}
		if w.String() != want {
			t.Errorf("%s: String() = %q, want %q", spec, w.String(), want)
		}
	}
	for _, bad := range []string{"time:x", "count:x", "session:x", "count:3:y", "time:3:y"} {
		if _, err := buildWindow(bad); err == nil {
			t.Errorf("%s accepted", bad)
		}
	}
}

func TestBuildConstraintCoverage(t *testing.T) {
	names := []string{"range", "gt", "nonneg", "fraction", "monotonic", "maxdelta",
		"stdnonzero", "corr", "nocorr", "r2", "ks", "count"}
	for _, name := range names {
		c, arity, err := buildConstraint(name, 0, 1, 0.5)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if arity != c.Arity {
			t.Errorf("%s: reported arity %d, constraint arity %d", name, arity, c.Arity)
		}
	}
}

// TestStreamQuotedCSVFallback: the streaming replay reads files through
// the zero-alloc CSV scanner, which punts on quoted fields; the cursor
// must fall back to the full reader and produce output identical to the
// unquoted equivalent.
func TestStreamQuotedCSVFallback(t *testing.T) {
	plain := writeCSV(t, "plain.csv", "t,v\n1,5\n2,6\n3,700\n4,8\n")
	quoted := writeCSV(t, "quoted.csv", "t,v\n1,5\n2,6\n\"3\",\"700\"\n4,8\n")
	args := []string{"-constraint", "range", "-min", "0", "-max", "10", "-window", "count:2", "-stream"}
	codeP, outP, _ := runTool(t, append(args, plain)...)
	codeQ, outQ, _ := runTool(t, append(args, quoted)...)
	if codeP != codeQ || outP != outQ {
		t.Errorf("quoted CSV diverged: (%d, %q) vs (%d, %q)", codeQ, outQ, codeP, outP)
	}
}

// TestStreamGarbageCSVRejected: a parse error mid-file in streaming
// mode must abort the replay with exit 1 and name the file.
func TestStreamGarbageCSVRejected(t *testing.T) {
	path := writeCSV(t, "s.csv", "t,v\n1,5\n2,notanumber\n")
	code, _, errOut := runTool(t, "-constraint", "range", "-min", "0", "-max", "10", "-stream", path)
	if code != 1 || !strings.Contains(errOut, "s.csv") {
		t.Errorf("exit = %d, stderr = %q", code, errOut)
	}
}

// TestStreamTwoFileMerge exercises the streaming two-cursor merge with
// interleaved and tied timestamps: a binary constraint only sees both
// inputs if the merge routes each file's points correctly, so a merge
// regression shows up as missing windows or a verdict flip.
func TestStreamTwoFileMerge(t *testing.T) {
	a := writeCSV(t, "a.csv", "t,v\n1,1\n2,2\n3,3\n4,4\n5,5\n6,6\n")
	b := writeCSV(t, "b.csv", "t,v\n1,2\n2,4\n3,6\n4,8\n5,10\n6,12\n")
	code, out, errOut := runTool(t, "-constraint", "corr", "-threshold", "0.2", "-window", "global", "-stream", a, b)
	if code != 0 {
		t.Fatalf("exit = %d (stdout %q, stderr %q)", code, out, errOut)
	}
	if !strings.Contains(out, "⊤ 1") {
		t.Errorf("output = %q", out)
	}
}

// TestCheckpointFailedWriteKeepsPrevious: a snapshot write that fails —
// here the temp file is a link to /dev/full, so the write itself returns
// ENOSPC — must fail the run and leave the previous snapshot byte for byte.
func TestCheckpointFailedWriteKeepsPrevious(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail a write with")
	}
	var csv strings.Builder
	csv.WriteString("t,v,sig_up,sig_down\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&csv, "%d,%d,1,1\n", i, 5+i%7)
	}
	data := writeCSV(t, "s.csv", csv.String())
	ckpt := filepath.Join(t.TempDir(), "state.ckp")
	args := []string{"-constraint", "range", "-min", "0", "-max", "10", "-window", "count:4", "-stream",
		"-checkpoint", ckpt, "-checkpoint-every", "10", data}
	if code, _, errOut := runTool(t, args...); code == 1 || errOut != "" {
		t.Fatalf("first run: exit %d, stderr %q", code, errOut)
	}
	prev, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.NewDecoder(prev); err != nil {
		t.Fatalf("first run left an unreadable snapshot: %v", err)
	}
	if _, err := os.Stat(ckpt + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left behind after a good write: %v", err)
	}

	if err := os.Symlink("/dev/full", ckpt+".tmp"); err != nil {
		t.Fatal(err)
	}
	code, _, errOut := runTool(t, args...)
	if code != 1 || !strings.Contains(errOut, "writing checkpoint") {
		t.Errorf("run with a failing write: exit %d, stderr %q", code, errOut)
	}
	if got, err := os.ReadFile(ckpt); err != nil || !bytes.Equal(got, prev) {
		t.Errorf("previous snapshot changed after a failed write (err %v)", err)
	}
	if _, err := os.Lstat(ckpt + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left behind after a failed write: %v", err)
	}
}
