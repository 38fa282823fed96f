package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
	code, out, _ := runTool(t, "-check", "range;min=0;max=10", path)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "⊤ 3") {
		t.Errorf("output = %q", out)
	}
}

func TestRangeCheckViolationExitCode(t *testing.T) {
	path := writeCSV(t, "s.csv", "t,v\n1,5\n2,600\n")
	code, out, _ := runTool(t, "-check", "range;min=0;max=10", path)
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(out, "⊥ 1") {
		t.Errorf("output = %q", out)
	}
}

func TestVerboseOutput(t *testing.T) {
	path := writeCSV(t, "s.csv", "t,v\n1,5\n")
	_, out, _ := runTool(t, "-check", "range;min=0;max=10", "-v", path)
	if !strings.Contains(out, "window 0") || !strings.Contains(out, "P(viol)") {
		t.Errorf("verbose output = %q", out)
	}
}

func TestNaiveMode(t *testing.T) {
	path := writeCSV(t, "s.csv", "t,v,sig_up,sig_down\n1,10.2,0.1,5\n")
	code, out, _ := runTool(t, "-check", "range;min=0;max=10", "-naive", path)
	if code != 2 {
		t.Fatalf("naive exit = %d", code)
	}
	if !strings.Contains(out, "⊥ 1") {
		t.Errorf("naive output = %q", out)
	}
}

// TestNaiveRefusesUnplaceableTime: a time the window cannot place is
// refused by the naive run exactly as by the SOUND run, not windowed.
func TestNaiveRefusesUnplaceableTime(t *testing.T) {
	path := writeCSV(t, "s.csv", "t,v\n0,1\n1,2\n2,3\n1e300,4\n")
	for _, extra := range [][]string{nil, {"-naive"}, {"-naive", "-v"}} {
		args := append([]string{"-check", "range;min=0;max=10;window=time:10"}, extra...)
		code, out, errOut := runTool(t, append(args, path)...)
		if code != 1 || out != "" || !strings.Contains(errOut, "window time:10 cannot place") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 1 and the placement error", extra, code, out, errOut)
		}
	}
}

func TestBinaryConstraint(t *testing.T) {
	a := writeCSV(t, "a.csv", "t,v\n1,1\n2,2\n3,3\n4,4\n5,5\n6,6\n")
	b := writeCSV(t, "b.csv", "t,v\n1,2\n2,4\n3,6\n4,8\n5,10\n6,12\n")
	code, out, _ := runTool(t, "-check", "corr;threshold=0.2;window=global;route=inputs:a,b", a, b)
	if code != 0 {
		t.Fatalf("exit = %d (%s)", code, out)
	}
	if !strings.Contains(out, "⊤ 1") {
		t.Errorf("output = %q", out)
	}
}

func TestSessionWindowSpec(t *testing.T) {
	path := writeCSV(t, "s.csv", "t,v\n1,5\n2,5\n50,5\n51,5\n")
	code, out, _ := runTool(t, "-check", "maxdelta;threshold=10;window=session:10", path)
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
	_, out, _ := runTool(t, "-check", "gt;threshold=10;window=time:10", "-explain", path)
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
		code, _, errOut := runTool(t, "-check", "range;min=0;max=10", "-explain", extra, path)
		if code != 1 || !strings.Contains(errOut, "explain") {
			t.Errorf("%s: exit = %d, stderr = %q", extra, code, errOut)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	path := writeCSV(t, "s.csv", "t,v\n1,5\n")
	cases := [][]string{
		{path},                    // no check
		{"-check", "bogus", path}, // unknown constraint
		{"-check", "corr;route=inputs:a,b", path}, // one file for two inputs
		{"-check", "range", path, path},           // two files for one input
		{"-check", "corr", path, path},            // a binary check needs route=inputs:
		{"-check", "range;window=time", path},     // missing size
		{"-check", "range;window=martian:3", path},
		{"-check", "range;window=time:1:2:3", path}, // the window texts the grammar refuses
		{"-check", "range;window=time:10:1:2", path},
		{"-check", "range;window=point:junk", path},
		{"-check", "range;window=session:5:9", path},
		{"-check", "range;window=global:x", path},
		{"-check", "range;window=time:10:-5", path},
		{"-check", "range;window=count:4:-3", path},
		{"-check", "range", "/nonexistent"},  // unreadable file
		{"-c", "7", "-check", "range", path}, // invalid credibility
		{"-explain", "-parallel", path},      // -explain always fans out; no flag picks
		{"-constraint", "range", path},       // the check is one -check spec
		{"-check", "range", "-window", "count:4", path},
		{"-check", "range", "-seed", "2", path},
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
	code, _, errOut := runTool(t, "-check", "range", path)
	if code != 1 || !strings.Contains(errOut, "soundcheck") {
		t.Errorf("exit = %d, stderr = %q", code, errOut)
	}
}

// TestStreamQuotedCSVFallback: the streaming replay reads files through
// the zero-alloc CSV scanner, which punts on quoted fields; the cursor
// must fall back to the full reader and produce output identical to the
// unquoted equivalent.
func TestStreamQuotedCSVFallback(t *testing.T) {
	plain := writeCSV(t, "plain.csv", "t,v\n1,5\n2,6\n3,700\n4,8\n")
	quoted := writeCSV(t, "quoted.csv", "t,v\n1,5\n2,6\n\"3\",\"700\"\n4,8\n")
	args := []string{"-check", "range;min=0;max=10;window=count:2", "-stream"}
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
	code, _, errOut := runTool(t, "-check", "range;min=0;max=10", "-stream", path)
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
	code, out, errOut := runTool(t, "-check", "corr;threshold=0.2;window=global;route=inputs:a,b", "-stream", a, b)
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
	args := []string{"-check", "range;min=0;max=10;window=count:4", "-stream",
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

// streamFixtureArgs are the pinned fixture's stream flags for one window.
func streamFixtureArgs(window string) []string {
	return []string{"-stream", "-check", "fraction;min=0;max=13;threshold=0.8;window=" + window}
}

// TestStreamRestoreParity: a -checkpoint run, then -restore from its
// last snapshot over the same input, prints the summary line and exit
// code an uninterrupted -stream run prints.
func TestStreamRestoreParity(t *testing.T) {
	fixture := filepath.Join("..", "..", "testdata", "gapped_borderline.csv")
	for window, want := range map[string]string{
		"time:12:5": "fraction: 23 windows — ⊤ 2, ⊥ 13, ⊣ 8\n",
		"count:8:3": "fraction: 11 windows — ⊤ 1, ⊥ 10, ⊣ 0\n",
	} {
		args := streamFixtureArgs(window)
		code, out, errOut := runTool(t, append(args, fixture)...)
		if code != 2 || out != want {
			t.Fatalf("%s uninterrupted: exit %d, stdout %q, stderr %q; want exit 2, %q", window, code, out, errOut, want)
		}
		ckpt := filepath.Join(t.TempDir(), "st.ckp")
		if code, out, errOut := runTool(t, append(args, "-checkpoint", ckpt, "-checkpoint-every", "30", fixture)...); code != 2 || out != want {
			t.Errorf("%s checkpointing: exit %d, stdout %q, stderr %q", window, code, out, errOut)
		}
		if code, out, errOut := runTool(t, append(args, "-restore", ckpt, fixture)...); code != 2 || out != want {
			t.Errorf("%s restored: exit %d, stdout %q, stderr %q; want exit 2, %q", window, code, out, errOut, want)
		}
	}
}

// TestStreamRestoreShorterInput: restoring a snapshot taken after 30
// events over an input that holds only 10 must fail and say so, not
// print a summary of a stream that never reached the snapshot.
func TestStreamRestoreShorterInput(t *testing.T) {
	full, err := os.ReadFile(filepath.Join("..", "..", "testdata", "gapped_borderline.csv"))
	if err != nil {
		t.Fatal(err)
	}
	in := writeCSV(t, "in.csv", string(full))
	args := streamFixtureArgs("time:12:5")
	ckpt := filepath.Join(t.TempDir(), "st.ckp")
	if code, _, errOut := runTool(t, append(args, "-checkpoint", ckpt, "-checkpoint-every", "30", in)...); code != 2 {
		t.Fatalf("checkpointing run: exit %d, stderr %q", code, errOut)
	}
	lines := strings.SplitAfter(string(full), "\n")
	if err := os.WriteFile(in, []byte(strings.Join(lines[:11], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runTool(t, append(args, "-restore", ckpt, in)...)
	if code != 1 || out != "" || !strings.Contains(errOut, "event 30") || !strings.Contains(errOut, "only 10 events") {
		t.Errorf("restore over 10 of 30 events: exit %d, stdout %q, stderr %q", code, out, errOut)
	}
}

// TestStreamRestoreRejectsOtherBounds: a snapshot taken under max=13 is
// refused by a run with max=5. Resuming it would mix windows judged
// against one bound with windows judged against the other: it prints
// ⊤ 1, ⊥ 6, where a max=5 run prints ⊤ 0, ⊥ 7.
func TestStreamRestoreRejectsOtherBounds(t *testing.T) {
	fixture := filepath.Join("..", "..", "testdata", "gapped_borderline.csv")
	ckpt := filepath.Join(t.TempDir(), "s.ckp")
	args := func(max string) []string {
		return []string{"-stream", "-check", "fraction;min=0;max=" + max + ";threshold=0.8;window=time:9"}
	}
	if code, _, errOut := runTool(t, append(args("13"), "-checkpoint", ckpt, "-checkpoint-every", "10", fixture)...); code != 2 {
		t.Fatalf("checkpointing run: exit %d, stderr %q", code, errOut)
	}
	code, out, errOut := runTool(t, append(args("5"), "-restore", ckpt, fixture)...)
	if code != 1 || out != "" || !strings.Contains(errOut, "different run configuration") {
		t.Errorf("restore under -max 5: exit %d, stdout %q, stderr %q; want exit 1 naming a different run configuration", code, out, errOut)
	}
}

// fixture is the pinned gapped, borderline series: 40 points.
var fixture = filepath.Join("..", "..", "testdata", "gapped_borderline.csv")

// TestPinnedExamples runs every soundcheck example of README.md and the
// package doc on the pinned fixture (a two-input example reads it as
// both inputs) and pins its output and exit code. The counts are the
// ones the earlier six-flag form (-constraint -min -max -threshold
// -window -seed) printed for the same checks. A resume case also runs a
// -checkpoint leg (every 30 events: the fixture is shorter than the
// examples' 1000) and a -restore leg, which print the same. Every case
// also runs in the other mode (-stream added, or dropped), which must
// print the same counts line: batch seeds each window as the stream
// does. -explain, which needs batch, is left out of its stream twin.
func TestPinnedExamples(t *testing.T) {
	const fraction = "fraction;min=0;max=13;threshold=0.8;window=time:12:5"
	for _, tc := range []struct {
		args   []string
		inputs int
		resume bool
		want   string
		code   int
	}{
		{[]string{"-check", "range;min=0;max=100"}, 1, false, "range: 40 windows — ⊤ 40, ⊥ 0, ⊣ 0\n", 0},
		{[]string{"-check", "range;min=0;max=800"}, 1, false, "range: 40 windows — ⊤ 40, ⊥ 0, ⊣ 0\n", 0},
		{[]string{"-check", "monotonic;window=count:10"}, 1, false, "monotonic: 4 windows — ⊤ 0, ⊥ 4, ⊣ 0\n", 2},
		{[]string{"-check", "corr;threshold=0.2;window=time:30;route=inputs:a,b"}, 2, false, "corr: 4 windows — ⊤ 4, ⊥ 0, ⊣ 0\n", 0},
		{[]string{"-check", "range;min=0;max=1", "-naive"}, 1, false, "range: 40 windows — ⊤ 0, ⊥ 40, ⊣ 0\n", 2},
		{[]string{"-check", "range;min=0;max=1", "-naive", "-stream"}, 1, false, "range: 40 windows — ⊤ 0, ⊥ 40, ⊣ 0\n", 2},
		{[]string{"-check", "gt;threshold=10;window=time:20", "-explain"}, 1, false,
			"gt: 6 windows — ⊤ 2, ⊥ 3, ⊣ 1\n" +
				"check gt: ⊤ 2  ⊥ 3  ⊣ 1  — 3 change point(s)\n" +
				"  E1 (difference in data values): 3\n", 2},
		{[]string{"-check", "range;min=0;max=800;window=time:60", "-stream"}, 1, false, "range: 2 windows — ⊤ 2, ⊥ 0, ⊣ 0\n", 0},
		{[]string{"-check", fraction}, 1, false, "fraction: 23 windows — ⊤ 2, ⊥ 13, ⊣ 8\n", 2},
		{[]string{"-check", fraction, "-naive", "-stream"}, 1, false, "fraction: 23 windows — ⊤ 3, ⊥ 12, ⊣ 8\n", 2},
		{[]string{"-check", fraction, "-stream"}, 1, true, "fraction: 23 windows — ⊤ 2, ⊥ 13, ⊣ 8\n", 2},
		{[]string{"-check", "range;min=0;max=100;window=time:12:5;seed=9", "-stream"}, 1, true, "range: 23 windows — ⊤ 15, ⊥ 0, ⊣ 8\n", 0},
	} {
		args := slices.Clone(tc.args)
		for range tc.inputs {
			args = append(args, fixture)
		}
		legs := [][]string{args}
		if tc.resume {
			ckpt := filepath.Join(t.TempDir(), "st.ckp")
			legs = append(legs,
				append([]string{"-checkpoint", ckpt, "-checkpoint-every", "30"}, args...),
				append([]string{"-restore", ckpt}, args...))
		}
		for _, leg := range legs {
			if code, out, errOut := runTool(t, leg...); code != tc.code || out != tc.want {
				t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit %d, %q", leg, code, out, errOut, tc.code, tc.want)
			}
		}
		twin := slices.DeleteFunc(slices.Clone(args), func(a string) bool { return a == "-stream" || a == "-explain" })
		if !slices.Contains(args, "-stream") {
			twin = append([]string{"-stream"}, twin...)
		}
		line, _, _ := strings.Cut(tc.want, "\n")
		if code, out, errOut := runTool(t, twin...); code != tc.code || out != line+"\n" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit %d, %q, as %v prints", twin, code, out, errOut, tc.code, line+"\n", args)
		}
	}
}

// TestStreamOneFileTwoInputs: one file passed for both inputs of a
// binary check feeds both in the stream replay too, so -stream cuts the
// windows batch cuts and, the two inputs being one series, reaches the
// same verdicts.
func TestStreamOneFileTwoInputs(t *testing.T) {
	for window, want := range map[string]string{
		"count:4": "corr: 10 windows — ⊤ 10, ⊥ 0, ⊣ 0\n",
		"point":   "corr: 40 windows — ⊤ 0, ⊥ 40, ⊣ 0\n",
		"global":  "corr: 1 windows — ⊤ 1, ⊥ 0, ⊣ 0\n",
	} {
		args := []string{"-check", "corr;threshold=0.2;window=" + window + ";route=inputs:a,b", fixture, fixture}
		_, batch, _ := runTool(t, args...)
		_, streamed, errOut := runTool(t, append([]string{"-stream"}, args...)...)
		if batch != want || streamed != want {
			t.Errorf("%s: batch %q, stream %q (stderr %q); want %q from both", window, batch, streamed, errOut, want)
		}
	}
}
