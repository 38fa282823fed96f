package main

import (
	"bytes"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"sound/internal/stream"
)

func runTool(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestSelftest runs the full wire-path parity selftest — TCP frames and
// HTTP NDJSON against the single-process evaluation — on the repo's
// pinned fixture.
func TestSelftest(t *testing.T) {
	code, out, errOut := runTool(t, "-selftest", "-fixture", "../../testdata/gapped_borderline.csv")
	if code != 0 {
		t.Fatalf("selftest exit = %d\nstdout: %s\nstderr: %s", code, out, errOut)
	}
	if !strings.Contains(out, "selftest ok") {
		t.Errorf("selftest output = %q", out)
	}
	// The fixture goldens are pinned elsewhere (pin_test.go); spot-check
	// one so a silently-empty replay cannot pass.
	if !strings.Contains(out, "sliding") {
		t.Errorf("selftest output missing the sliding check: %q", out)
	}
}

// TestSelftestKeysCoverShards: the selftest is only a fan-in test if its
// keys reach every shard of the default layout.
func TestSelftestKeysCoverShards(t *testing.T) {
	const shards = 4 // the -shards default
	hit := map[int]bool{}
	for _, k := range selftestKeys {
		hit[stream.PartitionOf(k, shards)] = true
	}
	if len(selftestKeys) < 8 || len(hit) != shards {
		t.Errorf("%d selftest keys reach %d of %d shards", len(selftestKeys), len(hit), shards)
	}
}

// TestSelftestCustomChecks exercises the -check grammar path through
// the selftest.
func TestSelftestCustomChecks(t *testing.T) {
	code, out, errOut := runTool(t, "-selftest", "-fixture", "../../testdata/gapped_borderline.csv",
		"-check", "range;min=0;max=13;window=time:10", "-shards", "2", "-batch", "16")
	if code != 0 {
		t.Fatalf("exit = %d\nstdout: %s\nstderr: %s", code, out, errOut)
	}
	if !strings.Contains(out, "range") {
		t.Errorf("output = %q", out)
	}
}

// syncBuffer is a bytes.Buffer safe for the concurrent writer (run's
// stderr) and reader (the test polling for the listen address).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDrainRequestStopsServer pins that a client's POST /drain shuts
// the whole process down — not just the ingest path — even with no TCP
// listener whose closure would otherwise wake the main loop.
func TestDrainRequestStopsServer(t *testing.T) {
	var out bytes.Buffer
	var errb syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-http", "127.0.0.1:0", "-check", "range;min=0;max=100;window=time:60"}, &out, &errb)
	}()

	addrRe := regexp.MustCompile(`http on (127\.0\.0\.1:\d+)`)
	var addr string
	for deadline := time.Now().Add(5 * time.Second); addr == ""; {
		if m := addrRe.FindStringSubmatch(errb.String()); m != nil {
			addr = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("server never announced its address: %q", errb.String())
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}

	resp, err := http.Post("http://"+addr+"/ingest", "application/x-ndjson",
		strings.NewReader(`{"key":"k","t":0,"v":5}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Post("http://"+addr+"/drain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	select {
	case code := <-done:
		if code != 0 {
			t.Errorf("exit = %d\nstderr: %s", code, errb.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after POST /drain")
	}
	if !strings.Contains(errb.String(), "drained by request") {
		t.Errorf("stderr = %q", errb.String())
	}
	// The final stats snapshot still prints on this path.
	if !strings.Contains(out.String(), `"consumed": 1`) {
		t.Errorf("final stats = %q", out.String())
	}
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{},                                      // no checks
		{"-check", "range"},                     // no listeners
		{"-http", ":0", "-check", "frobnicate"}, // unknown constraint
		{"-http", ":0", "-check", "range", "-check", "range"}, // duplicate name
		{"-selftest"}, // missing fixture
		{"-selftest", "-fixture", "/nonexistent.csv"},
		{"stray-arg"},
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
