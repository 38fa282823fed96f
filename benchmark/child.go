package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"sound/internal/ingest"
)

// This file owns the system under test as a process: building the real
// cmd/soundserve binary, starting it, finding its listeners, reading its
// counters and its /proc accounting, and making sure it is gone again on
// every exit path.

// outDir holds everything the benchmark writes (binary, traces, records),
// relative to the benchmark directory the command runs in.
const outDir = "out"

// buildServer compiles cmd/soundserve of the enclosing checkout into
// out/. The go build cache makes every build after the first a no-op
// check; none of it is inside setup_s.
func buildServer() (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(outDir, "soundserve"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/soundserve")
	cmd.Dir = ".." // the module root: this package lives in <root>/benchmark
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/soundserve: %v\n%s", err, msg)
	}
	return bin, nil
}

// child is one running soundserve. The tests stand an in-process
// ingest.Server in for it: cmd is nil and pid is the test's own.
type child struct {
	cmd      *exec.Cmd
	pid      int
	tcpAddr  string
	httpBase string // "http://host:port"
	waitErr  chan error
	stderr   *tailBuffer
	stats    *http.Client // keep-alive connection for /stats and /checks
	stopOnce sync.Once
}

// live tracks running children so a signal or a failed run can reap
// them; nothing may be left behind.
var live struct {
	sync.Mutex
	set map[*child]struct{}
}

func killAllChildren() {
	live.Lock()
	cs := make([]*child, 0, len(live.set))
	for c := range live.set {
		cs = append(cs, c)
	}
	live.Unlock()
	for _, c := range cs {
		c.stop()
	}
}

// tailBuffer keeps the last few stderr lines for error messages.
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuffer) add(line string) {
	t.mu.Lock()
	if len(t.lines) == 20 {
		t.lines = t.lines[1:]
	}
	t.lines = append(t.lines, line)
	t.mu.Unlock()
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}

// startChild execs soundserve and returns once both listeners have
// announced their addresses on stderr.
func startChild(bin string, args []string) (*child, error) {
	cmd := exec.Command(bin, args...)
	// If this process dies without running its deferred stops (SIGKILL),
	// the kernel takes the child down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdout = io.Discard
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{
		cmd:     cmd,
		pid:     cmd.Process.Pid,
		waitErr: make(chan error, 1),
		stderr:  &tailBuffer{},
		stats:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 10 * time.Second},
	}
	live.Lock()
	if live.set == nil {
		live.set = map[*child]struct{}{}
	}
	live.set[c] = struct{}{}
	live.Unlock()

	type addrs struct{ tcp, http string }
	found := make(chan addrs, 1)
	go func() {
		var a addrs
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			c.stderr.add(line)
			if v, ok := strings.CutPrefix(line, "soundserve: frame ingest on "); ok {
				a.tcp = v
			} else if v, ok := strings.CutPrefix(line, "soundserve: http on "); ok {
				a.http = v
			} else {
				continue
			}
			if a.tcp != "" && a.http != "" {
				select {
				case found <- a:
				default:
				}
			}
		}
		// Wait only after the pipe is drained (os/exec contract).
		c.waitErr <- cmd.Wait()
	}()
	select {
	case a := <-found:
		c.tcpAddr, c.httpBase = a.tcp, "http://"+a.http
		return c, nil
	case err := <-c.waitErr:
		c.waitErr <- err
		c.stop()
		return nil, fmt.Errorf("soundserve exited before listening: %v\n%s", err, c.stderr)
	case <-time.After(20 * time.Second):
		c.stop()
		return nil, fmt.Errorf("soundserve did not announce its listeners\n%s", c.stderr)
	}
}

// stop kills the child and waits until it has ended. Idempotent.
func (c *child) stop() {
	c.stopOnce.Do(func() {
		if c.cmd != nil {
			_ = c.cmd.Process.Kill() // already-exited is fine
			<-c.waitErr
		}
		c.stats.CloseIdleConnections()
		live.Lock()
		delete(live.set, c)
		live.Unlock()
	})
}

func (c *child) getJSON(path string, v any) error {
	resp, err := c.stats.Get(c.httpBase + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (c *child) getStats() (ingest.Stats, error) {
	var st ingest.Stats
	err := c.getJSON("/stats", &st)
	return st, err
}

// checkNames returns the registered checks (GET /checks).
func (c *child) checkNames() ([]string, error) {
	var body struct {
		Checks []string `json:"checks"`
	}
	err := c.getJSON("/checks", &body)
	return body.Checks, err
}

// cpuSeconds is the child's user+system CPU time so far, from
// /proc/<pid>/stat (clock ticks; USER_HZ is 100 on Linux).
func (c *child) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may hold spaces; fields are
	// counted from the closing parenthesis: state is field 3, utime 14.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat times")
	}
	const userHZ = 100
	return (utime + stime) / userHZ, nil
}

// rssPeakMiB is the child's peak resident set (VmHWM) in MiB.
func (c *child) rssPeakMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM %q", v)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}
