package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"sound/internal/core"
	"sound/internal/ingest"
)

// This file drives one soundserve child over real loopback sockets: the
// timed set-up, the closed-loop saturation phase and the open-loop paced
// phase. The generator side is one ingest connection, one /outcomes
// reader and one /stats poller — never more busy threads than the
// reference box has cores.

// sender is the one ingest connection.
type sender interface {
	// send ships one unit and, for HTTP, waits for the reply. rejected
	// reports a reply that was not 2xx.
	send(unit []byte) (rejected bool, err error)
	close()
}

type tcpSender struct{ conn net.Conn }

func (s *tcpSender) send(unit []byte) (bool, error) {
	_, err := s.conn.Write(unit)
	return false, err
}
func (s *tcpSender) close() { s.conn.Close() }

type httpSender struct {
	client *http.Client
	url    string
}

func (s *httpSender) send(unit []byte) (bool, error) {
	resp, err := s.client.Post(s.url, "application/x-ndjson", bytes.NewReader(unit))
	if err != nil {
		return false, err
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	resp.Body.Close()
	return resp.StatusCode/100 != 2, nil
}
func (s *httpSender) close() { s.client.CloseIdleConnections() }

func newSender(tr transport, c *child) (sender, error) {
	if tr == tcpFrames {
		conn, err := net.Dial("tcp", c.tcpAddr)
		if err != nil {
			return nil, err
		}
		return &tcpSender{conn: conn}, nil
	}
	return &httpSender{
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		url:    c.httpBase + "/ingest",
	}, nil
}

// session is one child with its ingest connection and send accounting.
type session struct {
	in       *input
	c        *child
	snd      sender
	probe    *hostProbe // nil in the tests: every host index is then 1
	sent     int64      // points written so far
	rejected int64      // points in units the server refused
}

func (s *session) close() {
	if s.snd != nil {
		s.snd.close()
	}
	if s.c != nil {
		s.c.stop()
	}
	if s.probe != nil {
		s.probe.close()
	}
}

func (s *session) sendUnit(u, pts int) error {
	rejected, err := s.snd.send(s.in.unit(u))
	if err != nil {
		return fmt.Errorf("ingest connection: %w\n%s", err, s.c.stderr)
	}
	s.sent += int64(pts)
	if rejected {
		s.rejected += int64(pts)
	}
	return nil
}

// waitConsumed polls /stats every millisecond until the server has
// consumed every accepted point, and returns that snapshot. Consumed
// counts an event only after its verdicts fired, so the snapshot's
// counters are final for everything sent.
func (s *session) waitConsumed(timeout time.Duration) (ingest.Stats, bool, error) {
	deadline := time.Now().Add(timeout)
	want := s.sent - s.rejected
	for {
		st, err := s.c.getStats()
		if err != nil {
			return st, false, fmt.Errorf("GET /stats: %w\n%s", err, s.c.stderr)
		}
		if st.Consumed >= want {
			return st, true, nil
		}
		if time.Now().After(deadline) {
			return st, false, nil
		}
		time.Sleep(time.Millisecond)
	}
}

// setup is the timed start of a child: exec, both listeners up, the
// workload's checks registered, and the warm-up slice fully consumed. It
// returns the seconds that took and the host index over them.
func setup(bin string, in *input) (*session, float64, float64, error) {
	s := &session{in: in}
	fail := func(err error) (*session, float64, float64, error) {
		s.close()
		return nil, 0, 0, err
	}
	var err error
	if s.probe, err = startProbe(); err != nil {
		return fail(fmt.Errorf("host probe: %w", err))
	}
	m0, t0 := s.probe.mark(), time.Now()
	if s.c, err = startChild(bin, in.wl.serverArgs()); err != nil {
		return fail(err)
	}
	names, err := s.c.checkNames()
	if err != nil {
		return fail(err)
	}
	if strings.Join(names, ",") != strings.Join(in.ref.checks, ",") {
		return fail(fmt.Errorf("soundserve registered checks %v, want %v", names, in.ref.checks))
	}
	if s.snd, err = newSender(in.wl.transport, s.c); err != nil {
		return fail(err)
	}
	for u := 0; u < in.warm.units; u++ {
		if err := s.sendUnit(in.warm.firstUnit+u, in.warm.unitPts); err != nil {
			return fail(err)
		}
	}
	if _, ok, err := s.waitConsumed(30 * time.Second); err != nil {
		return fail(err)
	} else if !ok {
		return fail(fmt.Errorf("warm-up slice was not consumed within 30 s\n%s", s.c.stderr))
	}
	return s, time.Since(t0).Seconds(), s.probe.index(m0, s.probe.mark()), nil
}

// satResult is the saturation phase.
type satResult struct {
	wallS  float64
	cpuS   float64 // child CPU seconds over the phase
	host   float64 // host index over the phase
	failed int     // /stats verdict counts off the reference
}

// saturate writes the sat phase back to back and times first write to
// everything consumed. TCP flow control and the bounded shard lanes are
// the backpressure; for HTTP each POST waits for the previous reply.
// Nobody subscribes to /outcomes here: the phase measures what the node
// can absorb, and a subscriber at this verdict rate would measure the
// feed instead.
func (s *session) saturate() (satResult, error) {
	var res satResult
	ph := s.in.sat
	cpu0, err := s.c.cpuSeconds()
	if err != nil {
		return res, err
	}
	m0, begin := s.probe.mark(), time.Now()
	for u := 0; u < ph.units; u++ {
		if err := s.sendUnit(ph.firstUnit+u, ph.unitPts); err != nil {
			return res, err
		}
	}
	st, ok, err := s.waitConsumed(120 * time.Second)
	if err != nil {
		return res, err
	}
	if !ok {
		return res, fmt.Errorf("saturation phase was not consumed within 120 s (consumed %d of %d)", st.Consumed, s.sent)
	}
	res.wallS, res.host = time.Since(begin).Seconds(), s.probe.index(m0, s.probe.mark())
	cpu1, err := s.c.cpuSeconds()
	if err != nil {
		return res, err
	}
	res.cpuS = cpu1 - cpu0
	res.failed = s.in.ref.diffStats(st, s.in.ref.tally(cutStart, cutSat), nil)
	return res, nil
}

// outcomeReader consumes the /outcomes feed on its own goroutine,
// stamping each line on receipt.
type outcomeReader struct {
	cancel   context.CancelFunc
	done     chan struct{}
	mu       sync.Mutex
	obs      []observed
	churn    int // lines of the churn member: counted, never matched
	unparsed int // lines that name no known check, key or outcome
	err      error
}

var outcomeGlyph = map[string]core.Outcome{
	core.Satisfied.String():    core.Satisfied,
	core.Violated.String():     core.Violated,
	core.Inconclusive.String(): core.Inconclusive,
}

// lineKind says what one /outcomes line turned out to be.
type lineKind int

const (
	lineVerdict lineKind = iota // a stable member's verdict for a known key
	lineChurn                   // the churn member's: counted, never matched
	lineUnknown                 // names no known check, key or outcome
)

// feedLine decodes one /outcomes line against the run's checks and keys.
func feedLine(line []byte, checkIndex map[string]uint8, keyIndex map[string]int32) (observed, lineKind) {
	var msg ingest.OutcomeMsg
	if json.Unmarshal(line, &msg) != nil {
		return observed{}, lineUnknown
	}
	if msg.Check == churnName {
		return observed{}, lineChurn
	}
	ci, okc := checkIndex[msg.Check]
	ki, okk := keyIndex[msg.Key]
	o, oko := outcomeGlyph[msg.Outcome]
	if !okc || !okk || !oko {
		return observed{}, lineUnknown
	}
	return observed{check: ci, key: ki, outcome: o}, lineVerdict
}

// subscribe opens the feed and returns once the server has registered
// the subscriber (it does so before it flushes the response headers).
func subscribe(c *child, in *input, origin time.Time) (*outcomeReader, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.httpBase+"/outcomes", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	client := &http.Client{Transport: &http.Transport{}}
	resp, err := client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET /outcomes: status %d", resp.StatusCode)
	}
	checkIndex := make(map[string]uint8, len(in.ref.checks))
	for i, name := range in.ref.checks {
		checkIndex[name] = uint8(i)
	}
	r := &outcomeReader{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(r.done)
		defer client.CloseIdleConnections()
		defer resp.Body.Close()
		br := bufio.NewReaderSize(resp.Body, 1<<16)
		var batch []observed
		churn, unparsed := 0, 0
		for {
			line, err := br.ReadSlice('\n')
			if len(line) > 1 {
				recv := int64(time.Since(origin))
				switch o, kind := feedLine(line, checkIndex, in.keyIndex); kind {
				case lineVerdict:
					o.recv = recv
					batch = append(batch, o)
				case lineChurn:
					churn++
				default:
					unparsed++
				}
			}
			// Hand over whenever the socket runs dry, so count() is current
			// without taking the lock per line.
			if err != nil || br.Buffered() == 0 {
				r.mu.Lock()
				r.obs = append(r.obs, batch...)
				r.churn, r.unparsed = r.churn+churn, r.unparsed+unparsed
				if err != nil && err != io.EOF && ctx.Err() == nil {
					r.err = err
				}
				r.mu.Unlock()
				batch, churn, unparsed = batch[:0], 0, 0
			}
			if err != nil {
				return
			}
		}
	}()
	return r, nil
}

func (r *outcomeReader) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.obs) + r.unparsed
}

// stop ends the subscription and waits for the reader to finish.
func (r *outcomeReader) stop() {
	r.cancel()
	<-r.done
}

// pacedResult is the paced phase.
type pacedResult struct {
	match       matchResult
	churnLines  int
	unparsed    int
	boosted     bool // the sender thread ran with raised priority
	slices      []sliceResult
	lagMs       []float64 // how long after its due time each tick's send started
	overruns    int       // ticks already due when the previous send returned
	achieved    float64   // points/s actually sent
	cpuS        float64   // child CPU seconds over the phase
	drained     bool      // consumed reached sent within a second of the last tick
	edgeMax     int64     // deepest edge seen by the 100 ms poll
	churnPairMs []float64 // wall time of each POST+DELETE /checks pair
	failed      int       // final /stats off the reference (counts and lifecycle)
	final       ingest.Stats
}

// pace sends one unit per tick at the workload's fixed rate, whatever
// the server does (open loop), with /outcomes subscribed. Every unit has
// a due time; a verdict's latency runs from the due time of the event
// that closed its window, so a stall in the generator or the server is
// charged to every verdict it delays.
func (s *session) pace() (pacedResult, error) {
	var res pacedResult
	ph, tick := s.in.paced, time.Duration(s.in.wl.tickNs())
	// The clock origin is set a little ahead so the first tick is not
	// born late.
	origin := time.Now().Add(20 * time.Millisecond)
	feed, err := subscribe(s.c, s.in, origin)
	if err != nil {
		return res, fmt.Errorf("%w\n%s", err, s.c.stderr)
	}
	defer feed.stop()

	// Two things run beside the sender: the operator's 100 ms /stats poll
	// and, on a churn workload, a control-plane write pair every second.
	stopBg := make(chan struct{})
	var bg sync.WaitGroup
	var bgMu sync.Mutex
	var bgErr error
	every := func(period time.Duration, do func() error) {
		bg.Add(1)
		go func() {
			defer bg.Done()
			t := time.NewTicker(period)
			defer t.Stop()
			for {
				select {
				case <-stopBg:
					return
				case <-t.C:
					err := do()
					bgMu.Lock()
					if err != nil && bgErr == nil {
						bgErr = err
					}
					bgMu.Unlock()
				}
			}
		}()
	}
	every(100*time.Millisecond, func() error {
		st, err := s.c.getStats()
		for _, d := range st.Edges {
			res.edgeMax = max(res.edgeMax, d.Max)
		}
		return err
	})
	if s.in.wl.churn != "" {
		client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 5 * time.Second}
		defer client.CloseIdleConnections()
		every(time.Second, func() error {
			ms, err := churnOnce(client, s.c.httpBase, s.in.wl.churn)
			res.churnPairMs = append(res.churnPairMs, ms)
			return err
		})
	}
	var stopOnce sync.Once
	stopBackground := func() { stopOnce.Do(func() { close(stopBg); bg.Wait() }) }
	defer stopBackground()

	cpu0, err := s.c.cpuSeconds()
	if err != nil {
		return res, err
	}
	res.lagMs = make([]float64, 0, ph.units)
	res.boosted = boostThread()
	defer unboostThread()
	sliceTicks := ph.units / s.in.slices
	marks := make([]probeMark, 0, s.in.slices+1)
	for u := 0; u < ph.units; u++ {
		if u%sliceTicks == 0 {
			marks = append(marks, s.probe.mark())
		}
		due := origin.Add(time.Duration(u) * tick)
		if d := time.Until(due); d > 0 {
			sleepPrecisely(d)
		} else {
			res.overruns++
		}
		// Lag is how long after its due time the send starts, whatever held
		// it up: a late wake-up, or the previous send still blocked. Verdict
		// latency is timed from due, so either way the delay is in it too.
		res.lagMs = append(res.lagMs, max(0, time.Since(due).Seconds()*1e3))
		if err := s.sendUnit(ph.firstUnit+u, ph.unitPts); err != nil {
			return res, err
		}
	}
	marks = append(marks, s.probe.mark())
	// Points over the longer of the scheduled span and the span they took.
	res.achieved = float64(ph.points) / max(time.Since(origin), time.Duration(ph.units)*tick).Seconds()

	final, drained, err := s.waitConsumed(time.Second)
	if err != nil {
		return res, err
	}
	res.drained = drained
	cpu1, err := s.c.cpuSeconds()
	stopBackground()
	if err != nil {
		return res, err
	}
	if bgErr != nil {
		return res, fmt.Errorf("background request: %w", bgErr)
	}
	res.cpuS = cpu1 - cpu0

	// Verdicts already published are in the feed's pipe; give the reader
	// a moment to drain it, then cut the subscription.
	want := s.in.ref.tally(cutSat, cutEnd).verdicts
	for deadline := time.Now().Add(time.Second); feed.count() < want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	feed.stop()
	if feed.err != nil {
		return res, fmt.Errorf("/outcomes feed: %w", feed.err)
	}
	res.churnLines, res.unparsed = feed.churn, feed.unparsed
	res.match = s.in.ref.match(cutSat, cutEnd, feed.obs, func(trigger int32) int64 {
		if int(trigger) < ph.firstPoint {
			return -1 // sent in the saturation phase, fired when its frame filled
		}
		return int64((int(trigger)-ph.firstPoint)/ph.unitPts) * int64(tick)
	})
	if !drained {
		// The backlog was still growing a second after the last tick: let
		// the server finish so the final counters can be diffed, but the
		// run is already marked as not keeping up.
		if final, _, err = s.waitConsumed(60 * time.Second); err != nil {
			return res, err
		}
	}
	res.final = final
	res.failed = s.in.ref.diffStats(final, s.in.ref.tally(cutStart, cutEnd), s.in.ref.lifecycle())
	if res.slices, err = sliceResults(res.match.matched, res.lagMs, s.in.slices, int64(ph.units)*int64(tick)); err != nil {
		return res, fmt.Errorf("verdict latency: %w (raise --seconds)", err)
	}
	for i := range res.slices {
		res.slices[i].host = s.probe.index(marks[i], marks[i+1])
	}
	return res, nil
}

// boostThread pins the calling goroutine to its thread and makes that
// thread real-time (SCHED_FIFO, lowest priority), so that a tick's send
// starts when its timer fires and not when one of the server's threads,
// busy on both of the box's cores, next gives one up: at normal priority
// the generator's lag p99 sits at the 2 ms guard once the shards are a
// third busy. The thread sleeps through nearly all of every tick; what it
// takes from the server is what the sends cost anyway. Without the
// privilege (CAP_SYS_NICE) the run goes on at normal priority, the record
// says so, and the lag guard judges the outcome.
func boostThread() bool {
	runtime.LockOSThread()
	return setScheduler(schedFIFO, 1) == nil
}

// unboostThread undoes boostThread; a child started later from this
// thread would inherit its scheduling class.
func unboostThread() {
	_ = setScheduler(schedOther, 0) // fails only where boostThread did
	runtime.UnlockOSThread()
}

// Linux scheduling policies (sched.h).
const (
	schedOther = 0
	schedFIFO  = 1
)

// setScheduler is sched_setscheduler(2) for the calling thread.
func setScheduler(policy, priority int) error {
	param := struct{ priority int32 }{int32(priority)}
	if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, uintptr(policy), uintptr(unsafe.Pointer(&param))); errno != 0 {
		return errno
	}
	return nil
}

// sleepPrecisely blocks for d on the kernel's high-resolution timer. The
// Go runtime parks an idle program in epoll_wait, whose timeout counts
// whole milliseconds, so time.Sleep wakes up to a millisecond late — a
// whole tick of the paced phase.
func sleepPrecisely(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		// EINTR leaves the unslept remainder in ts; anything else is not
		// worth more than falling through to the late-tick accounting.
		if err := syscall.Nanosleep(&ts, &ts); err != syscall.EINTR {
			return
		}
	}
}

// churnOnce registers and removes the churn member, returning the wall
// time of the pair in milliseconds.
func churnOnce(client *http.Client, base, spec string) (float64, error) {
	t0 := time.Now()
	resp, err := client.Post(base+"/checks", "text/plain", strings.NewReader(spec))
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("POST /checks: status %d", resp.StatusCode)
	}
	req, err := http.NewRequest(http.MethodDelete, base+"/checks/"+churnName, nil)
	if err != nil {
		return 0, err
	}
	if resp, err = client.Do(req); err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("DELETE /checks/%s: status %d", churnName, resp.StatusCode)
	}
	return time.Since(t0).Seconds() * 1e3, nil
}

// sliceResult is one of the equal slices of a paced phase, by the due
// time of the trigger event: its own latency percentiles, and how well
// the load generator kept its schedule in it.
type sliceResult struct {
	p50, p99 float64 // ms
	verdicts int
	late     float64 // share of the slice's ticks whose send started more than maxLagMs late
	host     float64 // host index over the slice
}

// valid reports whether the generator kept its schedule in the slice: no
// more than maxLateShare of its ticks went out more than maxLagMs late. A
// slice that fails this measured the generator, or a freeze of the whole
// box, as much as the server.
func (sl sliceResult) valid() bool { return sl.late <= maxLateShare }

// sliceResults cuts a paced phase into n equal slices. Every slice has to
// carry its p99 by the sample rule.
func sliceResults(ms []matched, lagMs []float64, n int, phaseNs int64) ([]sliceResult, error) {
	lat := make([][]float64, n)
	for _, m := range ms {
		i := min(max(int(m.due*int64(n)/phaseNs), 0), n-1)
		lat[i] = append(lat[i], float64(m.recv-m.due)/1e6)
	}
	res := make([]sliceResult, n)
	ticks := len(lagMs) / n
	for i, l := range lat {
		sort.Float64s(l)
		sl := sliceResult{verdicts: len(l)}
		var err error
		if sl.p50, err = percentile(l, 50); err == nil {
			sl.p99, err = percentile(l, 99)
		}
		if err != nil {
			return nil, fmt.Errorf("slice %d of %d: %w", i+1, n, err)
		}
		late := 0
		for _, lag := range lagMs[i*ticks : (i+1)*ticks] {
			if lag > maxLagMs {
				late++
			}
		}
		sl.late = float64(late) / float64(ticks)
		res[i] = sl
	}
	return res, nil
}
