package main

import (
	"net"
	"net/http"
	"os"
	"testing"
	"time"

	"sound/internal/core"
	"sound/internal/ingest"
)

// testWorkload is a small borderline mix: uncertain values on the bound,
// a time bucket and a count bucket, so the replay, the micro-frame rule
// and the matcher all have work, in well under a second.
func testWorkload() *workload {
	return &workload{
		name:       "test",
		transport:  tcpFrames,
		newSource:  mcBorderlineSource,
		maxSamples: 200,
		checks: []string{
			"range;min=0;max=103;window=time:120;name=range",
			"fraction;min=0;max=100;threshold=0.5;window=time:120;name=fraction50",
			"monotonic;window=count:32;name=monotonic",
			"maxdelta;threshold=9.5;window=count:32;name=maxdelta",
		},
		satRate:   40_000,
		pacedRate: 20_000,
	}
}

// inProcess stands an in-process ingest.Server, on real loopback
// listeners, in for the soundserve child.
func inProcess(t *testing.T, in *input) *session {
	t.Helper()
	cfgs, err := in.wl.checkConfigs()
	if err != nil {
		t.Fatal(err)
	}
	cfg := ingest.Config{Shards: serverShards, BatchSize: serverBatch, Checks: cfgs, DefaultParams: in.wl.params(), DefaultSeed: checkSeed}
	srv, err := ingest.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tcpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeTCP(tcpLn)
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hsrv := &http.Server{Handler: srv.Handler()}
	go hsrv.Serve(httpLn)
	c := &child{
		pid:      os.Getpid(),
		tcpAddr:  tcpLn.Addr().String(),
		httpBase: "http://" + httpLn.Addr().String(),
		stderr:   &tailBuffer{},
		stats:    &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 10 * time.Second},
	}
	snd, err := newSender(in.wl.transport, c)
	if err != nil {
		t.Fatal(err)
	}
	s := &session{in: in, c: c, snd: snd}
	t.Cleanup(func() {
		s.close()
		hsrv.Close()
		srv.Close()
	})
	return s
}

func (s *session) warmUp(t *testing.T) {
	t.Helper()
	for u := 0; u < s.in.warm.units; u++ {
		if err := s.sendUnit(s.in.warm.firstUnit+u, s.in.warm.unitPts); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReferenceMatchesServer runs the real saturation and paced phases
// against an in-process server: every count and every feed line has to
// match the replay, including the verdicts held back in each shard's
// trailing partial transport frame.
func TestReferenceMatchesServer(t *testing.T) {
	in, err := prepare(testWorkload(), 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	s := inProcess(t, in)
	s.warmUp(t)
	sat, err := s.saturate()
	if err != nil {
		t.Fatal(err)
	}
	if sat.failed != 0 {
		t.Errorf("saturation phase: /stats is %d verdicts off the reference", sat.failed)
	}
	paced, err := s.pace()
	if err != nil {
		t.Fatal(err)
	}
	m := paced.match
	if m.failed() != 0 || paced.failed != 0 || !paced.drained {
		t.Errorf("paced phase: missing %d extra %d different %d, final diff %d, drained %v", m.missing, m.extra, m.different, paced.failed, paced.drained)
	}
	if m.expected < 1000 || len(m.matched) < m.expected-serverShards*serverBatch*len(in.ref.checks) {
		t.Errorf("paced phase matched %d of %d verdicts with a latency", len(m.matched), m.expected)
	}
	for _, mv := range m.matched {
		if mv.recv < mv.due {
			t.Fatalf("verdict received at %d ns, before its trigger was due at %d ns", mv.recv, mv.due)
		}
	}
	whole := in.ref.tally(cutStart, cutEnd)
	if whole.inconclusive == 0 || whole.wrong == 0 || whole.verdicts == whole.inconclusive+whole.wrong {
		t.Errorf("test input is not borderline: %d verdicts, %d inconclusive, %d wrong", whole.verdicts, whole.inconclusive, whole.wrong)
	}
	// The micro-frame rule is what makes the counts exact: without it the
	// replay is ahead of the server by the trailing partial frames.
	ahead := 0
	for _, sh := range in.ref.shards {
		for _, v := range sh.verdicts {
			if v.seq >= sh.handed(cutEnd) {
				ahead++
			}
		}
	}
	if ahead == 0 {
		t.Error("no reference verdict falls in a trailing partial frame; the input does not exercise the rule")
	}
}

// TestDroppedFrameFails: a frame that never reaches the server must show
// up as failed — in the feed match and in the final counter diff.
func TestDroppedFrameFails(t *testing.T) {
	in, err := prepare(testWorkload(), 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	s := inProcess(t, in)
	s.warmUp(t)
	for u := 0; u < in.sat.units; u++ {
		if err := s.sendUnit(in.sat.firstUnit+u, in.sat.unitPts); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, err := s.waitConsumed(10 * time.Second); err != nil || !ok {
		t.Fatalf("saturation phase not consumed: %v", err)
	}
	feed, err := subscribe(s.c, in, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	defer feed.stop()
	dropped := in.paced.units / 2
	for u := 0; u < in.paced.units; u++ {
		if u == dropped {
			continue
		}
		if err := s.sendUnit(in.paced.firstUnit+u, in.paced.unitPts); err != nil {
			t.Fatal(err)
		}
	}
	final, ok, err := s.waitConsumed(10 * time.Second)
	if err != nil || !ok {
		t.Fatalf("paced phase not consumed: %v", err)
	}
	time.Sleep(100 * time.Millisecond) // let the feed drain
	feed.stop()
	m := in.ref.match(cutSat, cutEnd, feed.obs, func(int32) int64 { return 0 })
	if m.failed() == 0 {
		t.Error("feed match reports no failure although a frame was dropped")
	}
	if in.ref.diffStats(final, in.ref.tally(cutStart, cutEnd), in.ref.lifecycle()) == 0 {
		t.Error("counter diff reports no failure although a frame was dropped")
	}
	if lost := int64(in.points()) - final.Consumed; lost != int64(in.paced.unitPts) {
		t.Errorf("server consumed %d of %d points; the dropped frame held %d", final.Consumed, in.points(), in.paced.unitPts)
	}
}

// TestFlippedOutcomeFails: one feed line with the wrong outcome is one
// different verdict; one line too many is one extra.
func TestFlippedOutcomeFails(t *testing.T) {
	in, err := prepare(testWorkload(), 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	var obs []observed
	for _, sh := range in.ref.shards {
		for _, v := range sh.verdicts {
			if v.seq >= sh.handed(cutSat) && v.seq < sh.handed(cutEnd) {
				obs = append(obs, observed{check: v.check, key: v.key, outcome: v.outcome, recv: 1})
			}
		}
	}
	due := func(int32) int64 { return 0 }
	if m := in.ref.match(cutSat, cutEnd, obs, due); m.failed() != 0 || m.paired != len(obs) {
		t.Fatalf("the reference does not match itself: %+v", m)
	}
	flipped := append([]observed(nil), obs...)
	i := len(flipped) / 2
	if flipped[i].outcome == core.Satisfied {
		flipped[i].outcome = core.Violated
	} else {
		flipped[i].outcome = core.Satisfied
	}
	if m := in.ref.match(cutSat, cutEnd, flipped, due); m.different != 1 || m.failed() != 1 {
		t.Errorf("one flipped outcome: different %d, failed %d; want 1 and 1", m.different, m.failed())
	}
	if m := in.ref.match(cutSat, cutEnd, append(obs, obs[0]), due); m.extra != 1 || m.failed() != 1 {
		t.Errorf("one repeated line: extra %d, failed %d; want 1 and 1", m.extra, m.failed())
	}
	if m := in.ref.match(cutSat, cutEnd, obs[1:], due); m.missing != 1 {
		t.Errorf("one missing line: missing %d, want 1", m.missing)
	}
}

func TestFeedLine(t *testing.T) {
	checks := map[string]uint8{"range": 0, `a"b`: 1}
	keys := map[string]int32{"b007": 7}
	o, kind := feedLine([]byte(`{"check":"range","key":"b007","outcome":"⊤"}`+"\n"), checks, keys)
	if kind != lineVerdict || o.check != 0 || o.key != 7 || o.outcome != core.Satisfied {
		t.Errorf("plain line: %+v, kind %d", o, kind)
	}
	if o, kind := feedLine([]byte(`{"check":"a\"b","key":"b007","outcome":"⊥"}`), checks, keys); kind != lineVerdict || o.check != 1 || o.outcome != core.Violated {
		t.Errorf("escaped check name: %+v, kind %d", o, kind)
	}
	if _, kind := feedLine([]byte(`{"check":"churn","key":"b007","outcome":"⊣"}`), checks, keys); kind != lineChurn {
		t.Errorf("churn member's line: kind %d", kind)
	}
	for _, line := range []string{`not json`, `{"check":"range","key":"nobody","outcome":"⊤"}`, `{"check":"range","key":"b007","outcome":"?"}`} {
		if _, kind := feedLine([]byte(line), checks, keys); kind != lineUnknown {
			t.Errorf("%s: kind %d, want unknown", line, kind)
		}
	}
}
