package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sound/internal/checker"
	"sound/internal/core"
	"sound/internal/series"
	"sound/internal/stream"
	"sound/internal/wire"
)

// recordProc records which worker index saw each key.
type recordProc struct {
	w   int
	rec *sync.Map
}

func (p *recordProc) SetWorkerIndex(w int)                       { p.w = w }
func (p *recordProc) Process(ev stream.Event, _ stream.EmitFunc) { p.rec.Store(ev.Key, p.w) }
func (p *recordProc) Flush(stream.EmitFunc)                      {}

// TestShardAssignmentMatchesPartitioner is the bit-for-bit property
// test of the satellite: for every key, the ingest server's shard
// assignment must equal the worker index the engine's keyed edge
// delivers that key to in a live graph. If these ever diverged, a key's
// events could reach a shard that does not own its window state.
func TestShardAssignmentMatchesPartitioner(t *testing.T) {
	keys := []string{"", "k", "x", "y", "series/with/path", "héllo-wörld", strings.Repeat("long", 100)}
	for i := 0; i < 500; i++ {
		keys = append(keys, fmt.Sprintf("key-%d-%x", i, i*2654435761))
	}
	for _, parts := range []int{1, 2, 4, 7} {
		var rec sync.Map
		g := stream.NewGraph()
		src := g.AddSource("src", func(emit stream.EmitFunc) {
			for _, k := range keys {
				emit(stream.Event{Key: k})
			}
		})
		op := g.AddOperator("rec", parts, func() stream.Processor { return &recordProc{rec: &rec} })
		if err := g.ConnectKeyed(src, op); err != nil {
			t.Fatal(err)
		}
		if err := g.Connect(op, g.AddSink("out", nil)); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Run(); err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(Config{Shards: parts, Checks: pinChecks()})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			worker, ok := rec.Load(k)
			if !ok {
				t.Fatalf("parts=%d: key %q never delivered", parts, k)
			}
			if got := srv.shardOf(k); got != worker.(int) {
				t.Errorf("parts=%d key %q: ingest shard %d, engine worker %d", parts, k, got, worker)
			}
			if got, want := srv.shardOf(k), stream.PartitionOf(k, parts); got != want {
				t.Errorf("parts=%d key %q: shardOf %d != PartitionOf %d", parts, k, got, want)
			}
		}
		if err := srv.Drain(); err != nil {
			t.Fatal(err)
		}
	}
}

// pinChecks is the pinned fixture trio from pin_test.go: identical
// constraint, params, seed, and windows, so server verdict counts can
// be diffed against the single-process pinnedStream goldens.
func pinChecks() []CheckConfig {
	mk := func(name string, win core.Windower) CheckConfig {
		return CheckConfig{
			Name: name,
			Check: core.Check{
				Name: "range", Constraint: core.FractionInRange(0, 13, 0.8),
				SeriesNames: []string{"x"}, Window: win,
			},
			Params: core.DefaultParams(),
			Seed:   13,
		}
	}
	return []CheckConfig{
		mk("sliding", core.TimeWindow{Size: 12, Slide: 5}),
		mk("tumbling", core.TimeWindow{Size: 9}),
		mk("count", core.CountWindow{Size: 8, Slide: 3}),
	}
}

// pinnedCounts are the pinnedStream goldens (pin_test.go): satisfied,
// violated, inconclusive per check.
var pinnedCounts = map[string][3]int{
	"sliding":  {2, 12, 9},
	"tumbling": {1, 5, 7},
	"count":    {1, 10, 0},
}

func fixtureEvents(t *testing.T) []stream.Event {
	t.Helper()
	f, err := os.Open("../../testdata/gapped_borderline.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := series.ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	evs := make([]stream.Event, len(s))
	for i, pt := range s {
		evs[i] = stream.Event{Time: pt.T, Key: "k", Value: pt.V, SigUp: pt.SigUp, SigDown: pt.SigDown}
	}
	return evs
}

func checkPinnedStats(t *testing.T, st Stats, nEvents int64) {
	t.Helper()
	if st.Ingested != nEvents || st.Consumed != nEvents {
		t.Errorf("ingested %d consumed %d, want %d each", st.Ingested, st.Consumed, nEvents)
	}
	if st.Dropped != 0 || st.DecodeErrors != 0 {
		t.Errorf("dropped %d, decode errors %d, want 0", st.Dropped, st.DecodeErrors)
	}
	for _, cs := range st.Checks {
		want, ok := pinnedCounts[cs.Name]
		if !ok {
			t.Errorf("unexpected check %q in stats", cs.Name)
			continue
		}
		if got := [3]int{cs.Satisfied, cs.Violated, cs.Inconclusive}; got != want {
			t.Errorf("check %s: sat/viol/inc %v, want %v (pinnedStream golden)", cs.Name, got, want)
		}
	}
}

// TestPinnedIngestLoopbackTCP replays the pinned fixture over a real
// loopback TCP connection as binary frames and requires the server's
// aggregated verdict counts to equal the single-process pinnedStream
// goldens — the fan-in parity argument of DESIGN.md §4k, end to end.
func TestPinnedIngestLoopbackTCP(t *testing.T) {
	evs := fixtureEvents(t)
	s, err := NewServer(Config{Shards: 4, BatchSize: 8, Checks: pinChecks()})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.ServeTCP(ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	enc := wire.NewFrameEncoder(conn)
	for off := 0; off < len(evs); off += 7 {
		end := min(off+7, len(evs))
		if err := enc.Encode(evs[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	// Drain does not wait for a connection ServeTCP has not accepted yet.
	for deadline := time.Now().Add(5 * time.Second); s.Stats().Ingested < int64(len(evs)) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	checkPinnedStats(t, s.Stats(), int64(len(evs)))
}

// TestPinnedIngestLoopbackHTTP is the same parity pin over the NDJSON
// HTTP path, including the live /stats endpoint and the /drain
// handshake.
func TestPinnedIngestLoopbackHTTP(t *testing.T) {
	evs := fixtureEvents(t)
	s, err := NewServer(Config{Shards: 4, BatchSize: 8, Checks: pinChecks()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var body []byte
	for _, ev := range evs {
		body = wire.AppendNDJSON(body, ev)
	}
	resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ack struct {
		Ingested int `json:"ingested"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ack.Ingested != len(evs) {
		t.Fatalf("ingest: status %d, ingested %d (want 200, %d)", resp.StatusCode, ack.Ingested, len(evs))
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var live Stats
	if err := json.NewDecoder(resp.Body).Decode(&live); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if live.Ingested != int64(len(evs)) {
		t.Fatalf("live stats: ingested %d, want %d", live.Ingested, len(evs))
	}

	resp, err = http.Post(ts.URL+"/drain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var final Stats
	if err := json.NewDecoder(resp.Body).Decode(&final); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !final.Draining {
		t.Error("final stats not marked draining")
	}
	checkPinnedStats(t, final, int64(len(evs)))
}

// postEvents sends n events of key "k" at times from, from+1, … in one
// POST /ingest, straight through the handler.
func postEvents(t *testing.T, s *Server, from, n int, sig float64) {
	t.Helper()
	var body []byte
	for i := from; i < from+n; i++ {
		body = wire.AppendNDJSON(body, stream.Event{Time: float64(i), Key: "k", Value: 1, SigUp: sig, SigDown: sig})
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/ingest", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", rec.Code, rec.Body)
	}
}

// TestShardFramesCarryAcrossLaneFrames pins the framing contract the
// benchmark's reference replay encodes (shardReplay.handed): a shard
// hands its check operator frames of exactly BatchSize, filled across
// lane frames and never cut at a lane-frame boundary, and the remainder
// only at drain. With one verdict per event, the verdicts at each
// quiescent point are the consumed events rounded down to the batch.
func TestShardFramesCarryAcrossLaneFrames(t *testing.T) {
	cc, err := ParseCheck("range;min=-1e9;max=1e9;window=point", core.DefaultParams(), 1, checker.EvictionPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(Config{Shards: 1, BatchSize: 8, Checks: []CheckConfig{cc}})
	if err != nil {
		t.Fatal(err)
	}
	verdicts := func() int {
		c := s.Stats().Checks[0]
		return c.Satisfied + c.Violated + c.Inconclusive
	}
	sent := 0
	for _, step := range []struct{ n, want int }{{5, 0}, {5, 8}, {10, 16}} {
		postEvents(t, s, sent, step.n, 0)
		sent += step.n
		for deadline := time.Now().Add(5 * time.Second); s.Stats().Consumed < int64(sent) && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if got := verdicts(); got != step.want {
			t.Errorf("after %d events: %d verdicts, want %d", sent, got, step.want)
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := verdicts(); got != sent {
		t.Errorf("after drain: %d verdicts, want %d", got, sent)
	}
}

// TestDeadShardDrainsAndCounts: a check operator that panics kills its
// shard, not the server's accounting. The error names the shard and is
// visible in /stats while the server runs, the dead shard keeps emptying
// its lane so no producer blocks on it, Drain returns the error, and
// every accepted event ends up consumed or dropped.
func TestDeadShardDrainsAndCounts(t *testing.T) {
	before := runtime.NumGoroutine()
	s, err := NewServer(Config{Shards: 1, BatchSize: 4, Checks: []CheckConfig{{
		Name: "boom",
		Check: core.Check{Name: "boom", SeriesNames: []string{"x"}, Window: core.PointWindow{},
			Constraint: core.Constraint{Name: "boom", Granularity: core.PointWise, Arity: 1,
				Fn: func([][]float64) bool { panic("boom") }}},
		Params: core.DefaultParams(),
		Seed:   1,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	postEvents(t, s, 0, n, 1)
	for deadline := time.Now().Add(5 * time.Second); s.Stats().Shards[0].Err == "" && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if live := s.Stats(); live.Shards[0].Err == "" || live.Draining {
		t.Errorf("live stats: shard err %q, draining %v; want the panic reported before the drain", live.Shards[0].Err, live.Draining)
	}
	err = s.Drain()
	if err == nil || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "shard 0") {
		t.Errorf("Drain error %v, want the shard 0 operator panic", err)
	}
	st := s.Stats()
	if st.Shards[0].Err == "" {
		t.Error("drained stats lost the shard error")
	}
	if st.Ingested != n || st.Consumed+st.Dropped != n {
		t.Errorf("ingested %d, consumed %d + dropped %d; want %d accepted and every one accounted for", st.Ingested, st.Consumed, st.Dropped, n)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: before=%d after=%d", before, after)
	}
}

// TestOutcomesFeed subscribes to the live outcome stream, ingests the
// fixture, and expects verdicts to arrive as NDJSON until drain closes
// the feed.
func TestOutcomesFeed(t *testing.T) {
	evs := fixtureEvents(t)
	s, err := NewServer(Config{Shards: 2, Checks: pinChecks()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/outcomes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	for i := 0; s.nsubs.Load() == 0; i++ {
		if i > 1000 {
			t.Fatal("subscriber never registered")
		}
		time.Sleep(time.Millisecond)
	}

	var body []byte
	for _, ev := range evs {
		body = wire.AppendNDJSON(body, ev)
	}
	if _, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", bytes.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	drained := make(chan error, 1)
	go func() { drained <- s.Drain() }()

	dec := json.NewDecoder(resp.Body)
	seen := 0
	for {
		var msg OutcomeMsg
		if err := dec.Decode(&msg); err != nil {
			break // feed closed by drain
		}
		if _, ok := pinnedCounts[msg.Check]; !ok || msg.Key != "k" || msg.Outcome == "" {
			t.Fatalf("bad outcome message %+v", msg)
		}
		seen++
	}
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	var want int
	for _, c := range pinnedCounts {
		want += c[0] + c[1] + c[2]
	}
	if seen != want {
		t.Fatalf("outcome feed delivered %d verdicts, want %d", seen, want)
	}
}

// TestDrainRejectsLateProducers pins the shutdown contract: after Drain
// begins, new TCP serve loops and HTTP ingests are refused instead of
// racing the closing shard lanes.
func TestDrainRejectsLateProducers(t *testing.T) {
	s, err := NewServer(Config{Shards: 1, Checks: pinChecks()})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil { // idempotent
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ServeTCP(ln); err != ErrDraining {
		t.Fatalf("ServeTCP after drain: %v, want ErrDraining", err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/ingest", strings.NewReader(`{"t":1,"v":2}`+"\n")))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("ingest after drain: status %d, want 503", rec.Code)
	}
	if got := s.Stats(); got.Ingested != 0 {
		t.Fatalf("drained server ingested %d events", got.Ingested)
	}
}

func TestIngestRejectsBadNDJSON(t *testing.T) {
	s, err := NewServer(Config{Shards: 1, Checks: pinChecks()})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	body := `{"key":"k","t":1,"v":2}` + "\n" + `{broken` + "\n"
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/ingest", strings.NewReader(body)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rec.Code)
	}
	var ack struct {
		Error    string `json:"error"`
		Ingested int    `json:"ingested"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.Error == "" || ack.Ingested != 1 {
		t.Fatalf("ack %+v, want an error and 1 ingested", ack)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.DecodeErrors != 1 || st.Ingested != 1 {
		t.Fatalf("stats %+v, want 1 decode error, 1 ingested", st)
	}
}

func TestParseCheck(t *testing.T) {
	params := core.DefaultParams()
	good := []string{
		"range;min=0;max=100;window=time:60",
		"constraint=fraction;min=0;max=13;threshold=0.8;window=time:12:5;name=frac",
		"corr;threshold=0.3;window=time:120;route=inputs:latency,load",
		"monotonic;window=count:10;seed=99",
	}
	for _, spec := range good {
		cfg, err := ParseCheck(spec, params, 1, checker.EvictionPolicy{})
		if err != nil {
			t.Errorf("ParseCheck(%q): %v", spec, err)
			continue
		}
		if cfg.Name == "" || cfg.Check.Constraint.Fn == nil || cfg.Route == nil {
			t.Errorf("ParseCheck(%q): incomplete config %+v", spec, cfg)
		}
	}
	bad := []string{
		"",                       // no constraint
		"frobnicate",             // unknown constraint
		"range;window=bogus",     // bad window
		"range;zorp=1",           // unknown key
		"corr;threshold=0.3",     // binary without route
		"corr;route=inputs:a",    // arity mismatch
		"range;route=inputs:a,b", // arity mismatch the other way
		"range;min=NOPE",         // bad float
		"range;stray",            // bare token past position 0
	}
	for _, spec := range bad {
		if _, err := ParseCheck(spec, params, 1, checker.EvictionPolicy{}); err == nil {
			t.Errorf("ParseCheck(%q) accepted", spec)
		}
	}
}

// sharedTrioSpecs are three constraints over ONE window spec and route
// — they must land in a single multiplexing bucket and run the
// shared-draw path.
var sharedTrioSpecs = []string{
	"fraction;min=0;max=13;threshold=0.8;window=time:9;name=frac",
	"range;min=-2;max=14;window=time:9;name=rng",
	"maxdelta;threshold=9;window=time:9;name=delta",
}

// TestDynamicChecksHTTP starts an empty server, registers a shared
// window trio over POST /checks, ingests the pinned fixture, and
// requires (a) the bucket to report all three members sharing, and
// (b) the final counters to equal a fresh server given the same checks
// statically — dynamic registration is pure plumbing, not semantics.
func TestDynamicChecksHTTP(t *testing.T) {
	evs := fixtureEvents(t)
	var body []byte
	for _, ev := range evs {
		body = wire.AppendNDJSON(body, ev)
	}

	run := func(dynamic bool) Stats {
		cfg := Config{Shards: 4, BatchSize: 8, DefaultSeed: 13}
		if !dynamic {
			for _, spec := range sharedTrioSpecs {
				cc, err := ParseCheck(spec, core.DefaultParams(), 13, checker.EvictionPolicy{})
				if err != nil {
					t.Fatal(err)
				}
				cfg.Checks = append(cfg.Checks, cc)
			}
		}
		s, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		if dynamic {
			for _, spec := range sharedTrioSpecs {
				resp, err := http.Post(ts.URL+"/checks", "text/plain", strings.NewReader(spec))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("POST /checks %q: status %d", spec, resp.StatusCode)
				}
			}
		}
		resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		return s.Stats()
	}

	dyn := run(true)
	static := run(false)
	if len(dyn.Groups) != 1 || !dyn.Groups[0].Shared || len(dyn.Groups[0].Checks) != 3 {
		t.Fatalf("groups = %+v, want one shared bucket of 3", dyn.Groups)
	}
	if dyn.Groups[0].MemberEvals != 3*dyn.Groups[0].Windows {
		t.Errorf("member evals %d, want 3×windows (%d)", dyn.Groups[0].MemberEvals, dyn.Groups[0].Windows)
	}
	if dyn.Groups[0].SharedExtractionHitRatio <= 0 {
		t.Errorf("shared extraction hit ratio = %v, want > 0", dyn.Groups[0].SharedExtractionHitRatio)
	}
	// fraction and range are decided without rows wherever the window has
	// an uncertain point; max-delta never is.
	if g := dyn.Groups[0]; g.Collapsed == 0 || g.Collapsed > 2*g.Windows || g.Collapsed != static.Groups[0].Collapsed {
		t.Errorf("collapsed %d over %d windows (static run %d), want the same count in (0, 2×windows]", g.Collapsed, g.Windows, static.Groups[0].Collapsed)
	}
	counts := func(st Stats) map[string][3]int {
		m := map[string][3]int{}
		for _, cs := range st.Checks {
			m[cs.Name] = [3]int{cs.Satisfied, cs.Violated, cs.Inconclusive}
		}
		return m
	}
	dc, sc := counts(dyn), counts(static)
	if len(dc) != 3 {
		t.Fatalf("dynamic run reported %d checks, want 3", len(dc))
	}
	for name, want := range sc {
		if dc[name] != want {
			t.Errorf("check %s: dynamic %v != static %v", name, dc[name], want)
		}
	}
}

// TestCheckQuotaAndLifecycle drives the admission/removal surface:
// MaxChecks rejects with 429, duplicates with 409, DELETE removes and
// frees quota, unknown DELETE is 404.
func TestCheckQuotaAndLifecycle(t *testing.T) {
	s, err := NewServer(Config{Shards: 1, MaxChecks: 2, DefaultSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post := func(spec string) int {
		resp, err := http.Post(ts.URL+"/checks", "text/plain", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	del := func(name string) int {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/checks/"+name, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(sharedTrioSpecs[0]); code != http.StatusOK {
		t.Fatalf("first registration: %d", code)
	}
	if code := post(sharedTrioSpecs[0]); code != http.StatusConflict {
		t.Errorf("duplicate registration: %d, want 409", code)
	}
	if code := post(sharedTrioSpecs[1]); code != http.StatusOK {
		t.Fatalf("second registration: %d", code)
	}
	if code := post(sharedTrioSpecs[2]); code != http.StatusTooManyRequests {
		t.Errorf("over-quota registration: %d, want 429", code)
	}
	if code := post("not;a;valid;spec"); code != http.StatusBadRequest {
		t.Errorf("bad spec: %d, want 400", code)
	}
	if code := del("frac"); code != http.StatusOK {
		t.Errorf("delete: %d, want 200", code)
	}
	if code := del("frac"); code != http.StatusNotFound {
		t.Errorf("double delete: %d, want 404", code)
	}
	if code := post(sharedTrioSpecs[2]); code != http.StatusOK {
		t.Errorf("registration after delete freed quota: %d, want 200", code)
	}
	if got := s.CheckNames(); len(got) != 2 {
		t.Errorf("CheckNames = %v, want 2 entries", got)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if code := post(sharedTrioSpecs[0]); code != http.StatusServiceUnavailable {
		t.Errorf("registration after drain: %d, want 503", code)
	}
}

// TestAddCheckStatusCodes is the POST /checks error table: the status is
// chosen by what the error is, not by what its text happens to contain —
// a check *named* "already registered" that fails to compile is a bad
// request, not a conflict.
func TestAddCheckStatusCodes(t *testing.T) {
	s, err := NewServer(Config{Shards: 1, MaxChecks: 2, DefaultSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, tc := range []struct {
		name, spec string
		drain      bool
		want       int
	}{
		{"first", sharedTrioSpecs[0], false, http.StatusOK},
		{"duplicate name", sharedTrioSpecs[0], false, http.StatusConflict},
		{"unparsable spec", "not;a;valid;spec", false, http.StatusBadRequest},
		{"uncompilable check whose name quotes the conflict text",
			"corr;threshold=0.3;window=session:5;route=inputs:a,b;name=already registered", false, http.StatusBadRequest},
		{"second", sharedTrioSpecs[1], false, http.StatusOK},
		{"over quota", sharedTrioSpecs[2], false, http.StatusTooManyRequests},
		{"after drain", sharedTrioSpecs[2], true, http.StatusServiceUnavailable},
	} {
		if tc.drain {
			if err := s.Drain(); err != nil {
				t.Fatal(err)
			}
		}
		resp, err := http.Post(ts.URL+"/checks", "text/plain", strings.NewReader(tc.spec))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// TestLoneCheckShardInvariance: one check per window class is the common
// deployment, and its verdicts are a property of the data — the same
// borderline multi-key stream through one shard and through four gives
// the same counters and, key by key, the same verdict sequence.
func TestLoneCheckShardInvariance(t *testing.T) {
	var body []byte
	for i := 0; i < 48; i++ {
		for k := 0; k < 16; k++ {
			body = wire.AppendNDJSON(body, stream.Event{Time: float64(i), Key: fmt.Sprintf("k%d", k),
				Value: 5 + float64((i+3*k)%7), SigUp: 2, SigDown: 2})
		}
	}
	run := func(shards int) (CheckStats, map[string]string) {
		t.Helper()
		s, err := NewServer(Config{Shards: shards, BatchSize: 8, Checks: []CheckConfig{{
			Name: "lone",
			Check: core.Check{Name: "lone", Constraint: core.Range(0, 13),
				SeriesNames: []string{"x"}, Window: core.CountWindow{Size: 8}},
			Params: core.DefaultParams(),
			Seed:   7,
		}}})
		if err != nil {
			t.Fatal(err)
		}
		sub := s.subscribe()
		byKey := map[string]string{}
		collected := make(chan struct{})
		go func() {
			defer close(collected)
			for msg := range sub.ch {
				byKey[msg.Key] += msg.Outcome
			}
		}()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shards=%d: ingest status %d", shards, resp.StatusCode)
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		<-collected
		st := s.Stats()
		if st.OutcomesDropped != 0 {
			t.Fatalf("shards=%d: %d outcomes dropped, sequences are incomplete", shards, st.OutcomesDropped)
		}
		return st.Checks[0], byKey
	}
	one, seqOne := run(1)
	four, seqFour := run(4)
	if one != four {
		t.Errorf("counters differ: 1 shard %+v, 4 shards %+v", one, four)
	}
	if one.Satisfied == 0 || one.Violated+one.Inconclusive == 0 || len(seqOne) != 16 {
		t.Fatalf("workload not borderline over 16 keys: %+v, %d keys", one, len(seqOne))
	}
	for k, want := range seqOne {
		if got := seqFour[k]; got != want {
			t.Errorf("key %s: 4 shards %s, 1 shard %s", k, got, want)
		}
	}
}
