// Command soundserve runs the always-on checking server: it accepts
// events over TCP (length-prefixed binary frames) and HTTP (NDJSON),
// fans them out to shards by the engine's stable key hash, and
// evaluates the registered checks online with live counters and a
// streaming outcome feed.
//
// Checks are registered with repeatable -check specs, or at runtime
// with POST /checks (see internal/ingest.ParseCheck for the grammar; the
// template tokens and their keys are internal/core's template table):
//
//	soundserve -http :7071 -check 'range;min=0;max=100;window=time:60'
//	soundserve -tcp :7070 -http :7071 \
//	    -check 'name=lat-vs-load;constraint=corr;threshold=0.3;window=time:120;route=inputs:latency,load' \
//	    -ttl 3600 -max-groups 100000
//
// Every accepted spec has one canonical text (ingest.FormatCheck), which
// GET /checks lists under "specs" and soundprofile prints.
//
// SIGINT/SIGTERM drains gracefully: intake stops, every shard flushes
// its final windows, and the final counter snapshot is printed.
//
// -selftest replays a CSV fixture through both wire paths (TCP frames,
// HTTP NDJSON) against a fresh server each and diffs the verdict
// counters against a direct single-process evaluation of the same
// checks — the shard fan-in parity contract, checked end to end. The
// HTTP pass registers each check by its canonical text, so it also
// checks that the text is the check:
//
//	soundserve -selftest -fixture testdata/gapped_borderline.csv
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"sound"
	"sound/internal/checker"
	"sound/internal/ingest"
	"sound/internal/stream"
	"sound/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("soundserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		tcpAddr    = fs.String("tcp", "", "listen address for binary-frame ingest (e.g. :7070; empty disables)")
		httpAddr   = fs.String("http", "", "listen address for the HTTP surface: POST /ingest, GET /stats, GET /outcomes, POST /drain (empty disables)")
		shards     = fs.Int("shards", 4, "independent shards; events route by the engine's stable key hash")
		batch      = fs.Int("batch", 64, "transport frame size: shard lanes and the frames each shard hands its checks")
		cred       = fs.Float64("c", 0.95, "credibility level c")
		maxSamples = fs.Int("n", 100, "maximum sample size N")
		seed       = fs.Uint64("seed", 1, "deterministic seed (per-check seed=... overrides)")
		ttl        = fs.Float64("ttl", 0, "evict window groups idle for this much event time (0 keeps all groups)")
		maxGroups  = fs.Int("max-groups", 0, "cap live window groups per check worker, LRU-evicted (0 is unlimited)")
		maxChecks  = fs.Int("max-checks", 0, "cap concurrently registered checks — admission quota for POST /checks (0 is unlimited)")
		selftest   = fs.Bool("selftest", false, "replay -fixture through both wire paths and diff against a single-process evaluation")
		fixture    = fs.String("fixture", "", "CSV fixture for -selftest (t,v[,sig_up[,sig_down]])")
	)
	var specs []string
	fs.Func("check", "check registration, repeatable: '<constraint>[;key=value;...]', e.g. 'range;min=0;max=100;window=time:60'", func(s string) error {
		specs = append(specs, s)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if fs.NArg() != 0 {
		return fail(stderr, fmt.Errorf("unexpected arguments %v", fs.Args()))
	}
	params := sound.Params{Credibility: *cred, MaxSamples: *maxSamples}
	evict := checker.EvictionPolicy{TTL: *ttl, MaxGroups: *maxGroups}

	if *selftest {
		return runSelftest(*fixture, specs, params, *seed, evict, *shards, *batch, stdout, stderr)
	}

	if len(specs) == 0 && *httpAddr == "" {
		return fail(stderr, fmt.Errorf("no checks registered (repeatable -check '...', or enable -http for POST /checks registration)"))
	}
	if *tcpAddr == "" && *httpAddr == "" {
		return fail(stderr, fmt.Errorf("nothing to listen on (set -tcp and/or -http)"))
	}
	cfgs, err := buildChecks(specs, params, *seed, evict)
	if err != nil {
		return fail(stderr, err)
	}
	srv, err := ingest.NewServer(ingest.Config{
		Shards: *shards, BatchSize: *batch, Checks: cfgs,
		MaxChecks: *maxChecks, Evict: evict,
		DefaultParams: params, DefaultSeed: *seed,
	})
	if err != nil {
		return fail(stderr, err)
	}

	errc := make(chan error, 2)
	var hsrv *http.Server
	if *tcpAddr != "" {
		ln, err := net.Listen("tcp", *tcpAddr)
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stderr, "soundserve: frame ingest on %s\n", ln.Addr())
		go func() { errc <- srv.ServeTCP(ln) }()
	}
	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stderr, "soundserve: http on %s\n", ln.Addr())
		hsrv = &http.Server{Handler: srv.Handler()}
		go func() {
			if err := hsrv.Serve(ln); err != nil && err != http.ErrServerClosed {
				errc <- err
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(stderr, "soundserve: %v, draining\n", s)
	case err := <-errc:
		if err != nil && err != ingest.ErrDraining {
			fmt.Fprintln(stderr, "soundserve:", err)
		}
	case <-srv.Drained():
		// A client's POST /drain quiesced the server; shut down the
		// process too, same as the signal path.
		fmt.Fprintln(stderr, "soundserve: drained by request")
	}
	drainErr := srv.Drain()
	if hsrv != nil {
		// Shutdown, not Close: the POST /drain that quiesced the server is
		// still writing its stats body when Drained() fires, and Close
		// would cut that response off.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if hsrv.Shutdown(ctx) != nil {
			hsrv.Close()
		}
		cancel()
	}
	st := srv.Stats()
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	enc.Encode(st)
	if drainErr != nil {
		return fail(stderr, drainErr)
	}
	return 0
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "soundserve:", err)
	return 1
}

func buildChecks(specs []string, params sound.Params, seed uint64, evict checker.EvictionPolicy) ([]ingest.CheckConfig, error) {
	var cfgs []ingest.CheckConfig
	names := map[string]bool{}
	for _, spec := range specs {
		cfg, err := ingest.ParseCheck(spec, params, seed, evict)
		if err != nil {
			return nil, err
		}
		if names[cfg.Name] {
			return nil, fmt.Errorf("duplicate check name %q (disambiguate with name=...)", cfg.Name)
		}
		names[cfg.Name] = true
		cfgs = append(cfgs, cfg)
	}
	return cfgs, nil
}

// selftestSpecs is the default -selftest suite when no -check is given:
// the pinned window trio over a fraction-in-range constraint (the same
// shapes the repo's stream goldens pin), plus two more constraints on
// the tumbling window — with "tumbling" they form a multiplexing bucket
// of three co-window checks exercising the shared-draw path end to end.
var selftestSpecs = []string{
	"fraction;min=0;max=13;threshold=0.8;window=time:12:5;name=sliding",
	"fraction;min=0;max=13;threshold=0.8;window=time:9;name=tumbling",
	"fraction;min=0;max=13;threshold=0.8;window=count:8:3;name=count",
	"range;min=-2;max=14;window=time:9;name=shared-range",
	"maxdelta;threshold=9;window=time:9;name=shared-delta",
}

// selftestKeys are the route keys the fixture is replayed under; they
// hash to all four of the default shards (TestSelftestKeysCoverShards).
var selftestKeys = []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"}

type counts3 = [3]int // satisfied, violated, inconclusive

// runSelftest replays the fixture through a real TCP loopback (binary
// frames) and a real HTTP loopback (NDJSON), each against a fresh
// server, and requires both final counter snapshots to match a direct
// single-process evaluation of the same checks bit for bit.
func runSelftest(fixture string, specs []string, params sound.Params, seed uint64, evict checker.EvictionPolicy, shards, batch int, stdout, stderr io.Writer) int {
	if fixture == "" {
		return fail(stderr, fmt.Errorf("-selftest needs -fixture FILE.csv"))
	}
	f, err := os.Open(fixture)
	if err != nil {
		return fail(stderr, err)
	}
	pts, err := sound.ReadCSV(f)
	f.Close()
	if err != nil {
		return fail(stderr, fmt.Errorf("%s: %w", fixture, err))
	}
	// Every key replays the whole fixture, interleaved point by point, so
	// all shards evaluate windows — the lone-member sliding and count
	// buckets included — and must still add up to the reference's counts.
	evs := make([]stream.Event, 0, len(pts)*len(selftestKeys))
	for _, p := range pts {
		for _, k := range selftestKeys {
			evs = append(evs, stream.Event{Time: p.T, Key: k, Value: p.V, SigUp: p.SigUp, SigDown: p.SigDown})
		}
	}
	if len(specs) == 0 {
		specs = selftestSpecs
	}
	cfgs, err := buildChecks(specs, params, seed, evict)
	if err != nil {
		return fail(stderr, err)
	}
	ref, refGroups, err := referenceCounts(cfgs, evs)
	if err != nil {
		return fail(stderr, err)
	}
	tcp, tcpGroups, err := selftestTCP(cfgs, evs, shards, batch)
	if err != nil {
		return fail(stderr, fmt.Errorf("tcp pass: %w", err))
	}
	httpc, httpGroups, err := selftestHTTP(cfgs, params, seed, evict, evs, shards, batch)
	if err != nil {
		return fail(stderr, fmt.Errorf("http pass: %w", err))
	}
	ok := true
	for _, cfg := range cfgs {
		r, tc, hc := ref[cfg.Name], tcp[cfg.Name], httpc[cfg.Name]
		status := "ok"
		if tc != r || hc != r {
			status = "MISMATCH"
			ok = false
		}
		fmt.Fprintf(stdout, "selftest %-12s ref ⊤%d ⊥%d ⊣%d  tcp ⊤%d ⊥%d ⊣%d  http ⊤%d ⊥%d ⊣%d  %s\n",
			cfg.Name, r[0], r[1], r[2], tc[0], tc[1], tc[2], hc[0], hc[1], hc[2], status)
	}
	for _, g := range refGroups {
		fmt.Fprintf(stdout, "selftest group %v shared=%v windows=%d draws=%d collapsed=%d extraction-hit=%.2f\n",
			g.Checks, g.Shared, g.Windows, g.Draws, g.Collapsed, g.SharedExtractionHitRatio)
	}
	if err := sameGroups(refGroups, tcpGroups); err != nil {
		fmt.Fprintln(stderr, "soundserve: selftest FAILED: tcp group stats:", err)
		ok = false
	}
	if err := sameGroups(refGroups, httpGroups); err != nil {
		fmt.Fprintln(stderr, "soundserve: selftest FAILED: http group stats:", err)
		ok = false
	}
	if !ok {
		fmt.Fprintln(stderr, "soundserve: selftest FAILED: wire paths diverged from the single-process evaluation")
		return 1
	}
	fmt.Fprintf(stdout, "selftest ok: %d events × %d checks, tcp and http match the single-process evaluation\n", len(evs), len(cfgs))
	return 0
}

// referenceCounts evaluates the whole suite single-process — ONE
// multiplexed operator instance fed in order, no server, no sharding —
// producing the ground truth the wire paths must reproduce. Valid as a
// bit-exact reference for counts and group stats because a verdict is a
// function of (check class, key, window) and the server's fan-in keeps
// each key's events in order on the shard that owns the key.
func referenceCounts(cfgs []ingest.CheckConfig, evs []stream.Event) (map[string]counts3, []checker.GroupStat, error) {
	mux := checker.NewMux(false, checker.EvictionPolicy{})
	outs := make(map[string]*checker.StreamOutcomes, len(cfgs))
	for _, cc := range cfgs {
		o := &checker.StreamOutcomes{}
		outs[cc.Name] = o
		routeID := cc.RouteSpec
		if cc.Route == nil {
			routeID = "event"
		}
		if err := mux.Register(checker.MuxCheck{
			Name: cc.Name, Check: cc.Check, Params: cc.Params, Seed: cc.Seed,
			Naive: cc.Naive, Route: cc.Route, RouteID: routeID, Out: o,
		}); err != nil {
			return nil, nil, err
		}
	}
	p := mux.Factory()()
	drop := func(stream.Event) {}
	for _, ev := range evs {
		p.Process(ev, drop)
	}
	p.Flush(drop)
	out := map[string]counts3{}
	for name, o := range outs {
		c := o.Counts()
		out[name] = counts3{c.Satisfied, c.Violated, c.Inconclusive}
	}
	return out, mux.GroupStats(), nil
}

// sameGroups diffs two multiplexing-bucket reports: same buckets, same
// members, same sharing counters. Bucket order may differ between the
// reference and a server (registration vs config order), so buckets are
// matched by member set.
func sameGroups(want, got []checker.GroupStat) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d buckets, want %d", len(got), len(want))
	}
	key := func(g checker.GroupStat) string {
		names := append([]string(nil), g.Checks...)
		sort.Strings(names)
		return strings.Join(names, ",")
	}
	byKey := map[string]checker.GroupStat{}
	for _, g := range want {
		byKey[key(g)] = g
	}
	for _, g := range got {
		w, ok := byKey[key(g)]
		if !ok {
			return fmt.Errorf("unexpected bucket %v", g.Checks)
		}
		if g.Shared != w.Shared || g.Windows != w.Windows || g.MemberEvals != w.MemberEvals || g.Draws != w.Draws || g.Collapsed != w.Collapsed {
			return fmt.Errorf("bucket %v: shared=%v windows=%d evals=%d draws=%d collapsed=%d, want shared=%v windows=%d evals=%d draws=%d collapsed=%d",
				g.Checks, g.Shared, g.Windows, g.MemberEvals, g.Draws, g.Collapsed, w.Shared, w.Windows, w.MemberEvals, w.Draws, w.Collapsed)
		}
	}
	return nil
}

func statsCounts(st ingest.Stats, nEvents int) (map[string]counts3, error) {
	if st.Ingested != int64(nEvents) || st.Consumed != int64(nEvents) {
		return nil, fmt.Errorf("ingested %d consumed %d, want %d each", st.Ingested, st.Consumed, nEvents)
	}
	if st.Dropped != 0 || st.DecodeErrors != 0 {
		return nil, fmt.Errorf("dropped %d, decode errors %d", st.Dropped, st.DecodeErrors)
	}
	out := map[string]counts3{}
	for _, cs := range st.Checks {
		out[cs.Name] = counts3{cs.Satisfied, cs.Violated, cs.Inconclusive}
	}
	return out, nil
}

// selftestTCP replays the events as binary frames over a real loopback
// TCP connection.
func selftestTCP(cfgs []ingest.CheckConfig, evs []stream.Event, shards, batch int) (map[string]counts3, []checker.GroupStat, error) {
	srv, err := ingest.NewServer(ingest.Config{Shards: shards, BatchSize: batch, Checks: cfgs})
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	go srv.ServeTCP(ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	bw := bufio.NewWriter(conn)
	enc := wire.NewFrameEncoder(bw)
	frame := max(batch, 1)
	for off := 0; off < len(evs); off += frame {
		if err := enc.Encode(evs[off:min(off+frame, len(evs))]); err != nil {
			return nil, nil, err
		}
	}
	if err := bw.Flush(); err != nil {
		return nil, nil, err
	}
	if err := conn.Close(); err != nil {
		return nil, nil, err
	}
	waitIngested(srv, len(evs))
	if err := srv.Drain(); err != nil {
		return nil, nil, err
	}
	st := srv.Stats()
	counts, err := statsCounts(st, len(evs))
	return counts, st.Groups, err
}

// waitIngested returns once the server has decoded n events, or after
// five seconds. Drain does not wait for a connection the listener has
// not accepted yet, so a driver that hangs up and drains at once has to
// see its events counted first; a timeout shows up as the count mismatch
// the caller reports.
func waitIngested(srv *ingest.Server, n int) {
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Ingested < int64(n) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// selftestHTTP replays the events as one NDJSON POST against a fresh
// server listening on a real loopback socket, then drains over HTTP.
// The server starts with ZERO checks: the suite is registered live over
// POST /checks, each as its canonical spec (ingest.FormatCheck), so the
// pass also proves that dynamic registration is semantics-free and that
// the canonical text is the check: a check written out, sent over the
// wire and parsed back counts exactly like the one configured at boot.
func selftestHTTP(cfgs []ingest.CheckConfig, params sound.Params, seed uint64, evict checker.EvictionPolicy, evs []stream.Event, shards, batch int) (map[string]counts3, []checker.GroupStat, error) {
	srv, err := ingest.NewServer(ingest.Config{
		Shards: shards, BatchSize: batch,
		Evict: evict, DefaultParams: params, DefaultSeed: seed,
	})
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	hsrv := &http.Server{Handler: srv.Handler()}
	go hsrv.Serve(ln)
	defer hsrv.Close()
	base := "http://" + ln.Addr().String()

	for _, cfg := range cfgs {
		spec, err := ingest.FormatCheck(cfg)
		if err != nil {
			return nil, nil, err
		}
		resp, err := http.Post(base+"/checks", "text/plain", strings.NewReader(spec))
		if err != nil {
			return nil, nil, err
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, nil, fmt.Errorf("register %q: status %d: %s", spec, resp.StatusCode, bytes.TrimSpace(msg))
		}
	}

	var body []byte
	for _, ev := range evs {
		body = wire.AppendNDJSON(body, ev)
	}
	resp, err := http.Post(base+"/ingest", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	var ack struct {
		Ingested int    `json:"ingested"`
		Error    string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK || ack.Ingested != len(evs) {
		return nil, nil, fmt.Errorf("ingest: status %d, ingested %d of %d (%s)", resp.StatusCode, ack.Ingested, len(evs), ack.Error)
	}
	resp, err = http.Post(base+"/drain", "", nil)
	if err != nil {
		return nil, nil, err
	}
	var st ingest.Stats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return nil, nil, err
	}
	if st.Err != "" {
		return nil, nil, fmt.Errorf("drain: %s", st.Err)
	}
	counts, err := statsCounts(st, len(evs))
	return counts, st.Groups, err
}
