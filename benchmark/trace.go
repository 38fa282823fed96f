package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"sound/internal/checker"
	"sound/internal/core"
	"sound/internal/ingest"
	"sound/internal/resample"
	"sound/internal/rng"
	"sound/internal/series"
	"sound/internal/stat"
	"sound/internal/stream"
	"sound/internal/wire"
)

// This file is the traced run's per-layer bill. Nothing inside internal/
// is instrumented: the first slice of the run's own input is replayed
// in-process through each layer's public functions, with a span around
// every call, on one P so that wall time is CPU time. A layer's self
// time is its span minus its children; where a child cannot be nested
// from outside (the draws inside PlanGroup.Evaluate) it is timed as a
// sibling replay at the sample counts Evaluate reported, and subtracted.

// traceShare sizes the replayed slice: this share of --seconds at the
// workload's nominal saturation rate, from the start of the input, and
// at most traceMaxPoints (the replays feed the slice to an in-process
// server one unit at a time; past that a traced run takes a minute).
const (
	traceShare     = 0.025
	traceMaxPoints = 2_500_000
)

// settle collects garbage now. Every replay starts with it: the process
// holds the run's input, up to a gigabyte, and on one P a collection
// cycle that falls inside a replay of a few hundred milliseconds
// multiplies what the replay reads.
func settle() { runtime.GC() }

type spanKind uint8

const (
	spanCompile spanKind = iota
	spanDecode
	spanTransport
	spanE2E
	spanPublish
	spanGraph
	spanOperator
	spanExtract
	spanEvaluate
	spanDraw
	spanCredible
)

var spanNames = [...]string{
	spanCompile:   "core.compile",
	spanDecode:    "wire.decode",
	spanTransport: "ingest.transport",
	spanE2E:       "ingest.e2e",
	spanPublish:   "ingest.publish",
	spanGraph:     "stream.graph",
	spanOperator:  "checker.operator",
	spanExtract:   "resample.extract",
	spanEvaluate:  "core.evaluate",
	spanDraw:      "resample.draw",
	spanCredible:  "stat.credible_interval",
}

// span is one timed call. parent is the span it decomposes or was caused
// by (-1: none). Ingest-side spans are identified by wire-frame
// sequence, evaluation-side spans by (key, window start).
type span struct {
	kind       spanKind
	parent     int32
	start, end int64 // ns since the trace origin
	seq        int64 // wire-frame / transport-frame sequence, -1 if not a frame
	key        int32 // key index, -1 if not a window
	window     float64
}

// tracer holds spans in memory until the run ends. With off set it
// records nothing and reads no clock — the untraced pass that prices the
// tracing itself.
type tracer struct {
	origin time.Time
	spans  []span
	off    bool
}

const noSpan = int32(-1)

func (t *tracer) begin(kind spanKind, parent int32, seq int64, key int32, window float64) int32 {
	if t.off {
		return noSpan
	}
	t.spans = append(t.spans, span{kind: kind, parent: parent, seq: seq, key: key, window: window, start: int64(time.Since(t.origin))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if i != noSpan {
		t.spans[i].end = int64(time.Since(t.origin))
	}
}

// total is the summed duration of a kind's spans, in ns.
func (t *tracer) total(kind spanKind) float64 {
	var ns int64
	for i := range t.spans {
		if t.spans[i].kind == kind {
			ns += t.spans[i].end - t.spans[i].start
		}
	}
	return float64(ns)
}

func (t *tracer) write(path string, keys []string, head string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{%s,\n\"spans\":[\n", head)
	for i, s := range t.spans {
		id := ""
		switch {
		case s.key >= 0:
			id = fmt.Sprintf("%s@%g", keys[s.key], s.window)
		case s.seq >= 0:
			id = fmt.Sprintf("frame:%d", s.seq)
		}
		sep := ","
		if i == len(t.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"i\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"id\":%q}%s\n",
			i, spanNames[s.kind], s.start, s.end, s.parent, id, sep)
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// bucket is one multiplexing bucket of the workload's suite, compiled
// for the evaluation replay.
type bucket struct {
	windower core.Windower
	asg      core.WindowAssigner
	group    *core.PlanGroup
	members  int
	strats   []resample.Strategy // strategy of each member
}

// layerTrace is one traced run's replay state.
type layerTrace struct {
	wl        *workload
	keys      []string
	tr        tracer
	buckets   []*bucket
	compileNs float64
	file      string
	bill      map[string]float64 // self time per layer, ns/point
}

// newLayerTrace compiles the suite — timed, because it must run before
// anything else in the process has compiled a plan: the decision tables
// are cached per parameter set, and a starting server pays for them cold.
func newLayerTrace(wl *workload) (*layerTrace, error) {
	lt := &layerTrace{wl: wl, tr: tracer{origin: time.Now()}}
	sp := lt.tr.begin(spanCompile, noSpan, -1, -1, 0)
	byClass := map[core.GroupClass]*bucket{}
	var plans = map[*bucket][]*core.CheckPlan{}
	cfgs, err := wl.checkConfigs()
	if err != nil {
		return nil, err
	}
	for _, cc := range cfgs {
		plan, err := core.CompilePlan(cc.Check, cc.Params, cc.Seed)
		if err != nil {
			return nil, err
		}
		b := byClass[plan.Class()]
		if b == nil {
			b = &bucket{windower: cc.Check.Window, asg: plan.Assigner()}
			byClass[plan.Class()] = b
			lt.buckets = append(lt.buckets, b)
		}
		plans[b] = append(plans[b], plan)
		b.strats = append(b.strats, cc.Check.Constraint.Strategy())
	}
	for _, b := range lt.buckets {
		g, err := core.NewPlanGroup(plans[b])
		if err != nil {
			return nil, err
		}
		b.group, b.members = g, g.Members()
	}
	lt.tr.end(sp)
	lt.compileNs = lt.tr.total(spanCompile)
	return lt, nil
}

// slice is the part of the input the layers are replayed on.
type slice struct {
	units  int // whole units from the start of the input
	points int
	evs    []stream.Event // the same points, regenerated
	keyOf  []int32
}

func (lt *layerTrace) slice(in *input, seed uint64, seconds float64) slice {
	limit := min(int(traceShare*seconds*float64(lt.wl.satRate)), traceMaxPoints)
	var sl slice
	for u := 0; u < in.warm.units+in.sat.units; u++ {
		pts := in.warm.unitPts // warm-up and saturation share a unit size
		if sl.units > 0 && sl.points+pts > limit {
			break
		}
		sl.units++
		sl.points += pts
	}
	src := lt.wl.newSource(seed)
	sl.evs = make([]stream.Event, sl.points)
	sl.keyOf = make([]int32, sl.points)
	for i := range sl.evs {
		p := src.next()
		sl.evs[i], sl.keyOf[i] = p.ev, p.key
	}
	return sl
}

// run replays the slice through every layer and returns the per-layer
// metrics; counts come from the socket run that preceded it.
func (lt *layerTrace) run(in *input, seed uint64, seconds float64, sock *socketRun) (map[string]float64, error) {
	sl := lt.slice(in, seed, seconds)
	lt.keys = in.ref.keys
	n := float64(sl.points)
	// One P: the replays then add up as CPU time, comparable with each
	// other and with the end-to-end replay they decompose.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	var untracedNs, tracedNs float64 // same loops without and with spans

	// ingest side, outermost first so children can name their parent. The
	// first replay is thrown away: it pays for the listener, the pools and
	// the first pass over the slice's bytes.
	lt.tr.off = true
	if _, err := lt.serverReplay(in, sl, serverMode{kind: spanE2E, parent: noSpan, checks: true}); err != nil {
		return nil, err
	}
	lt.tr.off = false
	e2e, err := lt.serverReplay(in, sl, serverMode{kind: spanE2E, parent: noSpan, checks: true})
	if err != nil {
		return nil, err
	}
	transport, err := lt.serverReplay(in, sl, serverMode{kind: spanTransport, parent: e2e.span})
	if err != nil {
		return nil, err
	}
	// Publishing is priced as the difference between two stepped replays
	// (one unit at a time, each fully delivered before the next), with
	// and without a subscriber: at full speed the subscriber's bounded
	// queue overflows and most verdicts are dropped unpublished.
	lt.tr.off = true
	quiet, err := lt.serverReplay(in, sl, serverMode{kind: spanPublish, parent: noSpan, checks: true, stepped: true})
	if err != nil {
		return nil, err
	}
	lt.tr.off = false
	pub, err := lt.serverReplay(in, sl, serverMode{kind: spanPublish, parent: e2e.span, checks: true, stepped: true, subscribe: true})
	if err != nil {
		return nil, err
	}
	dec, err := lt.decodeReplay(in, sl, transport.span)
	if err != nil {
		return nil, err
	}
	untracedNs += dec.untracedNs
	tracedNs += dec.tracedNs
	graphNs, err := lt.graphReplay(sl)
	if err != nil {
		return nil, err
	}

	// evaluation side.
	lt.tr.off = true
	opUntraced, _, err := lt.operatorReplay(sl, noSpan)
	if err != nil {
		return nil, err
	}
	lt.tr.off = false
	opTraced, opSpan, err := lt.operatorReplay(sl, e2e.span)
	if err != nil {
		return nil, err
	}
	untracedNs += opUntraced
	tracedNs += opTraced
	lt.tr.off = true
	evUntraced := lt.evaluationReplay(sl, noSpan)
	lt.tr.off = false
	ev := lt.evaluationReplay(sl, opSpan)
	untracedNs += evUntraced.wallNs
	tracedNs += ev.wallNs

	operatorNs := lt.tr.total(spanOperator)
	extractNs := lt.tr.total(spanExtract)
	evaluateNs := lt.tr.total(spanEvaluate)
	decodeNs := lt.tr.total(spanDecode)
	drawNs := ev.drawNs[resample.Point] + ev.drawNs[resample.Set] + ev.drawNs[resample.Sequence]
	perValue := func(s resample.Strategy) float64 {
		if ev.drawValues[s] == 0 {
			return 0
		}
		return ev.drawNs[s] / ev.drawValues[s]
	}
	verdicts := float64(ev.verdicts)
	publishPerVerdict := 0.0
	if pub.delivered > 0 {
		publishPerVerdict = math.Max(0, pub.ns-quiet.ns) / float64(pub.delivered)
	}

	// Self times, ns/point. Transport is the zero-check server minus the
	// decoding it contains; windowing is the operator minus the
	// evaluation replay; scoring is evaluation minus the draw replay.
	lt.bill = map[string]float64{
		"wire":             decodeNs / n,
		"ingest":           (transport.ns - decodeNs) / n,
		"checker":          (operatorNs - extractNs - evaluateNs) / n,
		"resample.extract": extractNs / n,
		"resample.draw":    drawNs / n,
		"core":             (evaluateNs - drawNs) / n,
		"end_to_end":       e2e.ns / n,
	}
	attributed := (transport.ns + operatorNs) / n
	lt.bill["unattributed"] = lt.bill["end_to_end"] - attributed

	final := sock.final
	m := map[string]float64{
		"wire.decode_ns_per_point":         decodeNs / n,
		"wire.decode_allocs_per_point":     dec.allocs / n,
		"wire.bytes_per_point":             float64(in.unitEnd[sl.units-1]) / n,
		"ingest.transport_ns_per_point":    lt.bill["ingest"],
		"ingest.publish_ns_per_verdict":    publishPerVerdict,
		"ingest.verdict_lat_whole_p99_ms":  sock.latWholeP99,
		"ingest.shard_skew":                shardSkew(final),
		"ingest.ingested":                  float64(final.Ingested),
		"ingest.consumed":                  float64(final.Consumed),
		"ingest.dropped":                   float64(final.Dropped),
		"ingest.decode_errors":             float64(final.DecodeErrors),
		"ingest.outcomes_dropped":          float64(final.OutcomesDropped),
		"ingest.check_churn_p50_ms":        medianOrZero(sock.churnPairMs),
		"stream.graph_ns_per_point":        graphNs / n,
		"stream.edge_depth_max":            float64(sock.edgeMax),
		"checker.operator_ns_per_point":    operatorNs / n,
		"checker.window_ns_per_point":      lt.bill["checker"],
		"resample.extract_ns_per_point":    extractNs / n,
		"resample.draw_point_ns_per_value": perValue(resample.Point),
		"resample.draw_iid_ns_per_value":   perValue(resample.Set),
		"resample.draw_block_ns_per_value": perValue(resample.Sequence),
		"core.evaluate_ns_per_window":      evaluateNs / math.Max(1, float64(ev.windows)),
		"core.score_ns_per_sample":         (evaluateNs - drawNs) / math.Max(1, float64(ev.samples)),
		"core.samples_per_verdict":         float64(ev.samples) / math.Max(1, verdicts),
		"core.sample_budget_used":          float64(ev.samples) / math.Max(1, float64(lt.wl.maxSamples)*verdicts),
		"core.compile_ms":                  lt.compileNs / 1e6,
		"stat.credible_interval_ns":        ev.credibleNs,
		"loadgen.lag_p99_ms":               sock.lagP99,
		"loadgen.achieved_rate_pts_s":      sock.achieved,
		"loadgen.host_index":               sock.hostIndex,
		"trace.overhead_frac":              (tracedNs - untracedNs) / untracedNs,
		"trace.unattributed_frac":          lt.bill["unattributed"] / lt.bill["end_to_end"],
	}
	groupCounters(final, m)

	lt.file = filepath.Join(outDir, "trace-"+lt.wl.name+".json")
	head := fmt.Sprintf("\"workload\":%q,\"seed\":%d,\"points\":%d,\"gomaxprocs\":1", lt.wl.name, seed, sl.points)
	return m, lt.tr.write(lt.file, in.ref.keys, head)
}

func medianOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// shardSkew is max/mean of the shards' consumed counts.
func shardSkew(st ingest.Stats) float64 {
	var sum, most float64
	for _, sh := range st.Shards {
		sum += float64(sh.Consumed)
		most = math.Max(most, float64(sh.Consumed))
	}
	if sum == 0 {
		return 0
	}
	return most / (sum / float64(len(st.Shards)))
}

// groupCounters fills the checker.* counts and useful-to-attempted
// ratios from the child's final /stats.
func groupCounters(st ingest.Stats, m map[string]float64) {
	var verdicts, evicted, late, rejected float64
	for _, cs := range st.Checks {
		if cs.Name == churnName {
			continue
		}
		verdicts += float64(cs.Satisfied + cs.Violated + cs.Inconclusive)
		// Lifecycle events are noted on every member of the bucket whose
		// shared state they happened to; take one member's view.
		evicted = math.Max(evicted, float64(cs.EvictedGroups))
		late = math.Max(late, float64(cs.DroppedLate))
		rejected = math.Max(rejected, float64(cs.RejectedEvents))
	}
	var windows, evals, draws, retired, hits float64
	for _, g := range st.Groups {
		windows += float64(g.Windows)
		evals += float64(g.MemberEvals)
		draws += float64(g.Draws)
		retired += float64(g.RetiredEarly)
		hits += g.SharedExtractionHitRatio * float64(g.MemberEvals)
	}
	m["checker.verdicts"] = verdicts
	m["checker.evicted_groups"] = evicted
	m["checker.dropped_late"] = late
	m["checker.rejected_events"] = rejected
	m["checker.draws_per_window"] = draws / math.Max(1, windows)
	m["checker.draws_per_verdict"] = draws / math.Max(1, evals)
	m["checker.shared_hit_ratio"] = hits / math.Max(1, evals)
	m["checker.retired_early_frac"] = retired / math.Max(1, evals)
}

// decodeResult is the wire.decode replay.
type decodeResult struct {
	untracedNs, tracedNs float64
	allocs               float64 // heap allocations of one warm pass
}

// decodeReplay decodes the slice's own bytes three times through one
// decoder: a warm-up (the intern table fills), an untraced pass that
// counts allocations the way testing.AllocsPerRun does, and the traced
// pass with one span per wire unit.
func (lt *layerTrace) decodeReplay(in *input, sl slice, parent int32) (decodeResult, error) {
	settle()
	var res decodeResult
	data := in.data[:in.unitEnd[sl.units-1]]
	rd := bytes.NewReader(data)
	frames := wire.NewFrameDecoder(rd)
	lines := wire.NewNDJSONDecoder(rd)
	pass := func() error {
		rd.Reset(data)
		frames.Reset(rd)
		lines.Reset(rd)
		for u := 0; u < sl.units; u++ {
			sp := lt.tr.begin(spanDecode, parent, int64(u), -1, 0)
			if lt.wl.transport == tcpFrames {
				evs, err := frames.Next()
				if err != nil || len(evs) != in.warm.unitPts {
					return fmt.Errorf("decode replay: unit %d: %d events, %v", u, len(evs), err)
				}
			} else {
				for i := 0; i < in.warm.unitPts; i++ {
					if _, err := lines.Next(); err != nil {
						return fmt.Errorf("decode replay: unit %d: %v", u, err)
					}
				}
			}
			lt.tr.end(sp)
		}
		return nil
	}
	lt.tr.off = true
	if err := pass(); err != nil {
		return res, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	if err := pass(); err != nil {
		return res, err
	}
	res.untracedNs = float64(time.Since(t0))
	runtime.ReadMemStats(&after)
	res.allocs = float64(after.Mallocs - before.Mallocs)
	lt.tr.off = false
	t0 = time.Now()
	err := pass()
	res.tracedNs = float64(time.Since(t0))
	return res, err
}

// serverMode selects what a server replay runs and how it is recorded.
type serverMode struct {
	kind      spanKind
	parent    int32
	checks    bool // register the workload's checks (else none)
	subscribe bool // read /outcomes while feeding
	stepped   bool // wait for each unit to be fully delivered before the next
}

// serverResult is one server replay: its span, its wall time from first
// write to everything consumed, and the feed lines a subscriber read.
type serverResult struct {
	span      int32
	ns        float64
	delivered int64
}

// serverReplay feeds the slice's bytes to an in-process ingest.Server
// over a real loopback socket — ServeTCP or the HTTP handler, as the
// workload does. With checks it is the wire-to-verdict replay the layers
// decompose; without, it is decode plus transport; with a subscriber,
// the difference to the same run without one is the price of publishing.
func (lt *layerTrace) serverReplay(in *input, sl slice, mode serverMode) (serverResult, error) {
	settle()
	res := serverResult{span: noSpan}
	cfg := ingest.Config{Shards: serverShards, BatchSize: serverBatch, Evict: lt.wl.evict, DefaultParams: lt.wl.params(), DefaultSeed: checkSeed}
	if mode.checks {
		var err error
		if cfg.Checks, err = lt.wl.checkConfigs(); err != nil {
			return res, err
		}
	}
	srv, err := ingest.NewServer(cfg)
	if err != nil {
		return res, err
	}
	defer srv.Close()
	tcpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	go srv.ServeTCP(tcpLn) // Close ends it by closing the listener
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	hsrv := &http.Server{Handler: srv.Handler()}
	go hsrv.Serve(httpLn)
	defer hsrv.Close()
	base := "http://" + httpLn.Addr().String()

	var delivered atomic.Int64 // feed lines the subscriber has read
	if mode.subscribe {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/outcomes", nil)
		if err != nil {
			return res, err
		}
		client := &http.Client{Transport: &http.Transport{}}
		defer client.CloseIdleConnections()
		resp, err := client.Do(req)
		if err != nil {
			return res, err
		}
		feedDone := make(chan struct{})
		go func() {
			defer close(feedDone)
			defer resp.Body.Close()
			buf := make([]byte, 1<<16)
			for {
				n, err := resp.Body.Read(buf)
				delivered.Add(int64(bytes.Count(buf[:n], []byte{'\n'})))
				if err != nil {
					return
				}
			}
		}()
		defer func() { cancel(); <-feedDone }()
	}

	var snd sender
	if lt.wl.transport == tcpFrames {
		conn, err := net.Dial("tcp", tcpLn.Addr().String())
		if err != nil {
			return res, err
		}
		snd = &tcpSender{conn: conn}
	} else {
		snd = &httpSender{client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}, url: base + "/ingest"}
	}
	defer snd.close()

	// quiet waits until the server has consumed every point sent and, with
	// a subscriber, every verdict fired so far is read or counted dropped.
	quiet := func(sent int64, t0 time.Time) error {
		for {
			st := srv.Stats()
			done := st.Consumed >= sent
			if done && mode.subscribe {
				var fired int64
				for _, cs := range st.Checks {
					fired += int64(cs.Satisfied + cs.Violated + cs.Inconclusive)
				}
				done = delivered.Load()+st.OutcomesDropped >= fired
			}
			if done {
				return nil
			}
			if time.Since(t0) > 60*time.Second {
				return fmt.Errorf("server replay: consumed %d of %d points in 60 s", st.Consumed, sent)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	sp := lt.tr.begin(mode.kind, mode.parent, -1, -1, 0)
	t0 := time.Now()
	for u := 0; u < sl.units; u++ {
		if rejected, err := snd.send(in.unit(u)); err != nil || rejected {
			return res, fmt.Errorf("server replay: unit %d: rejected %v, %v", u, rejected, err)
		}
		if mode.stepped {
			if err := quiet(int64(u+1)*int64(in.warm.unitPts), t0); err != nil {
				return res, err
			}
		}
	}
	if err := quiet(int64(sl.points), t0); err != nil {
		return res, err
	}
	res.ns = float64(time.Since(t0))
	lt.tr.end(sp)
	res.span, res.delivered = sp, delivered.Load()
	return res, nil
}

// graphReplay runs the slice through a bare stream.Graph — source, a
// keyed hop to a no-op operator at the server's shard count, sink — at
// the server's batch size: what the engine itself charges per point.
func (lt *layerTrace) graphReplay(sl slice) (float64, error) {
	settle()
	g := stream.NewGraph()
	if err := g.SetBatchSize(serverBatch); err != nil {
		return 0, err
	}
	src := g.AddSource("in", func(emit stream.EmitFunc) {
		for i := range sl.evs {
			emit(sl.evs[i])
		}
	})
	op := g.AddMap("noop", serverShards, func(ev stream.Event, emit stream.EmitFunc) { emit(ev) })
	if err := g.ConnectKeyed(src, op); err != nil {
		return 0, err
	}
	if err := g.Connect(op, g.AddSink("out", nil)); err != nil {
		return 0, err
	}
	sp := lt.tr.begin(spanGraph, noSpan, -1, -1, 0)
	t0 := time.Now()
	_, err := g.Run()
	ns := float64(time.Since(t0))
	lt.tr.end(sp)
	return ns, err
}

// operatorReplay routes the slice to one fresh Mux.Factory() operator
// per shard the way the server does — in arrival order, a shard's events
// handed over whenever 64 have collected, so the shards' working sets
// compete for the cache as they do in the server — but on this goroutine
// and with no socket anywhere: one span per transport frame. It returns
// the loop's wall time and, when tracing, the index of the first frame's
// span (the parent the evaluation replay hangs its windows from).
func (lt *layerTrace) operatorReplay(sl slice, parent int32) (float64, int32, error) {
	settle()
	mux, err := lt.wl.newMux(func(_ int, mc *checker.MuxCheck) { mc.Out = &checker.StreamOutcomes{} })
	if err != nil {
		return 0, noSpan, err
	}
	ops := make([]stream.FrameProcessor, serverShards)
	frames := make([][]stream.Event, serverShards)
	shardOf := make([]uint8, len(lt.keys))
	for k, key := range lt.keys {
		shardOf[k] = uint8(stream.PartitionOf(key, serverShards))
	}
	for s := range ops {
		op, ok := mux.Factory()().(stream.FrameProcessor)
		if !ok {
			return 0, noSpan, fmt.Errorf("operator replay: the Mux operator is not a FrameProcessor")
		}
		ops[s], frames[s] = op, make([]stream.Event, 0, serverBatch)
	}
	first := noSpan
	var seq int64
	t0 := time.Now()
	for i := range sl.evs {
		s := shardOf[sl.keyOf[i]]
		frames[s] = append(frames[s], sl.evs[i])
		if len(frames[s]) < serverBatch {
			continue
		}
		sp := lt.tr.begin(spanOperator, parent, seq, -1, 0)
		ops[s].ProcessFrame(frames[s], dropEvent)
		lt.tr.end(sp)
		if first == noSpan {
			first = sp
		}
		seq++
		frames[s] = frames[s][:0]
	}
	return float64(time.Since(t0)), first, nil
}

// evalResult is the evaluation replay.
type evalResult struct {
	wallNs     float64
	windows    int
	verdicts   int
	samples    int // Σ Result.Samples over member verdicts
	drawNs     [3]float64
	drawValues [3]float64 // sampled values drawn, by strategy
	credibleNs float64    // mean ns of one Beta.CredibleInterval
}

// maxCredibleStates bounds the credible-interval replay.
const maxCredibleStates = 20000

// evaluationReplay re-evaluates the slice's windows outside the
// operator: per key the batch windower cuts the same windows, and each
// is extracted, evaluated by the bucket's PlanGroup under the window's
// own seed, and its draws repeated per strategy at the sample counts the
// evaluation reported.
func (lt *layerTrace) evaluationReplay(sl slice, parent int32) evalResult {
	settle()
	var res evalResult
	perKey := map[int32]series.Series{}
	var order []int32
	for i, ev := range sl.evs {
		k := sl.keyOf[i]
		if _, seen := perKey[k]; !seen {
			order = append(order, k)
		}
		perKey[k] = append(perKey[k], series.Point{T: ev.Time, V: ev.Value, SigUp: ev.SigUp, SigDown: ev.SigDown})
	}
	type state struct{ satisfied, samples int }
	var states []state
	var ext resample.Extraction
	var blk resample.Block
	rs := [3]*resample.Resampler{}
	for s := range rs {
		rs[s] = resample.New(resample.Strategy(s), rng.New(checkSeed))
	}
	t0 := time.Now()
	for _, b := range lt.buckets {
		out := make([]core.Result, b.members)
		for _, k := range order {
			s := perKey[k]
			if b.asg.Kind != core.KindCount {
				sort.SliceStable(s, func(i, j int) bool { return s[i].T < s[j].T })
			}
			keyHash := stream.KeyHash(lt.keys[k])
			for _, seg := range lt.segments(s) {
				for _, w := range b.windower.Windows([]series.Series{seg}) {
					if b.asg.Kind != core.KindCount && w.End > seg[len(seg)-1].T {
						break // still open: the operator fires a window once the key's watermark passes its end
					}
					win := w.Windows[0]
					sp := lt.tr.begin(spanExtract, parent, -1, k, w.Start)
					ext.Extract(win)
					lt.tr.end(sp)
					w.Ext = []resample.View{ext.View()}
					bits := math.Float64bits(w.Start)
					if b.asg.Kind == core.KindCount {
						bits = uint64(w.Index * b.asg.CountSlide)
					}
					evalSpan := lt.tr.begin(spanEvaluate, parent, -1, k, w.Start)
					b.group.Evaluate(b.group.WindowSeed(keyHash, bits), w, out)
					lt.tr.end(evalSpan)
					res.windows++
					var depth [3]int
					for i := range out {
						res.verdicts++
						res.samples += out[i].Samples
						depth[b.strats[i]] = max(depth[b.strats[i]], out[i].Samples)
						if len(states) < maxCredibleStates {
							states = append(states, state{out[i].SatisfiedCount, out[i].Samples})
						}
					}
					if len(win) == 0 {
						continue
					}
					for s, draws := range depth {
						if draws == 0 {
							continue
						}
						r := rs[s]
						r.PrimeViews(w.Windows, w.Ext)
						if resample.Strategy(s) == resample.Point && r.PrimedAllCertain() {
							draws = 1 // certain points are read once, not resampled
						}
						dsp := lt.tr.begin(spanDraw, evalSpan, -1, k, w.Start)
						d0 := time.Now()
						r.DrawBlock(w.Windows, draws, &blk)
						res.drawNs[s] += float64(time.Since(d0))
						lt.tr.end(dsp)
						res.drawValues[s] += float64(draws * len(win))
					}
				}
			}
		}
	}
	res.wallNs = float64(time.Since(t0))
	if len(states) > 0 {
		p := lt.wl.params()
		sp := lt.tr.begin(spanCredible, noSpan, -1, -1, 0)
		c0 := time.Now()
		var sink float64
		for _, st := range states {
			lo, hi := stat.Beta{Alpha: 1 + float64(st.satisfied), Beta: 1 + float64(st.samples-st.satisfied)}.CredibleInterval(p.Credibility)
			sink += lo + hi
		}
		res.credibleNs = float64(time.Since(c0)) / float64(len(states))
		lt.tr.end(sp)
		if math.IsNaN(sink) {
			res.credibleNs = math.NaN() // keeps the loop observable
		}
	}
	return res
}

// segments splits a key's series where the operator's idle eviction
// would have dropped the group and re-anchored it: at gaps longer than
// the TTL. Without a TTL the series is one segment.
func (lt *layerTrace) segments(s series.Series) []series.Series {
	ttl := lt.wl.evict.TTL
	if ttl <= 0 || len(s) == 0 {
		return []series.Series{s}
	}
	var segs []series.Series
	start := 0
	for i := 1; i < len(s); i++ {
		if s[i].T-s[i-1].T > ttl {
			segs = append(segs, s[start:i])
			start = i
		}
	}
	return append(segs, s[start:])
}
