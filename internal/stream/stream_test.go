package stream

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// buildLinear builds source -> op(parallelism) -> sink counting events.
func buildLinear(t *testing.T, n int, parallelism int, proc func(Event, EmitFunc)) (*Graph, *int64) {
	t.Helper()
	g := NewGraph()
	src := g.AddSource("src", func(emit EmitFunc) {
		for i := 0; i < n; i++ {
			emit(Event{Time: float64(i), Key: fmt.Sprintf("k%d", i%7), Value: float64(i), Created: Now()})
		}
	})
	op := g.AddMap("op", parallelism, proc)
	var count int64
	sink := g.AddSink("sink", func(Event) { atomic.AddInt64(&count, 1) })
	if err := g.Connect(src, op); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(op, sink); err != nil {
		t.Fatal(err)
	}
	return g, &count
}

func TestLinearPipelineDeliversAll(t *testing.T) {
	const n = 10000
	g, count := buildLinear(t, n, 4, func(ev Event, emit EmitFunc) { emit(ev) })
	m, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	if *count != n {
		t.Errorf("sink saw %d events, want %d", *count, n)
	}
	if m.Count("sink") != n {
		t.Errorf("metrics count = %d", m.Count("sink"))
	}
	if m.Throughput("sink") <= 0 {
		t.Errorf("throughput = %v", m.Throughput("sink"))
	}
}

func TestFilterDropsEvents(t *testing.T) {
	g := NewGraph()
	src := g.AddSource("src", func(emit EmitFunc) {
		for i := 0; i < 100; i++ {
			emit(Event{Time: float64(i), Value: float64(i)})
		}
	})
	f := g.AddFilter("evens", 2, func(ev Event) bool { return int(ev.Value)%2 == 0 })
	var count int64
	sink := g.AddSink("sink", func(Event) { atomic.AddInt64(&count, 1) })
	must(t, g.Connect(src, f))
	must(t, g.Connect(f, sink))
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 50 {
		t.Errorf("filter passed %d events, want 50", count)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestFanOutDuplicates(t *testing.T) {
	g := NewGraph()
	src := g.AddSource("src", func(emit EmitFunc) {
		for i := 0; i < 500; i++ {
			emit(Event{Time: float64(i)})
		}
	})
	var a, b int64
	sa := g.AddSink("a", func(Event) { atomic.AddInt64(&a, 1) })
	sb := g.AddSink("b", func(Event) { atomic.AddInt64(&b, 1) })
	must(t, g.Connect(src, sa))
	must(t, g.Connect(src, sb))
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if a != 500 || b != 500 {
		t.Errorf("fan-out delivered %d / %d", a, b)
	}
}

func TestKeyedPartitioningIsKeyLocal(t *testing.T) {
	// Each worker records which keys it saw; with keyed connection a key
	// must never appear at two workers.
	g := NewGraph()
	src := g.AddSource("src", func(emit EmitFunc) {
		for i := 0; i < 5000; i++ {
			emit(Event{Time: float64(i), Key: fmt.Sprintf("key-%d", i%17)})
		}
	})
	var mu sync.Mutex
	workerKeys := map[int]map[string]bool{}
	var workerID int64
	op := g.AddOperator("keyed", 4, func() Processor {
		id := int(atomic.AddInt64(&workerID, 1))
		mu.Lock()
		workerKeys[id] = map[string]bool{}
		mu.Unlock()
		return ProcessorFunc(func(ev Event, emit EmitFunc) {
			mu.Lock()
			workerKeys[id][ev.Key] = true
			mu.Unlock()
			emit(ev)
		})
	})
	var count int64
	sink := g.AddSink("sink", func(Event) { atomic.AddInt64(&count, 1) })
	must(t, g.ConnectKeyed(src, op))
	must(t, g.Connect(op, sink))
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 5000 {
		t.Fatalf("delivered %d", count)
	}
	owner := map[string]int{}
	for id, keys := range workerKeys {
		for k := range keys {
			if prev, dup := owner[k]; dup && prev != id {
				t.Errorf("key %q processed by workers %d and %d", k, prev, id)
			}
			owner[k] = id
		}
	}
	if len(owner) != 17 {
		t.Errorf("saw %d distinct keys, want 17", len(owner))
	}
}

func TestStatefulWorkersNoRaces(t *testing.T) {
	// Each worker keeps a private counter; the sum must equal the input.
	g := NewGraph()
	const n = 20000
	src := g.AddSource("src", func(emit EmitFunc) {
		for i := 0; i < n; i++ {
			emit(Event{Time: float64(i), Key: fmt.Sprintf("%d", i%31)})
		}
	})
	var total int64
	op := g.AddOperator("counter", 4, func() Processor {
		return &countingProc{total: &total}
	})
	sink := g.AddSink("sink", nil)
	must(t, g.ConnectKeyed(src, op))
	must(t, g.Connect(op, sink))
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if total != n {
		t.Errorf("workers counted %d, want %d", total, n)
	}
}

type countingProc struct {
	local int64
	total *int64
}

func (c *countingProc) Process(ev Event, emit EmitFunc) { c.local++; emit(ev) }
func (c *countingProc) Flush(EmitFunc)                  { atomic.AddInt64(c.total, c.local) }

func TestChainedOperators(t *testing.T) {
	g := NewGraph()
	src := g.AddSource("src", func(emit EmitFunc) {
		for i := 0; i < 1000; i++ {
			emit(Event{Value: 1})
		}
	})
	double := g.AddMap("double", 2, func(ev Event, emit EmitFunc) {
		ev.Value *= 2
		emit(ev)
	})
	addOne := g.AddMap("addone", 2, func(ev Event, emit EmitFunc) {
		ev.Value++
		emit(ev)
	})
	var sum int64
	sink := g.AddSink("sink", func(ev Event) { atomic.AddInt64(&sum, int64(ev.Value)) })
	must(t, g.Connect(src, double))
	must(t, g.Connect(double, addOne))
	must(t, g.Connect(addOne, sink))
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if sum != 3000 {
		t.Errorf("sum = %d, want 3000", sum)
	}
}

func TestValidation(t *testing.T) {
	g := NewGraph()
	if _, err := g.Run(); err == nil {
		t.Error("empty graph accepted")
	}
	g2 := NewGraph()
	g2.AddSource("s", func(EmitFunc) {})
	if _, err := g2.Run(); err == nil {
		t.Error("graph without sink accepted")
	}
	g3 := NewGraph()
	g3.AddSource("x", func(EmitFunc) {})
	g3.AddSource("x", func(EmitFunc) {})
	g3.AddSink("k", nil)
	if _, err := g3.Run(); err == nil {
		t.Error("duplicate names accepted")
	}
	g4 := NewGraph()
	src := g4.AddSource("s", func(EmitFunc) {})
	sink := g4.AddSink("k", nil)
	if err := g4.Connect(sink, src); err == nil {
		t.Error("sink->source edge accepted")
	}
	if err := g4.Connect(nil, src); err == nil {
		t.Error("nil node accepted")
	}
}

// TestValidateRejectsCycleAndForeignNode: Run refuses, with an error
// naming the node, a graph it cannot finish correctly. On a cycle every
// node on it feeds its own input, whose channel then never closes, so Run
// would hang (it runs under a timeout here); an edge into a node of
// another graph has no channel any worker reads, so its events would be
// dropped without a word.
func TestValidateRejectsCycleAndForeignNode(t *testing.T) {
	source := func(g *Graph) *Node {
		return g.AddSource("src", func(emit EmitFunc) {
			for i := 0; i < 10; i++ {
				emit(Event{Time: float64(i)})
			}
		})
	}
	pass := func(ev Event, emit EmitFunc) { emit(ev) }
	for _, tc := range []struct {
		name, node string
		build      func() *Graph
	}{
		{"self-loop", "op", func() *Graph {
			g := NewGraph()
			op := g.AddMap("op", 1, pass)
			must(t, g.Connect(source(g), op))
			must(t, g.Connect(op, op))
			must(t, g.Connect(op, g.AddSink("sink", nil)))
			return g
		}},
		{"two-node-cycle", "a", func() *Graph {
			g := NewGraph()
			a, b := g.AddMap("a", 1, pass), g.AddMap("b", 2, pass)
			must(t, g.Connect(source(g), a))
			must(t, g.Connect(a, b))
			must(t, g.ConnectKeyed(b, a))
			must(t, g.Connect(b, g.AddSink("sink", nil)))
			return g
		}},
		{"foreign-node", "other", func() *Graph {
			g, h := NewGraph(), NewGraph()
			src := source(g)
			must(t, g.Connect(src, g.AddSink("out", nil)))
			must(t, g.Connect(src, h.AddSink("other", nil)))
			return g
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build()
			errc := make(chan error, 1)
			go func() {
				_, err := g.Run()
				errc <- err
			}()
			select {
			case err := <-errc:
				if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", tc.node)) {
					t.Errorf("Run error = %v, want one naming node %q", err, tc.node)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Run did not return")
			}
		})
	}
}

// TestSetBatchSizeRejectsNonPositive: a zero or negative transport
// batch size is a configuration error, not a silent clamp.
func TestSetBatchSizeRejectsNonPositive(t *testing.T) {
	g := NewGraph()
	for _, n := range []int{0, -1, -64} {
		if err := g.SetBatchSize(n); err == nil || !strings.Contains(err.Error(), "batch size") {
			t.Errorf("SetBatchSize(%d): err = %v, want out-of-range error", n, err)
		}
	}
	if err := g.SetBatchSize(1); err != nil {
		t.Errorf("SetBatchSize(1): %v", err)
	}
	if err := g.SetBatchSize(256); err != nil {
		t.Errorf("SetBatchSize(256): %v", err)
	}
}

func TestWindowAggregatorTumbling(t *testing.T) {
	g := NewGraph()
	// Two keys, values 0..59 at t=0..59; windows of size 10.
	src := g.AddSource("src", func(emit EmitFunc) {
		for i := 0; i < 60; i++ {
			for _, k := range []string{"a", "b"} {
				emit(Event{Time: float64(i), Key: k, Value: float64(i), Created: Now()})
			}
		}
	})
	wop := g.AddOperator("win", 2, NewWindowAggregator(10, MeanAggregator()))
	var mu sync.Mutex
	got := map[string][]Event{}
	sink := g.AddSink("sink", func(ev Event) {
		mu.Lock()
		got[ev.Key] = append(got[ev.Key], ev)
		mu.Unlock()
	})
	must(t, g.ConnectKeyed(src, wop))
	must(t, g.Connect(wop, sink))
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b"} {
		if len(got[k]) != 6 {
			t.Fatalf("key %s got %d windows, want 6", k, len(got[k]))
		}
		// Window [0,10) mean = 4.5, [10,20) mean = 14.5, ...
		for _, ev := range got[k] {
			want := ev.Time + 4.5
			if ev.Value != want {
				t.Errorf("key %s window at %v mean = %v, want %v", k, ev.Time, ev.Value, want)
			}
		}
	}
}

func TestWindowAggregatorFlushEmitsOpenWindow(t *testing.T) {
	w := &WindowAggregator{Size: 10, Agg: MeanAggregator()}
	var out []Event
	emit := func(ev Event) { out = append(out, ev) }
	w.Process(Event{Time: 1, Key: "k", Value: 5}, emit)
	w.Process(Event{Time: 2, Key: "k", Value: 7}, emit)
	if len(out) != 0 {
		t.Fatal("window fired early")
	}
	w.Flush(emit)
	if len(out) != 1 || out[0].Value != 6 {
		t.Fatalf("flush emitted %v", out)
	}
}

func TestWindowStartAlignment(t *testing.T) {
	if windowStart(25, 10) != 20 {
		t.Error("windowStart(25,10)")
	}
	if windowStart(20, 10) != 20 {
		t.Error("boundary alignment")
	}
	if windowStart(3, 0) != 3 {
		t.Error("degenerate size")
	}
}

func TestMetricsLatency(t *testing.T) {
	g := NewGraph()
	src := g.AddSource("src", func(emit EmitFunc) {
		for i := 0; i < 2000; i++ {
			emit(Event{Time: float64(i), Created: Now()})
		}
	})
	slow := g.AddMap("slow", 1, func(ev Event, emit EmitFunc) {
		emit(ev)
	})
	sink := g.AddSink("sink", nil)
	must(t, g.Connect(src, slow))
	must(t, g.Connect(slow, sink))
	m, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	lats := m.Latencies("sink", 0.15)
	if len(lats) == 0 {
		t.Fatal("no latencies sampled")
	}
	for _, l := range lats {
		if l < 0 {
			t.Fatalf("negative latency %v", l)
		}
	}
	if ml := m.MeanLatency("sink", 0.15); ml < 0 {
		t.Errorf("mean latency %v", ml)
	}
	if len(m.Sinks()) != 1 || m.Sinks()[0] != "sink" {
		t.Errorf("sinks = %v", m.Sinks())
	}
}

func TestMetricsThroughputOverTime(t *testing.T) {
	g, _ := buildLinear(t, 50000, 4, func(ev Event, emit EmitFunc) { emit(ev) })
	m, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	pts := m.ThroughputOverTime("sink", 0)
	if len(pts) == 0 {
		t.Fatal("no throughput buckets")
	}
	var total float64
	for _, p := range pts {
		total += p.PerSecond * 0.1
	}
	// Bucketized totals should reconstruct the event count roughly.
	if total < 0.5*50000 || total > 1.5*50000 {
		t.Errorf("bucketized total = %v", total)
	}
	if m.TotalCount() != 50000 {
		t.Errorf("total = %d", m.TotalCount())
	}
}

func TestBackpressureBoundedChannels(t *testing.T) {
	// A slow sink must not cause unbounded buffering; the source simply
	// blocks. We verify completion with a tiny channel size.
	g := NewGraph()
	g.chanSize = 2
	src := g.AddSource("src", func(emit EmitFunc) {
		for i := 0; i < 300; i++ {
			emit(Event{Time: float64(i)})
		}
	})
	var count int64
	sink := g.AddSink("sink", func(Event) {
		atomic.AddInt64(&count, 1)
	})
	must(t, g.Connect(src, sink))
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 300 {
		t.Errorf("delivered %d", count)
	}
}

// TestFrameAggregatedCountsParity pins the shard-local counter folding:
// sink metrics and node counters are accumulated per frame (one lock or
// atomic op per frame, not per event), and the final totals must be
// identical to per-event accounting for every batch size — including
// the degenerate batch size 1 — with parallel keyed workers racing.
// `make race` runs this under the race detector, which also proves the
// per-frame merges are properly synchronized.
func TestFrameAggregatedCountsParity(t *testing.T) {
	const n = 20000
	for _, batch := range []int{1, 3, 64, 1024} {
		batch := batch
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			g := NewGraph()
			g.SetBatchSize(batch)
			src := g.AddSource("src", func(emit EmitFunc) {
				for i := 0; i < n; i++ {
					emit(Event{Time: float64(i), Key: fmt.Sprintf("k%d", i%31), Created: Now()})
				}
			})
			op := g.AddMap("op", 4, func(ev Event, emit EmitFunc) { emit(ev) })
			var sunk int64
			sink := g.AddSink("sink", func(Event) { atomic.AddInt64(&sunk, 1) })
			must(t, g.ConnectKeyed(src, op))
			must(t, g.Connect(op, sink))
			m, err := g.Run()
			if err != nil {
				t.Fatal(err)
			}
			if sunk != n {
				t.Errorf("sink fn saw %d events, want %d", sunk, n)
			}
			if got := m.Count("sink"); got != n {
				t.Errorf("metrics count = %d, want %d", got, n)
			}
			if got := m.TotalCount(); got != n {
				t.Errorf("metrics total = %d, want %d", got, n)
			}
			if src.Emitted() != n {
				t.Errorf("src emitted = %d, want %d", src.Emitted(), n)
			}
			if op.Processed() != n || op.Emitted() != n {
				t.Errorf("op counters = %d processed / %d emitted, want %d", op.Processed(), op.Emitted(), n)
			}
			if sink.Processed() != n {
				t.Errorf("sink processed = %d, want %d", sink.Processed(), n)
			}
			// Latency sampling cadence is event-indexed, so the sample
			// count is batch-size independent.
			if got := len(m.Latencies("sink", 0)); got != n/16 {
				t.Errorf("latency samples = %d, want %d", got, n/16)
			}
			// Bucketized throughput still reconstructs the event count.
			var total float64
			for _, p := range m.ThroughputOverTime("sink", 0) {
				total += p.PerSecond * 0.1
			}
			if total < 0.99*n || total > 1.01*n {
				t.Errorf("bucketized total = %v, want ~%d", total, n)
			}
		})
	}
}

// TestLatencySamplesBounded: a sink's latency store must not grow with
// the run. 5 M events through a nil sink — the shape of a soundserve shard
// graph — would leave 312 500 samples at the initial every-16th cadence;
// the store instead thins itself and doubles its stride each time it
// fills, so it ends within its bound and still evenly strided: sample j is
// the (j+1)·stride-th event, for one power-of-two multiple of 16. Each
// event's Created is set back by its index times ten minutes (the test
// timeout), so a sample's latency names the event it was taken from.
func TestLatencySamplesBounded(t *testing.T) {
	const n = 5_000_000
	const step = 10 * time.Minute
	g := NewGraph()
	t0 := Now()
	src := g.AddSource("src", func(emit EmitFunc) {
		for i := 0; i < n; i++ {
			emit(Event{Time: float64(i), Created: t0 - int64(i)*int64(step)})
		}
	})
	must(t, g.Connect(src, g.AddSink("out", nil)))
	m, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Count("out"); got != n {
		t.Fatalf("sink count = %d, want %d", got, n)
	}
	ls := m.Latencies("out", 0)
	if len(ls) == 0 || len(ls) > maxLatencySamples {
		t.Fatalf("%d latency samples, want 1..%d", len(ls), maxLatencySamples)
	}
	event := func(lat float64) int { return int(lat / step.Seconds()) }
	stride := event(ls[0]) + 1
	if stride < latencyStride || stride%latencyStride != 0 || stride&(stride-1) != 0 {
		t.Fatalf("first sample is event %d: stride %d is not a power-of-two multiple of %d", stride-1, stride, latencyStride)
	}
	if len(ls) != n/stride || len(ls) < maxLatencySamples/2 {
		t.Errorf("%d samples at stride %d, want %d (and at least half the bound)", len(ls), stride, n/stride)
	}
	for j, lat := range ls {
		if got, want := event(lat), (j+1)*stride-1; got != want {
			t.Fatalf("sample %d is event %d, want %d (stride %d)", j, got, want, stride)
		}
	}
}

// TestEventLayout pins Event to one 64-byte cache line: transport frames
// are slices of events, and the ingest lanes and the shard loops copy
// every event into them.
func TestEventLayout(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 64 {
		t.Fatalf("Event is %d bytes, want 64", got)
	}
}

// TestNowClock: the latency clock never runs backwards and never reads
// 0, the value of an unset Created, and a sink samples no latency from
// an event whose Created is unset. Of 1024 unset events and then 1024
// stamped ones, the every-16th sampling takes the 64 stamped events whose
// ordinal at the sink is a multiple of 16, and nothing else.
func TestNowClock(t *testing.T) {
	prev := Now()
	for i := 0; i < 10000; i++ {
		now := Now()
		if now <= 0 || now < prev {
			t.Fatalf("Now read %d after %d", now, prev)
		}
		prev = now
	}
	g := NewGraph()
	src := g.AddSource("src", func(emit EmitFunc) {
		for i := 0; i < 2048; i++ {
			ev := Event{Time: float64(i)}
			if i >= 1024 {
				ev.Created = Now()
			}
			emit(ev)
		}
	})
	must(t, g.Connect(src, g.AddSink("out", nil)))
	m, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	ls := m.Latencies("out", 0)
	if len(ls) != 1024/latencyStride {
		t.Fatalf("%d latency samples, want %d", len(ls), 1024/latencyStride)
	}
	for _, l := range ls {
		if l < 0 || l > 60 {
			t.Fatalf("latency %v s out of range", l)
		}
	}
}

// TestFrameProcessorReceivesFrames verifies the engine hands whole
// frames to FrameProcessor implementations and that frame delivery
// covers every event exactly once.
func TestFrameProcessorReceivesFrames(t *testing.T) {
	const n = 1000
	g := NewGraph()
	g.SetBatchSize(16)
	src := g.AddSource("src", func(emit EmitFunc) {
		for i := 0; i < n; i++ {
			emit(Event{Time: float64(i), Key: "k"})
		}
	})
	fp := &frameCountingProc{}
	op := g.AddOperator("frames", 1, func() Processor { return fp })
	sink := g.AddSink("sink", nil)
	must(t, g.ConnectKeyed(src, op))
	must(t, g.Connect(op, sink))
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if fp.events != n {
		t.Errorf("frame processor saw %d events, want %d", fp.events, n)
	}
	if fp.perEvent != 0 {
		t.Errorf("engine fell back to Process for %d events", fp.perEvent)
	}
	if want := (n + 15) / 16; fp.frames != want {
		t.Errorf("frame processor saw %d frames, want %d", fp.frames, want)
	}
	if fp.maxFrame > 16 {
		t.Errorf("frame of %d events exceeds batch size 16", fp.maxFrame)
	}
}

type frameCountingProc struct {
	frames, events, maxFrame, perEvent int
}

func (f *frameCountingProc) Process(ev Event, emit EmitFunc) { f.perEvent++; emit(ev) }
func (f *frameCountingProc) ProcessFrame(evs []Event, emit EmitFunc) {
	f.frames++
	f.events += len(evs)
	if len(evs) > f.maxFrame {
		f.maxFrame = len(evs)
	}
	for i := range evs {
		emit(evs[i])
	}
}
func (f *frameCountingProc) Flush(EmitFunc) {}

func BenchmarkEngineThroughput(b *testing.B) {
	g := NewGraph()
	src := g.AddSource("src", func(emit EmitFunc) {
		for i := 0; i < b.N; i++ {
			emit(Event{Time: float64(i), Key: "k"})
		}
	})
	op := g.AddMap("op", 4, func(ev Event, emit EmitFunc) { emit(ev) })
	sink := g.AddSink("sink", nil)
	if err := g.Connect(src, op); err != nil {
		b.Fatal(err)
	}
	if err := g.Connect(op, sink); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := g.Run(); err != nil {
		b.Fatal(err)
	}
}

func TestNodeCounters(t *testing.T) {
	g := NewGraph()
	src := g.AddSource("src", func(emit EmitFunc) {
		for i := 0; i < 1000; i++ {
			emit(Event{Time: float64(i), Value: float64(i)})
		}
	})
	halve := g.AddFilter("halve", 2, func(ev Event) bool { return int(ev.Value)%2 == 0 })
	sink := g.AddSink("sink", nil)
	must(t, g.Connect(src, halve))
	must(t, g.Connect(halve, sink))
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if src.Emitted() != 1000 || src.Processed() != 0 {
		t.Errorf("src counters = %d emitted, %d processed", src.Emitted(), src.Processed())
	}
	if halve.Processed() != 1000 || halve.Emitted() != 500 {
		t.Errorf("halve counters = %d processed, %d emitted", halve.Processed(), halve.Emitted())
	}
	if sink.Processed() != 500 {
		t.Errorf("sink processed = %d", sink.Processed())
	}
	// Counters reset on a second run.
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if src.Emitted() != 1000 {
		t.Errorf("second run src emitted = %d", src.Emitted())
	}
}
