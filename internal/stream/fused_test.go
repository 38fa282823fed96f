package stream

import (
	"sync"
	"testing"
	"time"
)

// TestSPSCRingFIFO moves frames through a small ring with interleaved
// produce/consume, exercising wraparound, and verifies frames arrive in
// order with their contents intact.
func TestSPSCRingFIFO(t *testing.T) {
	r := newSPSCRing(4, newFramePool(8))
	done := make(chan struct{})
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			s := r.reserve(done)
			*s = append(*s, Event{Time: float64(round), Value: float64(i)})
			r.publish()
		}
		for i := 0; i < 3; i++ {
			fr, ok := r.pop(done)
			if !ok {
				t.Fatalf("round %d: ring closed early", round)
			}
			if len(fr) != 1 || fr[0].Time != float64(round) || fr[0].Value != float64(i) {
				t.Fatalf("round %d frame %d: got %+v", round, i, fr)
			}
			r.release()
		}
	}
}

// TestSPSCRingClose verifies close-and-drain semantics: frames published
// before close are still delivered, then pop reports end of stream.
func TestSPSCRingClose(t *testing.T) {
	r := newSPSCRing(8, newFramePool(4))
	done := make(chan struct{})
	for i := 0; i < 3; i++ {
		s := r.reserve(done)
		*s = append(*s, Event{Value: float64(i)})
		r.publish()
	}
	r.close()
	for i := 0; i < 3; i++ {
		fr, ok := r.pop(done)
		if !ok || fr[0].Value != float64(i) {
			t.Fatalf("frame %d after close: ok=%v fr=%v", i, ok, fr)
		}
		r.release()
	}
	if _, ok := r.pop(done); ok {
		t.Error("pop on closed drained ring reported a frame")
	}
}

// TestSPSCRingBlocksWhenFull verifies the producer parks on a full ring
// and resumes when the consumer releases a slot.
func TestSPSCRingBlocksWhenFull(t *testing.T) {
	r := newSPSCRing(2, newFramePool(4))
	done := make(chan struct{})
	for i := 0; i < 2; i++ {
		s := r.reserve(done)
		*s = append(*s, Event{Value: float64(i)})
		r.publish()
	}
	unblocked := make(chan struct{})
	go func() {
		s := r.reserve(done) // must block until a release
		*s = append(*s, Event{Value: 2})
		r.publish()
		close(unblocked)
	}()
	select {
	case <-unblocked:
		t.Fatal("reserve did not block on a full ring")
	case <-time.After(20 * time.Millisecond):
	}
	if _, ok := r.pop(done); !ok {
		t.Fatal("pop failed on full ring")
	}
	r.release()
	select {
	case <-unblocked:
	case <-time.After(2 * time.Second):
		t.Fatal("reserve did not resume after a release")
	}
}

// TestSPSCRingAbort verifies that both sides unwind with the run-abort
// sentinel when the done channel closes mid-wait, instead of spinning
// forever — the property the cancellation tests rely on.
func TestSPSCRingAbort(t *testing.T) {
	expectAbort := func(name string, f func()) {
		defer func() {
			if r := recover(); r == nil {
				t.Errorf("%s: no abort panic", name)
			} else if _, ok := r.(runAborted); !ok {
				t.Errorf("%s: panic %v, want runAborted", name, r)
			}
		}()
		f()
	}
	done := make(chan struct{})
	close(done)
	full := newSPSCRing(1, newFramePool(4))
	full.reserve(done)
	full.publish()
	expectAbort("reserve on full ring", func() { full.reserve(done) })
	empty := newSPSCRing(1, newFramePool(4))
	expectAbort("pop on empty ring", func() { empty.pop(done) })
}

// fusionTopology builds src → norm(2) → agg(2) → sink: the norm→agg
// edge is non-keyed between equal-parallelism operators, so the planner
// fuses it, while src→norm stays real keyed transport and agg→sink is a
// channel fan-in into a single sink goroutine (fn non-nil blocks
// replication). Returns the graph and the nodes plus a counter of what
// the sink saw.
func fusionTopology(n int) (*Graph, *Node, *Node, *Node, *int64, *sync.Mutex) {
	g := NewGraph()
	src := g.AddSource("src", func(emit EmitFunc) {
		for i := 0; i < n; i++ {
			emit(Event{Time: float64(i), Key: []string{"a", "b", "c"}[i%3], Value: 1})
		}
	})
	norm := g.AddMap("norm", 2, func(ev Event, emit EmitFunc) {
		ev.Value *= 2
		emit(ev)
	})
	agg := g.AddFilter("agg", 2, func(ev Event) bool { return int(ev.Time)%2 == 0 })
	var mu sync.Mutex
	var sum int64
	sink := g.AddSink("sink", func(ev Event) {
		mu.Lock()
		sum += int64(ev.Value)
		mu.Unlock()
	})
	if err := g.ConnectKeyed(src, norm); err != nil {
		panic(err)
	}
	if err := g.Connect(norm, agg); err != nil {
		panic(err)
	}
	if err := g.Connect(agg, sink); err != nil {
		panic(err)
	}
	return g, norm, agg, sink, &sum, &mu
}

// TestFusionParityCounts runs the same mixed topology (one fused
// operator pair, one keyed edge, one fan-in sink edge) with the planner
// forced on and off, and requires identical sink totals and identical
// lifecycle counters — fusion is a scheduling choice, never a semantic
// one.
func TestFusionParityCounts(t *testing.T) {
	const n = 3000
	type result struct {
		sum                        int64
		count                      int64
		normProc, normEmit         int64
		aggProc, aggEmit, sinkProc int64
	}
	run := func(fuse bool) result {
		g, norm, agg, sink, sum, mu := fusionTopology(n)
		g.SetFusion(fuse)
		m, err := g.Run()
		if err != nil {
			t.Fatalf("fuse=%v: %v", fuse, err)
		}
		mu.Lock()
		defer mu.Unlock()
		return result{
			sum: *sum, count: m.Count("sink"),
			normProc: norm.Processed(), normEmit: norm.Emitted(),
			aggProc: agg.Processed(), aggEmit: agg.Emitted(),
			sinkProc: sink.Processed(),
		}
	}
	fused, unfused := run(true), run(false)
	if fused != unfused {
		t.Errorf("fused run %+v != unfused run %+v", fused, unfused)
	}
	want := result{
		sum: n, count: n / 2,
		normProc: n, normEmit: n,
		aggProc: n, aggEmit: n / 2,
		sinkProc: n / 2,
	}
	if fused != want {
		t.Errorf("run = %+v, want %+v", fused, want)
	}
}

// TestFusedChainCounters pins exact lifecycle counters through a fully
// fused chain with a replicated nil-fn sink: four parallel workers each
// run source-partitioned check+sink stages, and the shard-local counter
// folds must still add up exactly.
func TestFusedChainCounters(t *testing.T) {
	const n = 2000
	g := NewGraph()
	g.SetFusion(true)
	src := g.AddSource("src", func(emit EmitFunc) {
		for i := 0; i < n; i++ {
			emit(Event{Time: float64(i), Key: []string{"w", "x", "y", "z"}[i%4]})
		}
	})
	op := g.AddFilter("halve", 4, func(ev Event) bool { return int(ev.Time)%2 == 0 })
	sink := g.AddSink("sink", nil)
	must(t, g.ConnectKeyed(src, op))
	must(t, g.Connect(op, sink))
	m, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := src.Emitted(); got != n {
		t.Errorf("src emitted %d, want %d", got, n)
	}
	if got := op.Processed(); got != n {
		t.Errorf("op processed %d, want %d", got, n)
	}
	if got := op.Emitted(); got != n/2 {
		t.Errorf("op emitted %d, want %d", got, n/2)
	}
	if got := sink.Processed(); got != n/2 {
		t.Errorf("sink processed %d, want %d", got, n/2)
	}
	if got := m.Count("sink"); got != n/2 {
		t.Errorf("sink count %d, want %d", got, n/2)
	}
}

// TestAdaptiveBatchingLatency: with a batch size far larger than the
// stream and a slow trickle source, a fixed-threshold outbox would park
// every event until end of stream; the occupancy-adaptive ring flush
// must ship them almost immediately, keeping mean latency orders of
// magnitude below the run duration. Fusion is forced off so the events
// actually cross ring transport.
func TestAdaptiveBatchingLatency(t *testing.T) {
	const n = 64
	g := NewGraph()
	g.SetFusion(false)
	g.SetBatchSize(4096)
	start := time.Now()
	src := g.AddSource("src", func(emit EmitFunc) {
		for i := 0; i < n; i++ {
			time.Sleep(time.Millisecond)
			emit(Event{Time: float64(i), Key: "k", Created: time.Now()})
		}
	})
	op := g.AddMap("fwd", 1, func(ev Event, emit EmitFunc) { emit(ev) })
	must(t, g.ConnectKeyed(src, op))
	must(t, g.Connect(op, g.AddSink("sink", nil)))
	m, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if got := m.Count("sink"); got != n {
		t.Fatalf("sink saw %d events, want %d", got, n)
	}
	lats := m.Latencies("sink", 0)
	if len(lats) == 0 {
		t.Fatal("no latency samples recorded")
	}
	mean := m.MeanLatency("sink", 0)
	// A batch-bound outbox would hold the first events for most of the
	// ~64ms run; adaptive flushing keeps per-event latency in the
	// microsecond range. The bound is generous for noisy CI machines.
	if limit := elapsed.Seconds() / 4; mean >= limit {
		t.Errorf("mean latency %.1fms not ≪ run duration %.1fms (batch-bound flush?)",
			mean*1e3, elapsed.Seconds()*1e3)
	}
}
