// Package stream is a small dataflow engine substituting for Apache Flink
// in the paper's evaluation setup (§VI-A). It executes a DAG of operators
// over event streams with per-operator worker parallelism, bounded
// transport for backpressure, optional key-hash partitioning, and built-in
// throughput/latency measurement at the sinks.
//
// The engine intentionally mirrors the execution shape the paper relies
// on — source → chained operators → sink with 4 parallel worker slots —
// so that the *relative* overhead of instrumenting sanity checks is
// preserved even though absolute numbers differ from a Flink cluster.
//
// Transport is micro-batched: edges carry pooled []Event frames instead
// of single events, so each channel operation, counter update, and
// fan-out pass is amortized over up to SetBatchSize events (DESIGN.md
// §4g). On top of that the run is compiled by a fusion planner
// (planner.go, DESIGN.md §4j): single-consumer chains collapse into one
// goroutine per worker that passes events by direct call, the remaining
// single-producer/single-consumer edges ride bounded SPSC rings with
// in-place frame slots (ring.go), and only multi-producer fan-in still
// uses Go channels. Frame boundaries adapt to downstream occupancy, so
// latency at low rates does not scale with the configured batch size.
// Scheduling choices never change results: outcomes are bit-identical
// with fusion forced on or off.
package stream

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Event is a record flowing through the engine: an event-time timestamp,
// a partitioning key, a value with the SOUND asymmetric uncertainty
// model, and the wall-clock creation time used for latency measurement.
type Event struct {
	Time    float64 // event time (domain units)
	Key     string  // partitioning key ("house:plug", source name, ...)
	Value   float64
	SigUp   float64
	SigDown float64
	Created time.Time // wall-clock emission time at the source
}

// EmitFunc forwards an event to all downstream operators.
type EmitFunc func(Event)

// Processor transforms events. Each worker of an operator owns a private
// Processor instance, so implementations may keep per-worker state
// without locking (keyed partitioning guarantees key-local state).
type Processor interface {
	// Process handles one event, emitting zero or more events.
	Process(ev Event, emit EmitFunc)
	// Flush is called once per worker when the input stream ends.
	Flush(emit EmitFunc)
}

// WorkerIndexed is an optional extension of Processor: the engine calls
// SetWorkerIndex exactly once per worker, after constructing the
// processor and before delivering any event, so stateful operators can
// register with a checkpoint registry under a stable worker slot.
type WorkerIndexed interface {
	SetWorkerIndex(w int)
}

// FrameProcessor is an optional extension of Processor: operators that
// implement it receive whole transport frames and can amortize per-event
// work (group lookups, buffer growth) across the frame. The events of a
// frame arrive in the same order Process would have seen them, so a
// FrameProcessor must behave exactly like the per-event loop
//
//	for i := range evs { p.Process(evs[i], emit) }
//
// and the engine treats the two as interchangeable.
type FrameProcessor interface {
	// ProcessFrame handles one transport frame. The slice is recycled
	// after the call returns and must not be retained.
	ProcessFrame(evs []Event, emit EmitFunc)
}

// ForwardingFrameProcessor is an optional extension of FrameProcessor
// for pass-through operators: implementations whose Forwarding method
// reports true emit every input event unchanged, in input order, before
// any derived emission. The engine then forwards each input frame
// downstream itself — as one bulk append instead of a per-event emit
// loop, and with zero copying into a fused sink — and calls
// ProcessFrameForwarded instead of ProcessFrame. The implementation
// must treat its input as already emitted (it may still emit additional
// derived events via emit). Forwarding is consulted once per worker
// before the first delivery and must be constant for the run.
type ForwardingFrameProcessor interface {
	FrameProcessor
	Forwarding() bool
	// ProcessFrameForwarded is ProcessFrame minus the pass-through
	// emission, which the engine has already performed.
	ProcessFrameForwarded(evs []Event, emit EmitFunc)
}

// ProcessorFunc adapts a stateless function to the Processor interface.
type ProcessorFunc func(ev Event, emit EmitFunc)

// Process implements Processor.
func (f ProcessorFunc) Process(ev Event, emit EmitFunc) { f(ev, emit) }

// Flush implements Processor (no-op).
func (ProcessorFunc) Flush(EmitFunc) {}

// nodeKind discriminates the three node roles.
type nodeKind int8

const (
	kindSource nodeKind = iota
	kindOperator
	kindSink
)

// Node is a vertex of the execution graph.
type Node struct {
	name        string
	kind        nodeKind
	parallelism int
	gen         func(emit EmitFunc)                // sources
	genB        func(emit EmitFunc, b BarrierFunc) // checkpoint sources
	newProc     func() Processor                   // operators
	sinkFn      func(Event)                        // sinks
	downstream  []*edge
	inputs      int // number of upstream edges (for close accounting and fusion legality)
	// emitted counts events sent downstream by this node (all workers).
	// Workers accumulate shard-locally and fold in per frame flush.
	emitted atomic.Int64
	// processed counts events consumed by this node's workers, folded in
	// at barriers and end of stream.
	processed atomic.Int64
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Emitted returns the number of events this node sent downstream during
// the last Run.
func (n *Node) Emitted() int64 { return n.emitted.Load() }

// Processed returns the number of events this node's workers consumed
// during the last Run (0 for sources).
func (n *Node) Processed() int64 { return n.processed.Load() }

// frame is the transport unit: a batch of events moving across one edge
// partition in emission order. Channel frames are pooled per run and
// recycled by the receiving worker; ring frames live in the ring's
// slots and are recycled by position.
type frame = []Event

// conduit is one transport lane of an edge partition: an SPSC ring on
// fusion-planned single-producer/single-consumer edges, a buffered Go
// channel otherwise (the multi-producer/shared-consumer fallback).
type conduit struct {
	ch   chan frame
	ring *spscRing
}

// send delivers a frame on a channel conduit, or reports false if the
// run was aborted while the send was blocked on a full channel, which
// would otherwise deadlock a cancelled graph. Ring conduits use
// reserve/publish instead.
func (cd *conduit) send(fr frame, done <-chan struct{}) bool {
	select {
	case cd.ch <- fr:
		return true
	case <-done:
		return false
	}
}

// close signals end of stream to the conduit's consumer.
func (cd *conduit) close() {
	if cd.ring != nil {
		cd.ring.close()
		return
	}
	close(cd.ch)
}

// edge carries event frames from one node to the workers of the next.
type edge struct {
	from  *Node
	to    *Node
	keyed bool
	// conds has one conduit per target worker when keyed, else a single
	// shared conduit consumed by all target workers. nil when the edge
	// was fused away by the planner.
	conds []*conduit
}

// partition returns the index of the conduit that must carry events
// with the given key, so all events of one key reach the same worker.
func (e *edge) partition(key string) int {
	if !e.keyed || len(e.conds) == 1 {
		return 0
	}
	return int(keyHash(key) % uint64(len(e.conds)))
}

// KeyHash exposes the engine's stable key hash. Anything that routes
// events toward a keyed edge from outside the graph — the ingest
// server's shard fan-in, external partition planning — must use this
// exact function: shard assignment has to agree with keyed-edge
// partitioning bit-for-bit, or a key's events land on a worker that
// does not own (or, after a restore, did not serialize) that key's
// window state.
func KeyHash(key string) uint64 { return keyHash(key) }

// PartitionOf returns the partition in [0, parts) that keyed routing
// assigns to key — the same index edge.partition computes for a keyed
// edge with parts conduits. parts < 2 always yields 0.
func PartitionOf(key string, parts int) int {
	if parts < 2 {
		return 0
	}
	return int(keyHash(key) % uint64(parts))
}

// keyHash is a stable FNV-1a hash with a splitmix64 finalizer. Unlike
// the per-process random seeding of hash/maphash, it assigns every key
// the same worker in every run of every process — a restored checkpoint
// must route each key to the worker whose serialized state holds that
// key's group, so partitioning is part of the persistent state contract.
func keyHash(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// framePool recycles channel-transport frames between receivers (which
// drain them) and senders (which refill them), so a steady-state run
// allocates no per-frame buffers. Ring conduits bypass the pool
// entirely: their slot buffers recycle by ring position.
type framePool struct {
	pool sync.Pool
	size int
}

func newFramePool(size int) *framePool {
	return &framePool{size: size}
}

func (fp *framePool) get() frame {
	if v := fp.pool.Get(); v != nil {
		return (*v.(*frame))[:0]
	}
	return make(frame, 0, fp.size)
}

func (fp *framePool) put(fr frame) {
	if cap(fr) == 0 {
		return
	}
	fr = fr[:0]
	fp.pool.Put(&fr)
}

// outTarget is one (edge, partition) output lane of an outbox.
type outTarget struct {
	cond *conduit
	buf  frame  // channel lane: partial frame being filled (pooled)
	rsv  *frame // ring lane: reserved slot being filled in place
	// cur is the adaptive flush threshold for ring lanes: it starts at 1
	// (first event ships immediately — a slow source must not park its
	// first events behind a full batch), doubles toward the configured
	// batch size while the consumer lags (occupancy above 1 at publish),
	// and halves back when the consumer drains the ring dry. Low-rate
	// latency is therefore not batch-bound, and high-rate throughput
	// still amortizes at full frames.
	cur int
}

// outbox is one worker's private emit state: per-edge, per-partition
// output lanes that flush as frames when full and on worker completion,
// plus a shard-local emitted counter folded into the node's atomic once
// per flush instead of once per event.
type outbox struct {
	n       *Node
	batch   int
	pool    *framePool
	done    <-chan struct{}
	edges   []*edge
	tgts    [][]outTarget // [edge][partition]
	single  *outTarget    // fast path when there is exactly one lane
	emitted int64
}

func newOutbox(n *Node, batch int, pool *framePool, done <-chan struct{}) *outbox {
	ob := &outbox{n: n, batch: batch, pool: pool, done: done, edges: n.downstream}
	ob.tgts = make([][]outTarget, len(n.downstream))
	for i, e := range n.downstream {
		ob.tgts[i] = make([]outTarget, len(e.conds))
		for p := range ob.tgts[i] {
			ob.tgts[i][p] = outTarget{cond: e.conds[p], cur: 1}
		}
	}
	if len(ob.tgts) == 1 && len(ob.tgts[0]) == 1 {
		ob.single = &ob.tgts[0][0]
	}
	return ob
}

// emit is the worker's EmitFunc: append to the per-partition lane and
// ship a frame downstream only when the flush threshold is reached.
// Within one (sender, partition) pair, events stay in emission order,
// so keyed consumers observe the exact per-key sequence the unbatched
// transport delivered.
func (ob *outbox) emit(ev Event) {
	ob.emitted++
	if t := ob.single; t != nil {
		ob.push(t, ev)
		return
	}
	for i, e := range ob.edges {
		ob.push(&ob.tgts[i][e.partition(ev.Key)], ev)
	}
}

// push appends one event to a lane. Ring lanes fill the reserved slot
// in place — no pool traffic, no channel operation; publish makes the
// slot visible when the adaptive threshold is reached.
func (ob *outbox) push(t *outTarget, ev Event) {
	if r := t.cond.ring; r != nil {
		if t.rsv == nil {
			t.rsv = r.reserve(ob.done)
		}
		*t.rsv = append(*t.rsv, ev)
		if len(*t.rsv) >= t.cur {
			ob.shipRing(t, r)
		}
		return
	}
	if t.buf == nil {
		t.buf = ob.pool.get()
	}
	t.buf = append(t.buf, ev)
	if len(t.buf) >= ob.batch {
		ob.ship(t)
	}
}

// emitFrame bulk-emits a whole frame — the engine-side forward for
// pass-through operators. Single-partition lanes take chunked appends
// (a copy per chunk instead of a call per event); keyed multi-partition
// edges still route per event.
func (ob *outbox) emitFrame(evs []Event) {
	if len(evs) == 0 {
		return
	}
	ob.emitted += int64(len(evs))
	if t := ob.single; t != nil {
		ob.pushBulk(t, evs)
		return
	}
	for i, e := range ob.edges {
		if len(ob.tgts[i]) == 1 {
			ob.pushBulk(&ob.tgts[i][0], evs)
			continue
		}
		tg := ob.tgts[i]
		for j := range evs {
			ob.pushInto(&tg[e.partition(evs[j].Key)], evs[j])
		}
	}
}

// pushInto is push without the single-lane indirection (used by the
// multi-partition bulk loop).
func (ob *outbox) pushInto(t *outTarget, ev Event) { ob.push(t, ev) }

func (ob *outbox) pushBulk(t *outTarget, evs []Event) {
	if r := t.cond.ring; r != nil {
		for len(evs) > 0 {
			if t.rsv == nil {
				t.rsv = r.reserve(ob.done)
			}
			space := t.cur - len(*t.rsv)
			if space <= 0 {
				ob.shipRing(t, r)
				continue
			}
			k := space
			if len(evs) < k {
				k = len(evs)
			}
			*t.rsv = append(*t.rsv, evs[:k]...)
			evs = evs[k:]
		}
		if t.rsv != nil && len(*t.rsv) >= t.cur {
			ob.shipRing(t, r)
		}
		return
	}
	for len(evs) > 0 {
		if t.buf == nil {
			t.buf = ob.pool.get()
		}
		space := ob.batch - len(t.buf)
		if space <= 0 {
			ob.ship(t)
			continue
		}
		k := space
		if len(evs) < k {
			k = len(evs)
		}
		t.buf = append(t.buf, evs[:k]...)
		evs = evs[k:]
	}
	if t.buf != nil && len(t.buf) >= ob.batch {
		ob.ship(t)
	}
}

// shipRing publishes the reserved slot and adapts the lane's flush
// threshold to the observed occupancy: a drained ring means the
// consumer is waiting (halve toward 1 for latency), a backlog means it
// is busy (double toward the batch size for throughput).
func (ob *outbox) shipRing(t *outTarget, r *spscRing) {
	occ := r.publish()
	t.rsv = nil
	if occ <= 1 {
		if t.cur > 1 {
			t.cur >>= 1
		}
	} else if t.cur < ob.batch {
		t.cur <<= 1
		if t.cur > ob.batch {
			t.cur = ob.batch
		}
	}
}

// ship sends a full channel-lane frame, panicking with the abort
// sentinel when the run died under a blocked send.
func (ob *outbox) ship(t *outTarget) {
	buf := t.buf
	t.buf = nil
	if !t.cond.send(buf, ob.done) {
		panic(runAborted{})
	}
}

// flush ships every partially filled lane downstream — the
// flush-on-close path that keeps the final events of a stream from
// being stranded. It runs after the worker's Flush, before the worker
// releases its sender slots (so conduits close only after the last
// partial frame is in flight). An aborted run stops flushing but keeps
// unwinding.
func (ob *outbox) flush() {
	for i := range ob.tgts {
		for p := range ob.tgts[i] {
			t := &ob.tgts[i][p]
			if r := t.cond.ring; r != nil {
				if t.rsv != nil && len(*t.rsv) > 0 {
					r.publish()
				}
				t.rsv = nil
				continue
			}
			buf := t.buf
			t.buf = nil
			if len(buf) == 0 {
				continue
			}
			if !t.cond.send(buf, ob.done) {
				return
			}
		}
	}
}

// fold merges the shard-local emitted count into the node's counter. It
// runs deferred so the count survives an aborted worker too.
func (ob *outbox) fold() {
	ob.n.emitted.Add(ob.emitted)
	ob.emitted = 0
}

// Graph is a dataflow topology under construction.
type Graph struct {
	nodes     []*Node
	chanSize  int
	batchSize int
	fuse      bool // on unless SetFusion(false)
	// pool recycles frame buffers across the graph's runs (Run is
	// sequential per graph): ring slots are harvested back into it at
	// the end of each run.
	pool *framePool
}

// NewGraph returns an empty graph. Transport capacity is 256 frames per
// edge partition (ring capacities round up to the next power of two; it
// must stay >= 1 — an unbuffered edge would deadlock the flush-then-token
// barrier protocol); transport batch size defaults to 64 events per
// frame.
func NewGraph() *Graph { return &Graph{chanSize: 256, batchSize: 64, fuse: true} }

// SetBatchSize overrides the transport batch size: the number of events
// accumulated per output buffer before a frame is shipped downstream.
// Size 1 reproduces unbatched per-event delivery exactly (every frame
// carries one event); larger sizes amortize channel sends, counter
// updates, and fan-out over the frame. Within-key delivery order is
// identical for every batch size. Sizes below 1 are rejected: an empty
// frame is the engine's barrier token, so batch size 0 is meaningless
// and silently clamping it would hide a caller bug.
func (g *Graph) SetBatchSize(n int) error {
	if n <= 0 {
		return fmt.Errorf("stream: batch size %d out of range (want >= 1)", n)
	}
	g.batchSize = n
	return nil
}

// AddSource registers a source. gen runs in a single goroutine and emits
// the full stream, returning when exhausted.
func (g *Graph) AddSource(name string, gen func(emit EmitFunc)) *Node {
	n := &Node{name: name, kind: kindSource, parallelism: 1, gen: gen}
	g.nodes = append(g.nodes, n)
	return n
}

// AddOperator registers an operator with the given worker parallelism.
// newProc is called once per worker to create its private state.
func (g *Graph) AddOperator(name string, parallelism int, newProc func() Processor) *Node {
	if parallelism < 1 {
		parallelism = 1
	}
	n := &Node{name: name, kind: kindOperator, parallelism: parallelism, newProc: newProc}
	g.nodes = append(g.nodes, n)
	return n
}

// AddMap registers a stateless operator from a plain function.
func (g *Graph) AddMap(name string, parallelism int, fn func(Event, EmitFunc)) *Node {
	return g.AddOperator(name, parallelism, func() Processor { return ProcessorFunc(fn) })
}

// AddFilter registers an operator passing only events with pred(ev).
func (g *Graph) AddFilter(name string, parallelism int, pred func(Event) bool) *Node {
	return g.AddMap(name, parallelism, func(ev Event, emit EmitFunc) {
		if pred(ev) {
			emit(ev)
		}
	})
}

// AddSink registers a sink. fn is called from a single goroutine —
// unless the planner replicates a nil-fn sink into parallel upstream
// workers, which is only legal because there is no fn to call.
func (g *Graph) AddSink(name string, fn func(Event)) *Node {
	n := &Node{name: name, kind: kindSink, parallelism: 1, sinkFn: fn}
	g.nodes = append(g.nodes, n)
	return n
}

// Connect wires from → to with round-robin (shared-channel) delivery.
func (g *Graph) Connect(from, to *Node) error { return g.connect(from, to, false) }

// ConnectKeyed wires from → to partitioning events by hash of Event.Key,
// so that all events of one key reach the same worker.
func (g *Graph) ConnectKeyed(from, to *Node) error { return g.connect(from, to, true) }

func (g *Graph) connect(from, to *Node, keyed bool) error {
	if from == nil || to == nil {
		return fmt.Errorf("stream: nil node in connect")
	}
	if from.kind == kindSink {
		return fmt.Errorf("stream: sink %q cannot have downstream", from.name)
	}
	if to.kind == kindSource {
		return fmt.Errorf("stream: source %q cannot have upstream", to.name)
	}
	e := &edge{from: from, to: to, keyed: keyed}
	from.downstream = append(from.downstream, e)
	to.inputs++
	return nil
}

// runAborted is the sentinel panic payload that unwinds a worker whose
// emit hit a cancelled run. It never escapes Run.
type runAborted struct{}

// Run executes the graph to completion: all sources exhaust, all events
// drain, all workers flush. It returns aggregated sink metrics.
func (g *Graph) Run() (*Metrics, error) { return g.RunContext(context.Background()) }

// RunContext executes the graph under the context. Cancelling the
// context aborts the run — sources, workers, and sinks unwind even when
// blocked on full or empty conduits or holding half-filled output
// frames, so no goroutines leak — and RunContext returns ctx.Err(). A
// panicking processor likewise aborts the whole graph and surfaces as an
// error instead of a deadlock.
func (g *Graph) RunContext(ctx context.Context) (*Metrics, error) {
	if err := g.validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m := newMetrics()
	if g.pool == nil || g.pool.size != g.batchSize {
		g.pool = newFramePool(g.batchSize)
	}
	pool := g.pool
	segs, _ := g.plan(g.fuse)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := runCtx.Done()
	var (
		errOnce sync.Once
		runErr  error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			runErr = err
			cancel()
		})
	}
	// guard runs a worker body, translating the abort sentinel into a
	// clean return and any other panic into a run-wide failure.
	guard := func(name string, f func()) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(runAborted); ok {
					return
				}
				fail(fmt.Errorf("stream: node %q panicked: %v", name, r))
			}
		}()
		f()
	}

	// Materialize conduits on every cross-segment edge (fused-away edges
	// keep conds == nil: their traffic moves by direct call inside a
	// chain). A conduit is an SPSC ring when the planner can prove the
	// single-producer/single-consumer shape, else a channel.
	segOf := map[*Node]*segment{}
	for _, s := range segs {
		for _, n := range s.nodes {
			segOf[n] = s
		}
	}
	for _, s := range segs {
		tail := s.tail()
		for _, e := range tail.downstream {
			parts := 1
			if e.keyed {
				parts = e.to.parallelism
			}
			e.conds = make([]*conduit, parts)
			ring := ringEligible(e, s.par)
			for i := range e.conds {
				if ring {
					e.conds[i] = &conduit{ring: newSPSCRing(g.chanSize, pool)}
				} else {
					e.conds[i] = &conduit{ch: make(chan frame, g.chanSize)}
				}
			}
		}
	}

	var wg sync.WaitGroup
	// Per-head input accounting: the conduits each segment head's
	// workers read.
	inConds := map[*Node][]*conduit{}
	for _, s := range segs {
		head := s.head()
		if head.kind == kindSource {
			continue
		}
		seen := map[*conduit]bool{}
		for _, up := range g.nodes {
			for _, e := range up.downstream {
				if e.to != head || e.conds == nil {
					continue
				}
				for _, cd := range e.conds {
					if !seen[cd] {
						seen[cd] = true
						inConds[head] = append(inConds[head], cd)
					}
				}
			}
		}
	}

	// Checkpoint-capable graphs get a barrier controller; participant
	// and expected-token counts are fixed by the planned topology.
	var bc *barrierCtl
	var activeSenders map[*conduit]int
	for _, n := range g.nodes {
		if n.genB != nil {
			participants, active, err := g.validateBarriers(segs, inConds)
			if err != nil {
				return nil, err
			}
			bc = newBarrierCtl(participants)
			activeSenders = active
			break
		}
	}

	// Track, per conduit, how many senders feed it so it can be closed
	// when they all finish.
	senders := map[*conduit]*sync.WaitGroup{}
	for _, s := range segs {
		for _, e := range s.tail().downstream {
			for _, cd := range e.conds {
				if senders[cd] == nil {
					senders[cd] = &sync.WaitGroup{}
				}
				senders[cd].Add(s.par)
			}
		}
	}
	var closers sync.WaitGroup
	for cd, swg := range senders {
		closers.Add(1)
		go func(cd *conduit, swg *sync.WaitGroup) {
			defer closers.Done()
			swg.Wait()
			cd.close()
		}(cd, swg)
	}

	doneFor := func(s *segment) func() {
		return func() {
			for _, e := range s.tail().downstream {
				for _, cd := range e.conds {
					senders[cd].Done()
				}
			}
		}
	}

	// Reset per-node counters so repeated Run calls start clean.
	for _, n := range g.nodes {
		n.emitted.Store(0)
		n.processed.Store(0)
	}

	m.start()
	for _, s := range segs {
		s := s
		head := s.head()
		switch head.kind {
		case kindSource:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer doneFor(s)()
				guard(head.name, func() {
					ch := buildChain(s, 0, g.batchSize, pool, done, m)
					defer ch.fold()
					if head.genB != nil {
						head.genB(ch.rootEmit, barrierForChain(bc, ch, done))
					} else {
						head.gen(ch.rootEmit)
					}
					ch.finish()
				})
			}()
		case kindOperator:
			conds := inConds[head]
			if len(conds) == 0 {
				// Disconnected segment: nothing to do, but release
				// sender slots so downstream conduits close.
				for w := 0; w < s.par; w++ {
					doneFor(s)()
				}
				continue
			}
			keyed := keyedInbox(g, head)
			for w := 0; w < s.par; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer doneFor(s)()
					guard(head.name, func() {
						ch := buildChain(s, w, g.batchSize, pool, done, m)
						defer ch.fold()
						// Keyed inputs dedicate conduit w to worker w;
						// shared inputs are consumed cooperatively.
						mine := conds
						if keyed {
							mine = pickWorkerConds(g, head, w)
						}
						expect := expectTokens(mine, activeSenders)
						if len(mine) == 1 && mine[0].ring != nil {
							ch.consumeRing(mine[0].ring, bc, expect)
						} else {
							ch.consumeChans(mine, g.chanSize, pool, bc, expect)
						}
					})
				}()
			}
		case kindSink:
			conds := inConds[head]
			wg.Add(1)
			go func() {
				defer wg.Done()
				guard(head.name, func() {
					ch := buildChain(s, 0, g.batchSize, pool, done, m)
					defer ch.fold()
					expect := expectTokens(conds, activeSenders)
					if len(conds) == 1 && conds[0].ring != nil {
						ch.consumeRing(conds[0].ring, bc, expect)
					} else {
						ch.consumeChans(conds, g.chanSize, pool, bc, expect)
					}
				})
			}()
		}
	}
	wg.Wait()
	closers.Wait()
	m.stop()
	// All goroutines are gone: recycle ring slot buffers for the next run.
	for _, s := range segs {
		for _, e := range s.tail().downstream {
			for _, cd := range e.conds {
				if cd.ring != nil {
					cd.ring.harvest()
				}
			}
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// keyedInbox reports whether all edges into n are keyed.
func keyedInbox(g *Graph, n *Node) bool {
	any := false
	for _, up := range g.nodes {
		for _, e := range up.downstream {
			if e.to == n {
				any = true
				if !e.keyed {
					return false
				}
			}
		}
	}
	return any
}

// pickWorkerConds returns the conduits assigned to worker w of node n
// across all keyed input edges.
func pickWorkerConds(g *Graph, n *Node, w int) []*conduit {
	var out []*conduit
	for _, up := range g.nodes {
		for _, e := range up.downstream {
			if e.to == n && e.keyed && w < len(e.conds) {
				out = append(out, e.conds[w])
			}
		}
	}
	return out
}

// merge fans multiple frame channels into one, abandoning the fan-in
// when the run aborts so the helper goroutines never block on a dead
// consumer. The fan-in buffer respects the graph's configured channel
// capacity.
func merge(chans []chan frame, done <-chan struct{}, capacity int) <-chan frame {
	if len(chans) == 1 {
		return chans[0]
	}
	out := make(chan frame, capacity)
	if len(chans) == 0 {
		close(out)
		return out
	}
	var wg sync.WaitGroup
	for _, c := range chans {
		wg.Add(1)
		go func(c chan frame) {
			defer wg.Done()
			for {
				select {
				case fr, ok := <-c:
					if !ok {
						return
					}
					select {
					case out <- fr:
					case <-done:
						return
					}
				case <-done:
					return
				}
			}
		}(c)
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

func (g *Graph) validate() error {
	names := map[string]bool{}
	hasSource, hasSink := false, false
	for _, n := range g.nodes {
		if names[n.name] {
			return fmt.Errorf("stream: duplicate node name %q", n.name)
		}
		names[n.name] = true
		switch n.kind {
		case kindSource:
			hasSource = true
		case kindSink:
			hasSink = true
		}
	}
	if !hasSource {
		return fmt.Errorf("stream: graph has no source")
	}
	if !hasSink {
		return fmt.Errorf("stream: graph has no sink")
	}
	return nil
}
