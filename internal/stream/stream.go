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
// There is one executor: every node worker is a goroutine, and every
// edge partition is a bounded channel of frames — pooled []Event slices
// of exactly SetBatchSize events, the last one of a worker's stream
// shipped when the worker ends — so each channel operation, counter
// update and fan-out pass is amortized over a frame (DESIGN.md §4g,
// §4j). Within one (sender, partition) pair events keep emission order,
// so results do not depend on the batch size.
package stream

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Event is a record flowing through the engine: an event-time timestamp,
// a partitioning key and its hash, a value with the SOUND asymmetric
// uncertainty model, and the creation time used for latency measurement.
// It is 64 bytes, one cache line, with one pointer (the key's).
type Event struct {
	Time float64 // event time (domain units)
	Key  string  // partitioning key ("house:plug", source name, ...)
	// Hash is KeyHash(Key) as a decoder computed it, or 0 when nothing
	// did; read it through (*Event).KeyHash. Code that changes Key must
	// set Hash to 0 (or to the new key's hash).
	Hash    uint64
	Value   float64
	SigUp   float64
	SigDown float64
	Created int64 // emission time at the source on the Now clock; 0 when unset
}

// KeyHash returns KeyHash(ev.Key): the carried Hash when a decoder set
// it, else the hash computed here. The shard router, the check
// operator's group table and the window seed all read the key's hash
// through it, so a decoded event's key is hashed once.
func (ev *Event) KeyHash() uint64 {
	if ev.Hash != 0 {
		return ev.Hash
	}
	return keyHash(ev.Key)
}

// epoch is the origin of the Now clock.
var epoch = time.Now()

// Now returns the engine's latency clock: nanoseconds since a
// process-local origin, read from the monotonic clock, so it never runs
// backwards and is never 0 (the unset Event.Created). Sources stamp
// Created with it; the sinks' latency recorder reads it again.
func Now() int64 { return int64(time.Since(epoch)) + 1 }

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
	gen         func(emit EmitFunc) // sources
	newProc     func() Processor    // operators
	sinkFn      func(Event)         // sinks
	downstream  []*edge
	// emitted counts events sent downstream by this node (all workers),
	// folded in from each worker's outbox when the worker ends.
	emitted atomic.Int64
	// processed counts events consumed by this node's workers, one add
	// per frame.
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
// partition in emission order. Frames are pooled per graph and recycled
// by the receiving worker.
type frame = []Event

// edge carries event frames from one node to the workers of the next.
type edge struct {
	from  *Node
	to    *Node
	keyed bool
	// chans has one channel per target worker when keyed, else a single
	// channel shared by all target workers; made fresh for every run.
	chans []chan frame
	// open counts the workers of from still sending; the last one to
	// finish closes chans.
	open atomic.Int32
}

// release is called once by each worker of e.from when it stops sending.
func (e *edge) release() {
	if e.open.Add(-1) == 0 {
		for _, ch := range e.chans {
			close(ch)
		}
	}
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
// assigns to key — the channel a keyed edge with parts target workers
// carries it on. parts < 2 always yields 0.
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

// framePool recycles transport frames between receivers (which drain
// them) and senders (which refill them), so a steady-state run allocates
// no per-frame buffers.
type framePool struct {
	pool sync.Pool
	size int
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

// outbox is one worker's private emit state: a partial frame per
// (out-edge, partition) that ships when it holds batch events and at
// worker end, plus a worker-local emitted counter folded into the node's
// atomic once, when the worker ends.
type outbox struct {
	n       *Node
	pool    *framePool // its size is the batch size
	done    <-chan struct{}
	bufs    [][]frame // [edge][partition]
	emitted int64
}

func newOutbox(n *Node, pool *framePool, done <-chan struct{}) *outbox {
	ob := &outbox{n: n, pool: pool, done: done, bufs: make([][]frame, len(n.downstream))}
	for i, e := range n.downstream {
		ob.bufs[i] = make([]frame, len(e.chans))
	}
	return ob
}

// emit is the worker's EmitFunc: append the event to its partition's
// frame on every out-edge, shipping each frame that fills.
func (ob *outbox) emit(ev Event) {
	ob.emitted++
	for i, e := range ob.n.downstream {
		p := PartitionOf(ev.Key, len(e.chans))
		buf := ob.bufs[i][p]
		if buf == nil {
			buf = ob.pool.get()
		}
		if buf = append(buf, ev); len(buf) == ob.pool.size {
			ob.send(e.chans[p], buf)
			buf = nil
		}
		ob.bufs[i][p] = buf
	}
}

// send hands a frame downstream. A send blocked on a full channel of a
// dead run unwinds the worker with the abort sentinel instead of
// deadlocking it; the frame is dropped.
func (ob *outbox) send(ch chan frame, fr frame) {
	select {
	case ch <- fr:
	case <-ob.done:
		panic(runAborted{})
	}
}

// flush ships every partial frame — the end-of-stream path that keeps a
// worker's last events from being stranded. It runs after the worker's
// Flush and before the worker releases its out-edges, so channels close
// only after the last frame is in flight.
func (ob *outbox) flush() {
	for i, e := range ob.n.downstream {
		for p, buf := range ob.bufs[i] {
			if len(buf) > 0 {
				ob.bufs[i][p] = nil
				ob.send(e.chans[p], buf)
			}
		}
	}
}

// fold merges the worker-local emitted count into the node's counter. It
// runs deferred so the count survives an aborted worker too.
func (ob *outbox) fold() { ob.n.emitted.Add(ob.emitted) }

// Graph is a dataflow topology under construction.
type Graph struct {
	nodes     []*Node
	chanSize  int
	batchSize int
	// pool recycles frame buffers across the graph's runs (Run is
	// sequential per graph).
	pool *framePool
}

// NewGraph returns an empty graph. Transport capacity is 256 frames per
// edge partition, enough to keep a worker busy through another's
// scheduling gap; transport batch size defaults to 64 events per frame.
func NewGraph() *Graph { return &Graph{chanSize: 256, batchSize: 64} }

// SetBatchSize overrides the transport batch size: the number of events
// accumulated per output buffer before a frame is shipped downstream.
// Size 1 reproduces unbatched per-event delivery exactly (every frame
// carries one event); larger sizes amortize channel sends, counter
// updates, and fan-out over the frame. Within-key delivery order is
// identical for every batch size. Sizes below 1 are rejected: a frame
// that can hold no event ships nothing, and silently clamping it would
// hide a caller bug.
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

// AddSink registers a sink. fn (which may be nil) is called from a
// single goroutine.
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
	from.downstream = append(from.downstream, &edge{from: from, to: to, keyed: keyed})
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
// blocked on full or empty channels or holding half-filled output
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
		g.pool = &framePool{size: g.batchSize}
	}
	pool := g.pool

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

	// Fresh channels and counters on every edge; inputs lists each node's
	// upstream edges.
	inputs := map[*Node][]*edge{}
	for _, n := range g.nodes {
		n.emitted.Store(0)
		n.processed.Store(0)
		for _, e := range n.downstream {
			parts := 1
			if e.keyed {
				parts = e.to.parallelism
			}
			e.chans = make([]chan frame, parts)
			for i := range e.chans {
				e.chans[i] = make(chan frame, g.chanSize)
			}
			e.open.Store(int32(n.parallelism))
			inputs[e.to] = append(inputs[e.to], e)
		}
	}
	// in merges the channels worker w of n reads: its own partition of
	// every keyed input edge, and the shared channel of every other one.
	in := func(n *Node, w int) <-chan frame {
		var chans []chan frame
		for _, e := range inputs[n] {
			if e.keyed {
				chans = append(chans, e.chans[w])
			} else {
				chans = append(chans, e.chans[0])
			}
		}
		return merge(chans, done, g.chanSize)
	}

	var wg sync.WaitGroup
	// start runs one worker of n: a panic other than the abort sentinel
	// fails the run, and on every path the worker releases its out-edges.
	start := func(n *Node, body func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				for _, e := range n.downstream {
					e.release()
				}
			}()
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(runAborted); !ok {
						fail(fmt.Errorf("stream: node %q panicked: %v", n.name, r))
					}
				}
			}()
			body()
		}()
	}

	m.start()
	for _, n := range g.nodes {
		switch n.kind {
		case kindSource:
			start(n, func() {
				ob := newOutbox(n, pool, done)
				defer ob.fold()
				n.gen(ob.emit)
				ob.flush()
			})
		case kindOperator:
			for w := 0; w < n.parallelism; w++ {
				frames := in(n, w)
				start(n, func() {
					ob := newOutbox(n, pool, done)
					defer ob.fold()
					emit := EmitFunc(ob.emit)
					proc := n.newProc()
					fp, _ := proc.(FrameProcessor)
					consume(frames, done, pool, func(fr frame) {
						n.processed.Add(int64(len(fr)))
						if fp != nil {
							fp.ProcessFrame(fr, emit)
							return
						}
						for i := range fr {
							proc.Process(fr[i], emit)
						}
					})
					proc.Flush(emit)
					ob.flush()
				})
			}
		case kindSink:
			frames := in(n, 0)
			start(n, func() {
				consume(frames, done, pool, func(fr frame) {
					n.processed.Add(int64(len(fr)))
					m.recordFrame(n.name, fr)
					if n.sinkFn != nil {
						for i := range fr {
							n.sinkFn(fr[i])
						}
					}
				})
			})
		}
	}
	wg.Wait()
	m.stop()
	if runErr != nil {
		return nil, runErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// consume hands every frame of in to deliver and recycles it, returning
// when in closes; a dead run unwinds it with the abort sentinel.
func consume(in <-chan frame, done <-chan struct{}, pool *framePool, deliver func(frame)) {
	for {
		select {
		case fr, ok := <-in:
			if !ok {
				return
			}
			deliver(fr)
			pool.put(fr)
		case <-done:
			panic(runAborted{})
		}
	}
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

// validate rejects a graph Run could not finish correctly: duplicate
// names, no source or sink, an edge into a node of another graph (its
// events would go nowhere), and a cycle (a node on one feeds its own
// input, which then never closes).
func (g *Graph) validate() error {
	names := map[string]bool{}
	mine := map[*Node]bool{}
	hasSource, hasSink := false, false
	for _, n := range g.nodes {
		if names[n.name] {
			return fmt.Errorf("stream: duplicate node name %q", n.name)
		}
		names[n.name] = true
		mine[n] = true
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
	for _, n := range g.nodes {
		for _, e := range n.downstream {
			if !mine[e.to] {
				return fmt.Errorf("stream: node %q is connected to node %q of another graph", n.name, e.to.name)
			}
		}
	}
	// Depth-first search: reaching a node still on the path closes a cycle.
	const onPath, finished = 1, 2
	state := map[*Node]int8{}
	var visit func(n *Node) *Node
	visit = func(n *Node) *Node {
		state[n] = onPath
		for _, e := range n.downstream {
			switch state[e.to] {
			case onPath:
				return e.to
			case 0:
				if c := visit(e.to); c != nil {
					return c
				}
			}
		}
		state[n] = finished
		return nil
	}
	for _, n := range g.nodes {
		if state[n] == 0 {
			if c := visit(n); c != nil {
				return fmt.Errorf("stream: cycle through node %q", c.name)
			}
		}
	}
	return nil
}
