package stream

// This file executes one planned segment (planner.go): a chain of
// fused stages run by a single goroutine per worker. Events move down
// the chain by direct call — per event for plain Processors, in
// micro-frames of up to the transport batch size for FrameProcessors,
// so the FrameProcessor contract (frames never exceed SetBatchSize,
// frame delivery ≡ the per-event loop) holds inside a fused chain
// exactly as it does across a real edge. A fused sink stage records
// into Metrics from the worker goroutine; recordFrame is
// mutex-protected and order-free, which is what makes replicating a
// nil-fn sink into parallel workers legal.
//
// Counters are shard-local per stage and folded into the node atomics
// at end of stream, so lifecycle counts ride through fusion unchanged.

// stage is one fused node's per-worker execution state.
type stage struct {
	node   *Node
	proc   Processor
	fp     FrameProcessor
	ffp    ForwardingFrameProcessor
	sink   bool
	sinkFn func(Event)
	m      *Metrics
	batch  int
	// buf accumulates a pending micro-frame: for FrameProcessor stages
	// events buffered toward a full ProcessFrame call, for sink stages
	// events buffered toward one recordFrame.
	buf frame
	// emit/fwd deliver downstream of this stage (next stage, or the
	// tail outbox), per event and per frame respectively. fwd preserves
	// the same ordering as emitting each event.
	emit EmitFunc
	fwd  func([]Event)
	// Shard-local counters, folded into node atomics by chain.fold.
	processed int64
	emitted   int64
}

// acceptEvent receives one event emitted by the upstream stage.
func (st *stage) acceptEvent(ev Event) {
	if st.fp == nil {
		st.processed++
		st.proc.Process(ev, st.emit)
		return
	}
	st.buf = append(st.buf, ev)
	if len(st.buf) >= st.batch {
		st.fireBuf()
	}
}

// acceptFrame receives a whole frame (head transport delivery or an
// upstream bulk forward), preserving order with any buffered events.
func (st *stage) acceptFrame(evs []Event) {
	if len(evs) == 0 {
		return
	}
	if st.fp == nil {
		st.processed += int64(len(evs))
		for i := range evs {
			st.proc.Process(evs[i], st.emit)
		}
		return
	}
	if len(st.buf) > 0 {
		// Events queued behind the pending micro-frame; chunk so no
		// delivered frame exceeds the batch size.
		for len(evs) > 0 {
			space := st.batch - len(st.buf)
			if space == 0 {
				st.fireBuf()
				continue
			}
			k := space
			if len(evs) < k {
				k = len(evs)
			}
			st.buf = append(st.buf, evs[:k]...)
			evs = evs[k:]
		}
		if len(st.buf) >= st.batch {
			st.fireBuf()
		}
		return
	}
	st.fireFrame(evs)
}

// fireBuf delivers the pending micro-frame.
func (st *stage) fireBuf() {
	if len(st.buf) == 0 {
		return
	}
	st.fireFrame(st.buf)
	st.buf = st.buf[:0]
}

// fireFrame hands one frame to the processor. Pass-through processors
// (ForwardingFrameProcessor) get the engine-side bulk forward: the
// whole frame ships downstream in one call — for the dominant
// checker-forwarding topologies this replaces a per-event emit loop
// with a frame copy (or, into a fused sink, no copy at all).
func (st *stage) fireFrame(evs []Event) {
	st.processed += int64(len(evs))
	if st.ffp != nil {
		st.fwd(evs)
		st.ffp.ProcessFrameForwarded(evs, st.emit)
		return
	}
	st.fp.ProcessFrame(evs, st.emit)
}

// Sink-stage delivery: buffer per-event emissions up to a batch, record
// whole frames directly (no copy).
func (st *stage) sinkEvent(ev Event) {
	st.buf = append(st.buf, ev)
	if len(st.buf) >= st.batch {
		st.sinkFlush()
	}
}

func (st *stage) sinkFrame(evs []Event) {
	if len(evs) == 0 {
		return
	}
	st.sinkFlush()
	st.record(evs)
}

func (st *stage) sinkFlush() {
	if len(st.buf) == 0 {
		return
	}
	st.record(st.buf)
	st.buf = st.buf[:0]
}

func (st *stage) record(evs []Event) {
	st.processed += int64(len(evs))
	st.m.recordFrame(st.node.name, evs)
	if st.sinkFn != nil {
		for i := range evs {
			st.sinkFn(evs[i])
		}
	}
}

// flushPending cascades this stage's pending micro-frame downstream at
// end of stream.
func (st *stage) flushPending() {
	if st.sink {
		st.sinkFlush()
		return
	}
	if st.fp != nil {
		st.fireBuf()
	}
}

// chain is one worker's compiled segment: stages in topological order
// plus the tail outbox for cross-segment edges (nil when the tail is a
// fused sink).
type chain struct {
	src        *Node // segment head when it is a source
	srcEmitted int64
	rootEmit   EmitFunc // handed to a source generator
	stages     []*stage
	ob         *outbox
	headFrame  func([]Event) // transport delivery into the first stage
	done       <-chan struct{}
	tick       uint32 // amortized cancellation poll for sink-fused sources
}

// buildChain instantiates one worker's processors for the segment and
// wires the stage-to-stage delivery closures back to front.
func buildChain(seg *segment, batch int, pool *framePool, done <-chan struct{}, m *Metrics) *chain {
	c := &chain{done: done}
	nodes := seg.nodes
	tail := nodes[len(nodes)-1]
	var emit EmitFunc
	var fwd func([]Event)
	if tail.kind != kindSink {
		c.ob = newOutbox(tail, batch, pool, done)
		emit, fwd = c.ob.emit, c.ob.emitFrame
	}
	for i := len(nodes) - 1; i >= 0; i-- {
		n := nodes[i]
		switch n.kind {
		case kindSink:
			st := &stage{node: n, sink: true, sinkFn: n.sinkFn, m: m, batch: batch, buf: make(frame, 0, batch)}
			c.stages = append([]*stage{st}, c.stages...)
			emit, fwd = st.sinkEvent, st.sinkFrame
		case kindOperator:
			proc := n.newProc()
			st := &stage{node: n, proc: proc, batch: batch}
			st.fp, _ = proc.(FrameProcessor)
			if f, ok := proc.(ForwardingFrameProcessor); ok && f.Forwarding() {
				st.ffp = f
			}
			if st.fp != nil {
				st.buf = make(frame, 0, batch)
			}
			if i == len(nodes)-1 {
				// Tail stage: the outbox counts emitted for this node.
				st.emit, st.fwd = emit, fwd
			} else {
				next, nextF := emit, fwd
				st.emit = func(ev Event) { st.emitted++; next(ev) }
				st.fwd = func(evs []Event) { st.emitted += int64(len(evs)); nextF(evs) }
			}
			c.stages = append([]*stage{st}, c.stages...)
			emit, fwd = st.acceptEvent, st.acceptFrame
		case kindSource:
			c.src = n
			if len(c.stages) == 0 {
				// Source-only segment: the outbox counts for the source.
				c.rootEmit = c.ob.emit
			} else if c.ob == nil {
				// The chain is fused all the way into the sink: no bounded
				// transport anywhere in it can deliver backpressure, so an
				// infinite generator would never observe a dead run.
				// Cancellation is polled here instead, amortized over 256
				// emits.
				next := emit
				c.rootEmit = func(ev Event) {
					if c.tick++; c.tick&255 == 0 {
						select {
						case <-c.done:
							panic(runAborted{})
						default:
						}
					}
					c.srcEmitted++
					next(ev)
				}
			} else {
				next := emit
				c.rootEmit = func(ev Event) { c.srcEmitted++; next(ev) }
			}
		}
	}
	if len(c.stages) > 0 {
		if st := c.stages[0]; st.sink {
			c.headFrame = st.sinkFrame
		} else {
			c.headFrame = st.acceptFrame
		}
	}
	return c
}

// finish is end-of-stream: deliver pending micro-frames and run each
// processor's Flush in chain order, so a Flush's emissions flow through
// the downstream stages before theirs run.
func (c *chain) finish() {
	for _, st := range c.stages {
		st.flushPending()
		if st.proc != nil {
			st.proc.Flush(st.emit)
		}
	}
	if c.ob != nil {
		c.ob.flush()
	}
}

// fold merges all shard-local counters into the node atomics.
func (c *chain) fold() {
	if c.src != nil && c.srcEmitted != 0 {
		c.src.emitted.Add(c.srcEmitted)
		c.srcEmitted = 0
	}
	for _, st := range c.stages {
		if st.processed != 0 {
			st.node.processed.Add(st.processed)
			st.processed = 0
		}
		if st.emitted != 0 {
			st.node.emitted.Add(st.emitted)
			st.emitted = 0
		}
	}
	if c.ob != nil {
		c.ob.fold()
	}
}

// consumeRing drains an exclusive SPSC ring through the chain. Frames
// are processed in place and released back to the producer.
func (c *chain) consumeRing(r *spscRing) {
	for {
		// Abandon queued frames the moment the run dies — a cancelled
		// worker must not drain a full ring through a slow processor.
		select {
		case <-c.done:
			panic(runAborted{})
		default:
		}
		fr, ok := r.pop(c.done)
		if !ok {
			c.finish()
			return
		}
		c.headFrame(fr)
		r.release()
	}
}

// consumeChans drains channel conduits (merged when several) through
// the chain — the fallback transport for fan-in and shared consumers.
func (c *chain) consumeChans(conds []*conduit, chanSize int, pool *framePool) {
	chans := make([]chan frame, len(conds))
	for i, cd := range conds {
		chans[i] = cd.ch
	}
	merged := merge(chans, c.done, chanSize)
	for {
		select {
		case fr, ok := <-merged:
			if !ok {
				c.finish()
				return
			}
			c.headFrame(fr)
			pool.put(fr)
		case <-c.done:
			panic(runAborted{})
		}
	}
}
