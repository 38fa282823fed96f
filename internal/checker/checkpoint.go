package checker

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"sound/internal/checkpoint"
	"sound/internal/core"
	"sound/internal/resample"
	"sound/internal/series"
)

// This file is the checker's half of the deterministic state lifecycle
// (DESIGN.md §4i): the StreamRegistry that makes the online operator
// checkpointable, the per-worker state codec, and the batch Suite's
// checkpoint/resume. The invariant everywhere is bit parity: a restored
// run must produce the byte-identical outcome sequence an uninterrupted
// run produces, which is why the codec carries exact float bits and the
// LRU order instead of approximations that would merely "look right" —
// and why it carries no RNG position: a window's draws are seeded from
// the window itself, so there is none to resume.

// StreamRegistry connects one checkpointable stream-check operator to
// the snapshot machinery: workers register themselves under their
// engine-assigned slot, EncodeTo serializes every registered worker at
// a stream barrier, and a payload loaded with DecodeFrom is applied to
// each worker of a fresh graph as it registers.
type StreamRegistry struct {
	mu      sync.Mutex
	out     *StreamOutcomes
	workers map[int]*streamChecker
	pending map[int][]byte
	// pendingOut holds counters decoded before the operator bound its
	// accumulator (DecodeFrom may legitimately run before
	// NewStreamChecker); bind applies them.
	pendingOut *StreamOutcomes
}

// NewStreamRegistry returns an empty registry. Pass it (with the same
// StreamCheck.Out) to exactly one NewStreamChecker call.
func NewStreamRegistry() *StreamRegistry {
	return &StreamRegistry{workers: map[int]*streamChecker{}, pending: map[int][]byte{}}
}

func (r *StreamRegistry) bind(out *StreamOutcomes) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.out = out
	if r.pendingOut != nil && out != nil {
		out.copyFrom(r.pendingOut)
		r.pendingOut = nil
	}
}

// register attaches a worker under its slot (latest wins, so graph
// re-runs replace stale entries) and applies any pending restore
// payload before the worker sees its first event. A corrupt payload
// panics: the engine's guard surfaces it as a run error, and silently
// starting from empty state would break bit parity.
func (r *StreamRegistry) register(w int, c *streamChecker) {
	r.mu.Lock()
	payload, ok := r.pending[w]
	delete(r.pending, w)
	r.workers[w] = c
	r.mu.Unlock()
	if ok {
		if err := c.decodeState(checkpoint.NewRawDecoder(payload)); err != nil {
			panic(fmt.Errorf("checker: restoring stream worker %d: %w", w, err))
		}
	}
}

// EncodeTo serializes the registered workers. Call it only while the
// graph is quiescent — at a stream barrier (the snapshot callback of
// stream.BarrierFunc) or after the run completed.
func (r *StreamRegistry) EncodeTo(enc *checkpoint.Encoder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := make([]int, 0, len(r.workers))
	for w := range r.workers {
		idx = append(idx, w)
	}
	sort.Ints(idx)
	enc.Int(len(idx))
	for _, w := range idx {
		enc.Int(w)
		we := checkpoint.NewRawEncoder()
		r.workers[w].encodeState(we)
		enc.Bytes(we.Finish())
	}
	if r.out != nil {
		enc.Bool(true)
		r.out.encodeTo(enc)
	} else {
		enc.Bool(false)
	}
}

// DecodeFrom loads a serialized registry. Worker payloads are held
// pending and applied as the restored graph's workers register; the
// outcome counters are restored immediately so the resumed run's totals
// continue from the snapshot.
func (r *StreamRegistry) DecodeFrom(dec *checkpoint.Decoder) error {
	n := dec.Int()
	pending := map[int][]byte{}
	for i := 0; i < n; i++ {
		w := dec.Int()
		payload := dec.Bytes()
		// Copy: Bytes aliases the caller's buffer, which may be reused.
		pending[w] = append([]byte(nil), payload...)
	}
	hasOut := dec.Bool()
	var so StreamOutcomes
	if hasOut {
		if err := so.decodeFrom(dec); err != nil {
			return err
		}
	}
	if err := dec.Err(); err != nil {
		return err
	}
	r.mu.Lock()
	r.pending = pending
	r.workers = map[int]*streamChecker{}
	r.pendingOut = nil
	if hasOut {
		if r.out != nil {
			r.out.copyFrom(&so)
		} else {
			r.pendingOut = &so
		}
	}
	r.mu.Unlock()
	return nil
}

// LiveGroups sums the live group count across registered workers.
// Callers must not race the worker goroutines (call after the run or
// inside a barrier).
func (r *StreamRegistry) LiveGroups() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := 0
	for _, c := range r.workers {
		total += len(c.groups)
	}
	return total
}

// encodeTo writes the outcome and lifecycle counters.
func (so *StreamOutcomes) encodeTo(enc *checkpoint.Encoder) {
	enc.U64(uint64(so.satisfied.Load()))
	enc.U64(uint64(so.violated.Load()))
	enc.U64(uint64(so.inconclusive.Load()))
	enc.U64(uint64(so.evictedGroups.Load()))
	enc.U64(uint64(so.droppedLate.Load()))
	enc.U64(uint64(so.rejectedEvents.Load()))
}

// decodeFrom reads the counters written by encodeTo.
func (so *StreamOutcomes) decodeFrom(dec *checkpoint.Decoder) error {
	so.satisfied.Store(int64(dec.U64()))
	so.violated.Store(int64(dec.U64()))
	so.inconclusive.Store(int64(dec.U64()))
	so.evictedGroups.Store(int64(dec.U64()))
	so.droppedLate.Store(int64(dec.U64()))
	so.rejectedEvents.Store(int64(dec.U64()))
	return dec.Err()
}

// copyFrom overwrites the counters with another accumulator's values.
func (so *StreamOutcomes) copyFrom(src *StreamOutcomes) {
	so.satisfied.Store(src.satisfied.Load())
	so.violated.Store(src.violated.Load())
	so.inconclusive.Store(src.inconclusive.Load())
	so.evictedGroups.Store(src.evictedGroups.Load())
	so.droppedLate.Store(src.droppedLate.Load())
	so.rejectedEvents.Store(src.rejectedEvents.Load())
}

// SetWorkerIndex implements stream.WorkerIndexed: the engine announces
// the worker's slot before the first event, which is when a pending
// restore payload (if any) is applied.
func (c *streamChecker) SetWorkerIndex(w int) {
	if c.reg != nil {
		c.reg.register(w, c)
	}
}

// encodeState serializes one worker: the watermark and the live groups
// in LRU order (coldest first), so decode rebuilds the identical recency
// list by re-inserting in order. No random state is written because none
// outlives a window: every window's draws are reseeded from its own
// coordinate (streamChecker.evaluate), so a restored worker draws what an
// uninterrupted one would.
func (c *streamChecker) encodeState(enc *checkpoint.Encoder) {
	enc.F64(c.opWatermark)
	n := 0
	for g := c.lruTail; g != nil; g = g.prev {
		n++
	}
	enc.Int(n)
	for g := c.lruTail; g != nil; g = g.prev {
		g.encodeTo(enc)
	}
}

// decodeState restores a worker serialized by encodeState. It must run
// before the worker processes any event.
func (c *streamChecker) decodeState(dec *checkpoint.Decoder) error {
	c.opWatermark = dec.F64()
	n := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		g := &groupState{}
		if err := g.decodeFrom(dec, c.arity, c.useExt()); err != nil {
			return err
		}
		if c.groups[g.key] != nil {
			return fmt.Errorf("checker: duplicate group %q in snapshot", g.key)
		}
		c.groups[g.key] = g
		c.lruPushFront(g) // encode order is coldest → hottest
		if c.trackBytes() {
			g.bytes = g.footprint()
			c.liveBytes += g.bytes
		}
	}
	if rem := dec.Remaining(); rem != 0 {
		return fmt.Errorf("checker: %d trailing bytes in worker snapshot", rem)
	}
	return dec.Err()
}

// encodeSeries writes one point buffer (4 float64 per point).
func encodeSeries(enc *checkpoint.Encoder, s series.Series) {
	enc.Int(len(s))
	for _, p := range s {
		enc.F64(p.T)
		enc.F64(p.V)
		enc.F64(p.SigUp)
		enc.F64(p.SigDown)
	}
}

// decodeSeries reads one point buffer.
func decodeSeries(dec *checkpoint.Decoder) series.Series {
	n := dec.Int()
	if dec.Err() != nil || n*32 > dec.Remaining() {
		return nil
	}
	s := make(series.Series, 0, n)
	for i := 0; i < n; i++ {
		s = append(s, series.Point{T: dec.F64(), V: dec.F64(), SigUp: dec.F64(), SigDown: dec.F64()})
	}
	return s
}

// encodeSeriesSet writes a per-input buffer set, preserving nil-ness
// (several hot paths use "== nil" as the allocation marker).
func encodeSeriesSet(enc *checkpoint.Encoder, set []series.Series) {
	if set == nil {
		enc.Bool(false)
		return
	}
	enc.Bool(true)
	enc.Int(len(set))
	for _, s := range set {
		encodeSeries(enc, s)
	}
}

// decodeSeriesSet reads a per-input buffer set.
func decodeSeriesSet(dec *checkpoint.Decoder, arity int) ([]series.Series, error) {
	if !dec.Bool() {
		return nil, dec.Err()
	}
	n := dec.Int()
	if n != arity {
		if err := dec.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("checker: snapshot has %d buffer slots, operator arity is %d", n, arity)
	}
	set := make([]series.Series, n)
	for i := range set {
		set[i] = decodeSeries(dec)
	}
	return set, dec.Err()
}

// encodeTo serializes one window group.
func (g *groupState) encodeTo(enc *checkpoint.Encoder) {
	enc.String(g.key)
	enc.F64(g.lastT)
	enc.Bool(g.hasOrigin)
	enc.F64(g.origin)
	enc.F64(g.nextStart)
	enc.Bool(g.fired)
	enc.F64(g.watermark)
	encodeSeriesSet(enc, g.raw)
	encodeSeriesSet(enc, g.bufs)
	encodeSeriesSet(enc, g.pend)
	if g.drop == nil {
		enc.Bool(false)
	} else {
		enc.Bool(true)
		enc.Ints(g.drop)
	}
	enc.Int(g.nextIdx)
	if g.ext == nil {
		enc.Bool(false)
	} else {
		enc.Bool(true)
		enc.Int(len(g.ext))
		for i := range g.ext {
			g.ext[i].EncodeTo(enc)
		}
	}
	enc.F64(g.sessStart)
	enc.F64(g.sessPrev)
	enc.Bool(g.sessOpen)
}

// decodeFrom restores one window group. useExt mirrors the operator's
// evaluation mode: a SOUND snapshot restored into a naive operator (or
// vice versa) is a configuration mismatch, surfaced as an error.
func (g *groupState) decodeFrom(dec *checkpoint.Decoder, arity int, useExt bool) error {
	g.key = dec.String()
	g.lastT = dec.F64()
	g.hasOrigin = dec.Bool()
	g.origin = dec.F64()
	g.nextStart = dec.F64()
	g.fired = dec.Bool()
	g.watermark = dec.F64()
	var err error
	if g.raw, err = decodeSeriesSet(dec, arity); err != nil {
		return err
	}
	if g.bufs, err = decodeSeriesSet(dec, arity); err != nil {
		return err
	}
	if g.pend, err = decodeSeriesSet(dec, arity); err != nil {
		return err
	}
	if dec.Bool() {
		g.drop = dec.Ints(nil)
		if dec.Err() == nil && len(g.drop) != arity {
			return fmt.Errorf("checker: snapshot has %d drop slots, operator arity is %d", len(g.drop), arity)
		}
	}
	g.nextIdx = dec.Int()
	if dec.Bool() {
		if !useExt {
			return fmt.Errorf("checker: snapshot carries extractions but the operator runs naive evaluation")
		}
		n := dec.Int()
		if dec.Err() == nil && n != arity {
			return fmt.Errorf("checker: snapshot has %d extraction slots, operator arity is %d", n, arity)
		}
		if dec.Err() == nil {
			g.ext = make([]resample.Extraction, n)
			for i := range g.ext {
				if err := g.ext[i].DecodeFrom(dec); err != nil {
					return err
				}
			}
		}
	}
	g.sessStart = dec.F64()
	g.sessPrev = dec.F64()
	g.sessOpen = dec.Bool()
	return dec.Err()
}

// ---------------------------------------------------------------------
// Batch suite checkpointing.
//
// A batch Suite run is a sequence of independently seeded checks (check
// i always draws stream seed + i·0x9e37, see compile), so its resumable
// state is simply "which checks finished, with which results". Windows
// are not serialized: they are pure functions of the pipeline, and
// RestoreSuite regenerates them, validating the count so a checkpoint
// from a different pipeline or check list fails loudly instead of
// misattributing results.

// Checkpoint serializes suite progress: the evaluation parameters, the
// base seed, and the completed checks' results (a subset of the suite's
// checks, e.g. the partial output of an interrupted run).
func (s *Suite) Checkpoint(params core.Params, seed uint64, done map[string][]core.Result) ([]byte, error) {
	if err := s.checkNames(); err != nil {
		return nil, err
	}
	known := make(map[string]bool, len(s.Checks))
	for _, ck := range s.Checks {
		known[ck.Name] = true
	}
	for name := range done {
		if !known[name] {
			return nil, fmt.Errorf("checker: checkpoint has results for unknown check %q", name)
		}
	}
	enc := checkpoint.NewEncoder()
	enc.F64(params.Credibility)
	enc.Int(params.MaxSamples)
	enc.F64(params.PriorAlpha)
	enc.F64(params.PriorBeta)
	enc.Int(params.CheckInterval)
	enc.Int(params.MinSamples)
	enc.Int(params.BlockSize)
	enc.U64(seed)
	// Completed checks in suite order, so the document is deterministic.
	names := make([]string, 0, len(done))
	for _, ck := range s.Checks {
		if _, ok := done[ck.Name]; ok {
			names = append(names, ck.Name)
		}
	}
	enc.Int(len(names))
	for _, name := range names {
		enc.String(name)
		rs := done[name]
		enc.Int(len(rs))
		for _, r := range rs {
			enc.Int(int(r.Outcome))
			enc.Int(r.Samples)
			enc.Int(r.SatisfiedCount)
			enc.F64(r.ViolationProb)
			enc.F64(r.Lower)
			enc.F64(r.Upper)
			enc.Int(r.Window.Index)
		}
	}
	return enc.Finish(), nil
}

// RestoreSuite loads a Checkpoint document against the suite,
// regenerating each completed check's window tuples from the pipeline
// and re-attaching them to the serialized results by index.
func RestoreSuite(s *Suite, data []byte) (core.Params, uint64, map[string][]core.Result, error) {
	var params core.Params
	dec, err := checkpoint.NewDecoder(data)
	if err != nil {
		return params, 0, nil, err
	}
	params.Credibility = dec.F64()
	params.MaxSamples = dec.Int()
	params.PriorAlpha = dec.F64()
	params.PriorBeta = dec.F64()
	params.CheckInterval = dec.Int()
	params.MinSamples = dec.Int()
	params.BlockSize = dec.Int()
	seed := dec.U64()
	checks := make(map[string]core.Check, len(s.Checks))
	for _, ck := range s.Checks {
		checks[ck.Name] = ck
	}
	n := dec.Int()
	if err := dec.Err(); err != nil {
		return params, 0, nil, err
	}
	done := make(map[string][]core.Result, n)
	for i := 0; i < n; i++ {
		name := dec.String()
		ck, ok := checks[name]
		if !ok {
			return params, 0, nil, fmt.Errorf("checker: checkpoint has results for unknown check %q", name)
		}
		ss, err := s.resolve(ck)
		if err != nil {
			return params, 0, nil, err
		}
		tuples := ck.Window.Windows(ss)
		m := dec.Int()
		if err := dec.Err(); err != nil {
			return params, 0, nil, err
		}
		if m != len(tuples) {
			return params, 0, nil, fmt.Errorf("checker: check %q has %d windows in the checkpoint but %d in the pipeline — data or check definition changed since the snapshot", name, m, len(tuples))
		}
		rs := make([]core.Result, m)
		for j := 0; j < m; j++ {
			rs[j] = core.Result{
				Outcome:        core.Outcome(dec.Int()),
				Samples:        dec.Int(),
				SatisfiedCount: dec.Int(),
				ViolationProb:  dec.F64(),
				Lower:          dec.F64(),
				Upper:          dec.F64(),
			}
			idx := dec.Int()
			if dec.Err() == nil {
				if idx < 0 || idx >= len(tuples) {
					return params, 0, nil, fmt.Errorf("checker: check %q result %d references window %d of %d", name, j, idx, len(tuples))
				}
				rs[j].Window = tuples[idx]
			}
		}
		done[name] = rs
	}
	if err := dec.Err(); err != nil {
		return params, 0, nil, err
	}
	return params, seed, done, nil
}

// RunFrom completes a partially evaluated suite: checks present in done
// are adopted as-is, the rest run with their compile-time seeds. Since
// check i's seed depends only on (seed, i), the combined result map is
// bit-identical to an uninterrupted RunContext with the same arguments.
func (s *Suite) RunFrom(ctx context.Context, params core.Params, seed uint64, done map[string][]core.Result) (map[string][]core.Result, error) {
	plans, err := s.compile(params, seed)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]core.Result, len(plans))
	for _, pl := range plans {
		name := pl.Check().Name
		if rs, ok := done[name]; ok {
			out[name] = rs
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ss, err := s.resolve(pl.Check())
		if err != nil {
			return nil, err
		}
		rs, err := pl.Run(ss)
		if err != nil {
			return nil, err
		}
		out[name] = rs
	}
	return out, nil
}
