package checker

import (
	"context"
	"fmt"
	"math"

	"sound/internal/checkpoint"
	"sound/internal/core"
	"sound/internal/series"
	"sound/internal/stream"
)

// This file is the checker's half of the deterministic state lifecycle
// (DESIGN.md §4i): the codec of one Mux operator's state, written and
// read by the loop that drives the operator, and the batch Suite's
// checkpoint/resume. The invariant everywhere is bit parity: a restored
// run must produce the byte-identical outcome sequence an uninterrupted
// run produces, which is why the codec carries exact float bits and the
// LRU order instead of approximations that would merely "look right" —
// and why it carries no RNG position: a window's draws are seeded from
// the window itself, so there is none to resume.

// EncodeOperator writes the state of a Mux operator (a processor made by
// Mux.Factory): the bucket count, then for each bucket in Mux order its
// identity (encodeMembers) followed by its watermark and window groups.
// The operator's owner calls it between two calls into the operator, so
// no event is half-ingested and no window is being evaluated. Membership
// specs and bucket counters are not written — the owner re-registers
// the same checks before restoring — and neither are outcome counters:
// they belong to the caller's StreamOutcomes, which encodes itself
// (EncodeTo).
func EncodeOperator(p stream.Processor, enc *checkpoint.Encoder) error {
	o, ok := p.(*muxOp)
	if !ok {
		return fmt.Errorf("checker: %T is not a Mux operator", p)
	}
	o.sync()
	enc.Int(len(o.instances))
	for _, in := range o.instances {
		in.op.encodeMembers(enc)
		in.op.encodeState(enc)
	}
	return nil
}

// encodeMembers writes what a restore must find registered in a bucket:
// the member count, the hash of the bucket's group class (parameters,
// window, arity, seed), and per member its name, naive flag and kernel
// spec (a template constraint's operation and bounds).
func (c *streamChecker) encodeMembers(enc *checkpoint.Encoder) {
	enc.Int(len(c.members))
	enc.U64(c.members[0].plan.Class().Hash())
	for _, m := range c.members {
		enc.String(m.name)
		enc.Bool(m.naive)
		sp := m.check.Constraint.Spec
		enc.Int(int(sp.Op))
		enc.Bool(sp.Strict)
		enc.Int(int(sp.Bins))
		enc.F64(sp.A)
		enc.F64(sp.B)
		enc.F64(sp.C)
	}
}

// checkMembers reads a bucket identity written by encodeMembers and
// reports how it differs from the engine's registrations, if it does.
func (c *streamChecker) checkMembers(dec *checkpoint.Decoder) error {
	k := dec.Int()
	class := dec.U64()
	if err := dec.Err(); err != nil {
		return err
	}
	if k != len(c.members) {
		return fmt.Errorf("%d members, operator bucket has %d", k, len(c.members))
	}
	if class != c.members[0].plan.Class().Hash() {
		return fmt.Errorf("other parameters, window or seed than the operator bucket")
	}
	for _, m := range c.members {
		name, naive := dec.String(), dec.Bool()
		op, strict, bins := dec.Int(), dec.Bool(), dec.Int()
		a, b, cc := dec.U64(), dec.U64(), dec.U64()
		if err := dec.Err(); err != nil {
			return err
		}
		if name != m.name {
			return fmt.Errorf("check %q where the operator holds %q", name, m.name)
		}
		// Compared as written, so an accepted payload re-encodes to its
		// own bytes (a -0 bound is not the registered 0).
		sp := m.check.Constraint.Spec
		if naive != m.naive || op != int(sp.Op) || strict != sp.Strict || bins != int(sp.Bins) ||
			a != math.Float64bits(sp.A) || b != math.Float64bits(sp.B) || cc != math.Float64bits(sp.C) {
			return fmt.Errorf("check %q registered with another constraint or mode", name)
		}
	}
	return nil
}

// DecodeOperator loads state written by EncodeOperator into a fresh
// operator of a Mux holding the same registrations, bucketed the same
// way; fed the events that followed the snapshot, it then evaluates what
// the snapshotted operator would have. An operator that has already seen
// events (or been restored) is refused, and so is a corrupt payload or
// one whose bucket list, group classes, member names, naive flags or
// kernel specs differ from the operator's (a custom constraint's Fn
// cannot be compared). After an error the operator holds part of the
// payload and must be discarded.
func DecodeOperator(p stream.Processor, dec *checkpoint.Decoder) error {
	o, ok := p.(*muxOp)
	if !ok {
		return fmt.Errorf("checker: %T is not a Mux operator", p)
	}
	if o.started {
		return fmt.Errorf("checker: restoring into an operator that has already seen events")
	}
	o.started = true
	o.sync()
	n := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	if n != len(o.instances) {
		return fmt.Errorf("checker: snapshot has %d buckets, operator has %d", n, len(o.instances))
	}
	for b, in := range o.instances {
		if err := in.op.checkMembers(dec); err != nil {
			return fmt.Errorf("checker: snapshot bucket %d: %w", b, err)
		}
		if err := in.op.decodeState(dec); err != nil {
			return err
		}
	}
	return dec.Err()
}

// EncodeTo writes the outcome and lifecycle counters.
func (so *StreamOutcomes) EncodeTo(enc *checkpoint.Encoder) {
	enc.U64(uint64(so.satisfied.Load()))
	enc.U64(uint64(so.violated.Load()))
	enc.U64(uint64(so.inconclusive.Load()))
	enc.U64(uint64(so.evictedGroups.Load()))
	enc.U64(uint64(so.droppedLate.Load()))
}

// DecodeFrom overwrites the counters with those written by EncodeTo.
func (so *StreamOutcomes) DecodeFrom(dec *checkpoint.Decoder) error {
	so.satisfied.Store(int64(dec.U64()))
	so.violated.Store(int64(dec.U64()))
	so.inconclusive.Store(int64(dec.U64()))
	so.evictedGroups.Store(int64(dec.U64()))
	so.droppedLate.Store(int64(dec.U64()))
	return dec.Err()
}

// encodeState serializes one bucket's engine: the watermark and the
// live groups. With the recency list live (an eviction policy is set) groups
// go in LRU order, coldest first, so decode rebuilds the identical list
// and with it identical future evictions; without one there is no list
// to walk, and groups go in key order. No random state is written because
// none outlives a window: every window's draws are reseeded from its own
// coordinate (streamChecker.evaluate), so a restored operator draws what
// an uninterrupted one would.
func (c *streamChecker) encodeState(enc *checkpoint.Encoder) {
	enc.F64(c.opWatermark)
	enc.Int(c.groups.Len())
	if c.evictOn {
		for g := c.lruTail; g != nil; g = g.prev {
			g.encodeTo(enc)
		}
		return
	}
	for _, g := range c.sortedGroups() {
		g.encodeTo(enc)
	}
}

// decodeState restores an engine serialized by encodeState. Groups of
// an operator without a recency list must arrive in strictly ascending
// key order — the only order encodeState writes them in — so every
// accepted payload re-encodes to its own bytes.
func (c *streamChecker) decodeState(dec *checkpoint.Decoder) error {
	c.opWatermark = dec.F64()
	n := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	if n > 0 && !c.stateful {
		return fmt.Errorf("checker: snapshot has %d groups, operator keeps none", n)
	}
	prev := ""
	for i := 0; i < n; i++ {
		g := &groupState{}
		if err := g.decodeFrom(dec, c.arity); err != nil {
			return err
		}
		h := stream.KeyHash(g.key)
		if _, dup := c.groups.Get(h, g.key); dup {
			return fmt.Errorf("checker: duplicate group %q in snapshot", g.key)
		}
		if !c.evictOn && i > 0 && g.key <= prev {
			return fmt.Errorf("checker: snapshot group %q out of key order", g.key)
		}
		prev = g.key
		c.groups.Put(h, g.key, g)
		if c.evictOn {
			c.lruPushFront(g) // encode order is coldest → hottest
		}
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
func decodeSeries(dec *checkpoint.Decoder) (series.Series, error) {
	n := dec.Int()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if n > dec.Remaining()/32 {
		return nil, fmt.Errorf("checker: snapshot buffer of %d points exceeds %d remaining bytes", n, dec.Remaining())
	}
	s := make(series.Series, 0, n)
	for i := 0; i < n; i++ {
		s = append(s, series.Point{T: dec.F64(), V: dec.F64(), SigUp: dec.F64(), SigDown: dec.F64()})
	}
	return s, dec.Err()
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
		s, err := decodeSeries(dec)
		if err != nil {
			return nil, err
		}
		set[i] = s
	}
	return set, nil
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
	encodeSeriesSet(enc, g.bufs)
	if g.drop == nil {
		enc.Bool(false)
	} else {
		enc.Bool(true)
		enc.Ints(g.drop)
	}
	enc.Int(g.nextIdx)
	enc.F64(g.sessStart)
	enc.F64(g.sessPrev)
	enc.Bool(g.sessOpen)
}

// decodeFrom restores one window group.
func (g *groupState) decodeFrom(dec *checkpoint.Decoder, arity int) error {
	g.key = dec.String()
	g.lastT = dec.F64()
	g.hasOrigin = dec.Bool()
	g.origin = dec.F64()
	g.nextStart = dec.F64()
	g.fired = dec.Bool()
	g.watermark = dec.F64()
	var err error
	if g.bufs, err = decodeSeriesSet(dec, arity); err != nil {
		return err
	}
	if dec.Bool() {
		g.drop = dec.Ints(nil)
		if dec.Err() == nil && len(g.drop) != arity {
			return fmt.Errorf("checker: snapshot has %d drop slots, operator arity is %d", len(g.drop), arity)
		}
	}
	g.nextIdx = dec.Int()
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
// bit-identical to an uninterrupted RunContext with the same arguments
// (which is RunFrom with nothing done).
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
