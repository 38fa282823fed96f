package checker

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"sound/internal/core"
	"sound/internal/stream"
)

// Mux is a dynamic check registry behind a single stream-operator slot:
// checks register and deregister at runtime, and the Mux buckets them
// by (group class, route) so every bucket runs as ONE multiplexed
// operator — one window buffer set, one extraction, one shared sample
// matrix per fired window — no matter how many checks it hosts. Worker
// instances pick up membership changes at event boundaries, so a graph
// wired once with Factory() hosts an arbitrary, mutable suite. Every
// bucket, whether it holds one check or many, seeds a window's draws
// from (group class, route key, window coordinate): a check's verdicts
// are the same at any worker count and whatever else is registered.
//
// Concurrency: Register/Deregister/GroupStats may be called from any
// goroutine (e.g. an HTTP admin handler) while workers process events.
// Workers observe a membership change at their next delivery; in-flight
// events evaluate under the membership the worker last synced, so a
// deregistered check may deliver a few final verdicts — the admin API
// contract is "no new windows after the deregistration is observed",
// not a barrier.
type Mux struct {
	forward bool
	evict   EvictionPolicy

	// version bumps on every membership change; workers resync when
	// their seen version lags. Reads are lock-free on the hot path.
	version atomic.Uint64

	mu       sync.Mutex
	byName   map[string]*muxUnit
	buckets  map[muxBucketKey]*muxBucket
	order    []*muxBucket // bucket creation order: deterministic worker iteration
	nextUniq int
}

// MuxCheck configures one dynamically registered check.
type MuxCheck struct {
	// Name is the registry handle (unique; used to deregister).
	Name   string
	Check  core.Check
	Params core.Params
	Seed   uint64
	// Naive selects BASE_CHECK semantics.
	Naive bool
	// Route attributes events; nil defaults to ByEventKey for unary
	// checks.
	Route RouteFunc
	// RouteID names the route for sharing purposes: registrations with
	// equal RouteID and equal group class land in the same bucket and
	// share window state and draws. Empty means the route is private —
	// the check gets its own bucket. Routes cannot be compared as
	// functions, so the caller vouches that equal RouteIDs mean equal
	// routing.
	RouteID string
	// Out receives the check's own outcome and lifecycle counters.
	Out *StreamOutcomes
	// OnOutcome observes every (group key, outcome) pair.
	OnOutcome func(key string, o core.Outcome)
}

// muxBucketKey identifies one shareable bucket. uniq is 0 for
// shareable (RouteID'd) buckets and a fresh serial for private ones.
type muxBucketKey struct {
	class   core.GroupClass
	routeID string
	uniq    int
}

// muxUnit is one registered check.
type muxUnit struct {
	name   string
	member *memberSpec
	bucket *muxBucket
}

// muxBucket is one operator-worth of members. route is fixed at bucket
// creation (the first registrant's); gen bumps on membership change so
// workers re-install members without rebuilding window state.
type muxBucket struct {
	key     muxBucketKey
	units   []*muxUnit
	route   RouteFunc
	metrics *GroupMetrics
	gen     uint64
}

// ErrCheckExists rejects a registration under a name already in use.
var ErrCheckExists = errors.New("checker: check name already registered")

// NewMux returns an empty registry. Forward and the eviction policy are
// graph-level choices shared by every bucket the Mux ever hosts.
func NewMux(forward bool, evict EvictionPolicy) *Mux {
	return &Mux{
		forward: forward,
		evict:   evict,
		byName:  map[string]*muxUnit{},
		buckets: map[muxBucketKey]*muxBucket{},
	}
}

// Register compiles and admits one check. The check joins an existing
// bucket when its group class and RouteID match one; otherwise it opens
// a new bucket. Errors leave the registry unchanged.
func (x *Mux) Register(cfg MuxCheck) error {
	if cfg.Name == "" {
		return fmt.Errorf("checker: registered check needs a name")
	}
	m, err := newMemberSpec(cfg.Check, cfg.Params, cfg.Seed, cfg.Naive, cfg.Out, cfg.OnOutcome)
	if err != nil {
		return err
	}
	route, err := resolveRoute(cfg.Route, &m.check, m.plan.Arity())
	if err != nil {
		return err
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.byName[cfg.Name] != nil {
		return fmt.Errorf("%w: %q", ErrCheckExists, cfg.Name)
	}
	key := muxBucketKey{class: m.plan.Class(), routeID: cfg.RouteID}
	if cfg.RouteID == "" {
		x.nextUniq++
		key.uniq = x.nextUniq
	}
	b := x.buckets[key]
	if b == nil {
		b = &muxBucket{key: key, route: route, metrics: &GroupMetrics{}}
		x.buckets[key] = b
		x.order = append(x.order, b)
	}
	u := &muxUnit{name: cfg.Name, member: m, bucket: b}
	b.units = append(b.units, u)
	b.gen++
	x.byName[cfg.Name] = u
	x.version.Add(1)
	return nil
}

// Deregister removes a check by name. The last member of a bucket takes
// the bucket — and its window state — with it.
func (x *Mux) Deregister(name string) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	u := x.byName[name]
	if u == nil {
		return fmt.Errorf("checker: check %q is not registered", name)
	}
	delete(x.byName, name)
	b := u.bucket
	for i, bu := range b.units {
		if bu == u {
			b.units = append(b.units[:i:i], b.units[i+1:]...)
			break
		}
	}
	b.gen++
	if len(b.units) == 0 {
		delete(x.buckets, b.key)
		for i, ob := range x.order {
			if ob == b {
				x.order = append(x.order[:i:i], x.order[i+1:]...)
				break
			}
		}
	}
	x.version.Add(1)
	return nil
}

// Len returns the number of registered checks.
func (x *Mux) Len() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.byName)
}

// Names returns the registered check names, sorted.
func (x *Mux) Names() []string {
	x.mu.Lock()
	defer x.mu.Unlock()
	names := make([]string, 0, len(x.byName))
	for n := range x.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// GroupStat is the published sharing report of one bucket.
type GroupStat struct {
	// Checks are the member check names, registration order.
	Checks []string `json:"checks"`
	// Shared reports whether the bucket's draws are shared (two or more
	// SOUND members).
	Shared bool `json:"shared"`
	// Windows is the number of window evaluations so far (counted for
	// every bucket with a SOUND member, shared or not).
	Windows int64 `json:"windows"`
	// MemberEvals is the number of member verdicts those produced.
	MemberEvals int64 `json:"member_evals"`
	// Draws is the number of sample rows physically drawn — flat in the
	// member count when sharing works. It is not the samples Alg. 1
	// consumed: a collapsed member consumes samples and draws no row.
	Draws int64 `json:"draws"`
	// Collapsed is the number of member verdicts decided without rows,
	// from the closed-form probability of their sample bit.
	Collapsed int64 `json:"collapsed"`
	// RetiredEarly counts row-scoring members decided before the shared
	// stream's last draw.
	RetiredEarly int64 `json:"retired_early"`
	// SharedExtractionHitRatio is the fraction of member evaluations
	// that reused an extraction primed for another member.
	SharedExtractionHitRatio float64 `json:"shared_extraction_hit_ratio"`
}

// GroupStats reports every bucket's membership and sharing counters,
// bucket creation order. Counters aggregate across all workers and
// shards hosting this Mux.
func (x *Mux) GroupStats() []GroupStat {
	x.mu.Lock()
	defer x.mu.Unlock()
	stats := make([]GroupStat, 0, len(x.order))
	for _, b := range x.order {
		sound := 0
		names := make([]string, len(b.units))
		for i, u := range b.units {
			names[i] = u.name
			if !u.member.naive {
				sound++
			}
		}
		snap := b.metrics.Snapshot()
		stats = append(stats, GroupStat{
			Checks:                   names,
			Shared:                   sound >= 2,
			Windows:                  snap.Windows,
			MemberEvals:              snap.MemberEvals,
			Draws:                    snap.Draws,
			Collapsed:                snap.Collapsed,
			RetiredEarly:             snap.RetiredEarly,
			SharedExtractionHitRatio: snap.SharedHitRatio(),
		})
	}
	return stats
}

// Factory returns a per-worker Processor factory for wiring the Mux
// into a stream graph (one call per graph node; the engine invokes the
// factory once per worker). All workers of all graphs built from the
// same Mux observe the same registry.
func (x *Mux) Factory() func() stream.Processor {
	return func() stream.Processor { return newMuxOp(x) }
}

// muxInstance pairs a bucket with this worker's operator instance.
type muxInstance struct {
	bucket *muxBucket
	gen    uint64
	op     *streamChecker
}

// muxOp is one worker's view of the Mux: a list of per-bucket operator
// instances, resynced from the registry at delivery boundaries.
// Forwarding is done once here, never by the inner instances.
type muxOp struct {
	mux       *Mux
	seen      uint64
	instances []*muxInstance
	byBucket  map[*muxBucket]*muxInstance
}

func newMuxOp(x *Mux) *muxOp {
	o := &muxOp{mux: x, byBucket: map[*muxBucket]*muxInstance{}}
	o.sync()
	return o
}

// sync reconciles the worker's instances with the registry. Instances
// for surviving buckets are reused — their window state persists across
// unrelated registrations — and a window's draws are seeded from its
// coordinate, so churn elsewhere in the suite never perturbs a check's
// verdict stream.
func (o *muxOp) sync() {
	v := o.mux.version.Load()
	if v == o.seen {
		return
	}
	x := o.mux
	x.mu.Lock()
	defer x.mu.Unlock()
	instances := make([]*muxInstance, 0, len(x.order))
	byBucket := make(map[*muxBucket]*muxInstance, len(x.order))
	for _, b := range x.order {
		in := o.byBucket[b]
		if in == nil {
			in = &muxInstance{
				bucket: b,
				gen:    b.gen,
				// forward=false: the muxOp forwards once for the whole
				// suite; inner instances only ingest.
				op: newOperator(o.bucketMembers(b), b.route, false, x.evict, nil, b.metrics),
			}
		} else if in.gen != b.gen {
			in.op.installMembers(o.bucketMembers(b))
			in.gen = b.gen
		}
		instances = append(instances, in)
		byBucket[b] = in
	}
	o.instances = instances
	o.byBucket = byBucket
	o.seen = v
}

// bucketMembers snapshots a bucket's member list (caller holds mux.mu).
func (o *muxOp) bucketMembers(b *muxBucket) []*memberSpec {
	members := make([]*memberSpec, len(b.units))
	for i, u := range b.units {
		members[i] = u.member
	}
	return members
}

// Process implements stream.Processor.
func (o *muxOp) Process(ev stream.Event, emit stream.EmitFunc) {
	o.sync()
	if o.mux.forward {
		emit(ev)
	}
	for _, in := range o.instances {
		in.op.ingest(ev)
	}
}

// ProcessFrame implements stream.FrameProcessor.
func (o *muxOp) ProcessFrame(evs []stream.Event, emit stream.EmitFunc) {
	if o.mux.forward {
		for i := range evs {
			emit(evs[i])
		}
	}
	o.ProcessFrameForwarded(evs, emit)
}

// Forwarding implements stream.ForwardingFrameProcessor.
func (o *muxOp) Forwarding() bool { return o.mux.forward }

// ProcessFrameForwarded implements stream.ForwardingFrameProcessor:
// ingest into every bucket, membership synced once per frame.
func (o *muxOp) ProcessFrameForwarded(evs []stream.Event, emit stream.EmitFunc) {
	o.sync()
	for _, in := range o.instances {
		for i := range evs {
			in.op.ingest(evs[i])
		}
	}
}

// Flush implements stream.Processor: end-of-stream windows fire for
// every bucket, in bucket order.
func (o *muxOp) Flush(emit stream.EmitFunc) {
	o.sync()
	for _, in := range o.instances {
		in.op.Flush(emit)
	}
}
