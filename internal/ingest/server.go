package ingest

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"sound/internal/checker"
	"sound/internal/core"
	"sound/internal/stream"
)

// CheckConfig registers one check with the server — one tenant entry in
// the suite every shard runs.
type CheckConfig struct {
	Name   string
	Check  core.Check
	Params core.Params
	Seed   uint64
	Naive  bool
	Route  checker.Route
	// RouteSpec names the route for multiplexing: checks with equal
	// RouteSpec, window spec, and params class share one window buffer,
	// one extraction, and one sample matrix per window (DESIGN.md §4l).
	// ParseCheck fills it from the route=... grammar; the zero Route (by
	// event key) is always "event". A tag Route with an empty RouteSpec
	// is conservatively private — it never shares a bucket.
	RouteSpec string
	// Evict of the first check is the graph-wide policy when Config.Evict
	// is unset; eviction is per bucket, never per check.
	Evict checker.EvictionPolicy
}

// Config configures a Server.
type Config struct {
	// Shards is the number of independent shards events fan out to
	// (default 4), each one lane and one goroutine running the suite.
	// Routing is the event key's hash modulo Shards, which is
	// stream.PartitionOf — the engine's keyed-edge partitioner — so a
	// key's events always land on the shard that owns its window state.
	Shards int
	// BatchSize is the transport frame size, both for the shard input
	// lanes and for the frames a shard hands its check operator
	// (default 64).
	BatchSize int
	// Checks are the initially registered checks. Every shard runs the
	// full suite; each check's outcome counters aggregate across shards.
	// May be empty: checks can also register at runtime (POST /checks).
	Checks []CheckConfig
	// MaxChecks caps the number of concurrently registered checks — the
	// admission quota for dynamic registration (0 is unlimited).
	MaxChecks int
	// Evict is the graph-wide eviction policy shared by every check
	// bucket (per-bucket keyed state is charged once per bucket, not per
	// member). Zero value: fall back to Checks[0].Evict, then unbounded.
	Evict checker.EvictionPolicy
	// DefaultParams and DefaultSeed configure dynamically registered
	// checks whose spec doesn't override them. Each zero field of
	// DefaultParams takes its core.DefaultParams() value.
	DefaultParams core.Params
	DefaultSeed   uint64
}

// ErrCheckQuota rejects registrations beyond Config.MaxChecks.
var ErrCheckQuota = errors.New("ingest: check quota exceeded")

// shard is one input lane and the goroutine that empties it into the
// shard's own check operator (see run): events flow wire→verdict on one
// goroutine per shard, and verdicts leave through the checks' OnOutcome.
type shard struct {
	in       chan []stream.Event
	done     chan struct{}         // closed once the lane is closed and emptied
	err      atomic.Pointer[error] // the operator's panic, once it died
	consumed atomic.Int64          // events copied into the operator's frames
}

// checkOp is what a shard needs of its Mux operator: frames in, and the
// end-of-stream Flush.
type checkOp interface {
	stream.Processor
	stream.FrameProcessor
}

func discard(stream.Event) {}

// checkState is one registered check's server-side state: its config
// and the outcome counters aggregated across shards. The evaluation
// itself lives in the shared Mux bucket the check was admitted to.
type checkState struct {
	cfg  CheckConfig
	spec string // FormatCheck(cfg); "" for a check with no text form
	out  *checker.StreamOutcomes
}

// Server fans inbound events out to the shards and owns their
// lifecycle. Every shard hosts ONE multiplexed operator (checker.Mux)
// running the whole registered suite: checks sharing a window spec and
// params class share window state and Monte-Carlo draws instead of
// re-buffering and re-sampling per check. Construction starts the shard
// loops; Drain stops intake, flushes every shard to end-of-stream
// (firing final windows), and freezes the counters.
type Server struct {
	cfg  Config
	mux  *checker.Mux
	pool sync.Pool // *[]stream.Event transport frames

	checkMu sync.Mutex
	checks  []*checkState

	shards []*shard

	mu       sync.Mutex
	draining bool
	conns    map[net.Conn]struct{}
	connWG   sync.WaitGroup // in-flight TCP conns + HTTP ingest requests
	tcpLn    net.Listener

	ingested     atomic.Int64 // events accepted into shard lanes
	dropped      atomic.Int64 // events lost to a dead shard
	decodeErrors atomic.Int64 // connections/requests that died mid-decode

	nsubs       atomic.Int32
	subMu       sync.Mutex
	subs        map[*subscriber]struct{}
	subsDropped atomic.Int64 // outcome messages dropped on slow subscribers

	drainOnce sync.Once
	drainErr  error
	drained   chan struct{}
}

// NewServer builds the server and starts its shard loops (idle until
// events arrive).
func NewServer(cfg Config) (*Server, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	evict := cfg.Evict
	if evict == (checker.EvictionPolicy{}) && len(cfg.Checks) > 0 {
		evict = cfg.Checks[0].Evict
	}
	s := &Server{
		cfg:     cfg,
		mux:     checker.NewMux(false, evict),
		conns:   map[net.Conn]struct{}{},
		subs:    map[*subscriber]struct{}{},
		drained: make(chan struct{}),
	}
	for _, cc := range cfg.Checks {
		if err := s.AddCheck(cc); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Shards; i++ {
		// One multiplexed operator hosts the whole (mutable) suite; the
		// Mux buckets members so co-window checks share state and draws.
		op, ok := s.mux.Factory()().(checkOp)
		if !ok {
			return nil, fmt.Errorf("ingest: the Mux operator is not a stream.FrameProcessor")
		}
		sh := &shard{
			in:   make(chan []stream.Event, 64),
			done: make(chan struct{}),
		}
		s.shards = append(s.shards, sh)
		go s.run(i, sh, op)
	}
	return s, nil
}

// run is shard i's loop. A dead shard goes on emptying its lane, counting
// every event it will never evaluate as dropped, so producers never block
// on it and, after Drain, Consumed + Dropped is every accepted event.
func (s *Server) run(i int, sh *shard, op checkOp) {
	defer close(sh.done)
	if err := s.feed(i, sh, op); err != nil {
		sh.err.Store(&err)
		for fr := range sh.in {
			s.dropped.Add(int64(len(fr)))
			s.putFrame(fr)
		}
	}
}

// feed copies each lane frame into a pending frame of exactly BatchSize,
// carried across lane frames and never cut at a lane-frame boundary, and
// hands the operator every frame that fills; at lane close it hands over
// the remainder and flushes the operator's final windows. consumed
// advances per lane frame, so it runs ahead of the verdicts by up to one
// partial frame (see Stats). An operator panic ends the loop with an
// error, the lane frame in flight counted dropped.
func (s *Server) feed(i int, sh *shard, op checkOp) (err error) {
	var fr []stream.Event
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("ingest: shard %d: check operator panicked: %v", i, r)
			s.dropped.Add(int64(len(fr)))
			s.putFrame(fr)
		}
	}()
	n := s.cfg.BatchSize
	pending := make([]stream.Event, 0, n)
	for fr = range sh.in {
		for evs := fr; len(evs) > 0; {
			k := min(n-len(pending), len(evs))
			pending, evs = append(pending, evs[:k]...), evs[k:]
			if len(pending) == n {
				op.ProcessFrame(pending, discard)
				pending = pending[:0]
			}
		}
		sh.consumed.Add(int64(len(fr)))
		s.putFrame(fr)
		fr = nil
	}
	if len(pending) > 0 {
		op.ProcessFrame(pending, discard)
	}
	op.Flush(discard)
	return nil
}

// AddCheck admits one check at runtime: quota-checked, compiled, and
// registered with every shard's multiplexed operator. Shards pick the
// check up at their next frame; its counters start at zero. Errors
// (bad spec, duplicate name, quota) leave the server unchanged.
func (s *Server) AddCheck(cc CheckConfig) error {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		return ErrDraining
	}
	s.checkMu.Lock()
	defer s.checkMu.Unlock()
	if s.cfg.MaxChecks > 0 && len(s.checks) >= s.cfg.MaxChecks {
		return fmt.Errorf("%w: %d checks registered (cap %d)", ErrCheckQuota, len(s.checks), s.cfg.MaxChecks)
	}
	routeID := cc.RouteSpec
	if cc.Route == nil {
		routeID = "event"
	}
	name := cc.Name
	cs := &checkState{cfg: cc, out: &checker.StreamOutcomes{}}
	cs.spec, _ = FormatCheck(cc) // its error means no text: ""
	err := s.mux.Register(checker.MuxCheck{
		Name:    cc.Name,
		Check:   cc.Check,
		Params:  cc.Params,
		Seed:    cc.Seed,
		Naive:   cc.Naive,
		Route:   cc.Route,
		RouteID: routeID,
		Out:     cs.out,
		OnOutcome: func(key string, o core.Outcome) {
			s.publish(name, key, o)
		},
	})
	if err != nil {
		return fmt.Errorf("ingest: check %q: %w", cc.Name, err)
	}
	s.checks = append(s.checks, cs)
	return nil
}

// RemoveCheck deregisters a check by name. Its window state (when not
// shared with surviving bucket members) is discarded; its counters
// freeze at their final values. In-flight frames on a shard may deliver
// a few final verdicts before the shard observes the removal.
func (s *Server) RemoveCheck(name string) error {
	s.checkMu.Lock()
	defer s.checkMu.Unlock()
	if err := s.mux.Deregister(name); err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	for i, cs := range s.checks {
		if cs.cfg.Name == name {
			s.checks = append(s.checks[:i:i], s.checks[i+1:]...)
			break
		}
	}
	return nil
}

// CheckNames returns the registered check names in registration order.
func (s *Server) CheckNames() []string {
	names, _ := s.listChecks()
	return names
}

// listChecks returns the registered checks' names and specs in
// registration order, read under one lock so the two lists pair up. A
// check with no text form, such as a naive one or a user constraint
// registered through Config.Checks, has the spec "".
func (s *Server) listChecks() (names, specs []string) {
	s.checkMu.Lock()
	defer s.checkMu.Unlock()
	names, specs = make([]string, len(s.checks)), make([]string, len(s.checks))
	for i, cs := range s.checks {
		names[i], specs[i] = cs.cfg.Name, cs.spec
	}
	return names, specs
}

// GroupStats reports the multiplexing buckets: member checks, whether
// they run the shared-draw path, and the sharing counters.
func (s *Server) GroupStats() []checker.GroupStat { return s.mux.GroupStats() }

func (s *Server) getFrame() []stream.Event {
	if v := s.pool.Get(); v != nil {
		return (*v.(*[]stream.Event))[:0]
	}
	return make([]stream.Event, 0, s.cfg.BatchSize)
}

func (s *Server) putFrame(fr []stream.Event) {
	if cap(fr) == 0 {
		return
	}
	fr = fr[:0]
	s.pool.Put(&fr)
}

// router is one connection's (or request's) shard fan-in state: a
// pooled partial frame per shard, flushed whenever a frame fills or the
// producer reaches an input boundary. Not safe for concurrent use; each
// connection owns its own.
type router struct {
	s    *Server
	bufs [][]stream.Event
}

func (s *Server) newRouter() *router {
	return &router{s: s, bufs: make([][]stream.Event, len(s.shards))}
}

// shardOf is the ingest-side shard assignment: the key's hash, as the
// decoder carried it, modulo the shard count. It MUST equal
// stream.PartitionOf, the engine's keyed-edge partitioner, bit-for-bit
// (property-tested against a live keyed graph): the shard is the key's
// home for window state.
func (s *Server) shardOf(ev *stream.Event) int {
	return int(ev.KeyHash() % uint64(len(s.shards)))
}

func (rt *router) add(ev *stream.Event) {
	i := rt.s.shardOf(ev)
	buf := rt.bufs[i]
	if buf == nil {
		buf = rt.s.getFrame()
	}
	buf = append(buf, *ev)
	if len(buf) >= rt.s.cfg.BatchSize {
		rt.bufs[i] = nil
		rt.s.send(i, buf)
	} else {
		rt.bufs[i] = buf
	}
}

func (rt *router) addFrame(evs []stream.Event) {
	for i := range evs {
		rt.add(&evs[i])
	}
}

// flush ships every partial frame to its shard — called at input-frame
// boundaries so transport batching never holds a decoded event back.
func (rt *router) flush() {
	for i, buf := range rt.bufs {
		if len(buf) > 0 {
			rt.bufs[i] = nil
			rt.s.send(i, buf)
		}
	}
}

// send delivers one frame to a shard lane. Every shard empties its lane
// until Drain closes it, a dead one included (see run), so the send
// never wedges a connection.
func (s *Server) send(i int, fr []stream.Event) {
	s.shards[i].in <- fr
	s.ingested.Add(int64(len(fr)))
}

// ErrDraining rejects work arriving after Drain began.
var ErrDraining = fmt.Errorf("ingest: server is draining")

// beginIngest registers an in-flight producer (TCP connection or HTTP
// ingest request); the matching endIngest releases it. Drain waits for
// all producers before closing the shard lanes, so a producer that got
// in never writes to a closed channel.
func (s *Server) beginIngest() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.connWG.Add(1)
	return true
}

func (s *Server) endIngest() { s.connWG.Done() }

// Drain performs the graceful shutdown handshake: stop accepting
// producers, wait for in-flight ones, close the shard lanes, and wait
// for every shard loop to flush its final windows (or, on a dead shard,
// to count its lane's leftovers dropped) and stop. The first shard's
// error, if any, is returned. After
// Drain the counters are final. A connection the kernel has completed
// but ServeTCP has not yet accepted is not waited for — it is refused
// with the listener — so a client that must not lose events confirms
// them (Stats().Ingested) before it asks for the drain. Idempotent;
// concurrent callers all block until the first drain completes.
func (s *Server) Drain() error {
	s.drainOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		ln := s.tcpLn
		s.mu.Unlock()
		if ln != nil {
			ln.Close()
		}
		s.connWG.Wait()
		for _, sh := range s.shards {
			close(sh.in)
		}
		for _, sh := range s.shards {
			<-sh.done
			if err := sh.err.Load(); err != nil && s.drainErr == nil {
				s.drainErr = *err
			}
		}
		s.closeSubscribers()
		close(s.drained)
	})
	<-s.drained
	return s.drainErr
}

// Drained reports drain completion without initiating one: the channel
// closes once a Drain (from any caller — POST /drain, signal handler,
// Close) has fully flushed the shards. Lets a host process wait for
// "someone drained the server" and exit.
func (s *Server) Drained() <-chan struct{} { return s.drained }

// Close force-closes live connections, then drains. Use when a client
// may never hang up on its own.
func (s *Server) Close() error {
	s.mu.Lock()
	s.draining = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	return s.Drain()
}
