package checker

import (
	"fmt"
	"sync/atomic"

	"sound/internal/core"
	"sound/internal/resample"
)

// This file is the checker's half of window multiplexing (DESIGN.md
// §4l): one stream operator hosting a whole bucket of member checks
// over ONE set of window buffers and ONE extraction per (key, window),
// evaluating fired windows through one core.PlanGroup. The
// eviction layer charges the shared state once — the operator owns one
// groupState per key regardless of member count — instead of K times
// as K independent operators would.

// memberSpec is one check's compiled identity inside an operator,
// shared by every worker instance (and across Mux bucket rebuilds, so
// registration churn elsewhere never disturbs a member's counters).
type memberSpec struct {
	check     core.Check
	plan      *core.CheckPlan
	naive     bool
	out       *StreamOutcomes
	onOutcome func(key string, o core.Outcome)
}

// newMemberSpec compiles one member check and validates it can stream.
func newMemberSpec(ck core.Check, params core.Params, seed uint64, naive bool, out *StreamOutcomes, onOutcome func(string, core.Outcome)) (*memberSpec, error) {
	plan, err := core.CompilePlan(ck, params, seed)
	if err != nil {
		return nil, err
	}
	asg := plan.Assigner()
	switch asg.Kind {
	case core.KindCustom:
		return nil, fmt.Errorf("checker: check %q uses windower %v, which has no stream assigner", ck.Name, ck.Window)
	case core.KindSession:
		if plan.Arity() != 1 {
			return nil, fmt.Errorf("checker: check %q: session windows stream only for unary checks", ck.Name)
		}
	}
	return &memberSpec{check: plan.Check(), plan: plan, naive: naive, out: out, onOutcome: onOutcome}, nil
}

// deliver records one outcome with the member's sinks.
func (m *memberSpec) deliver(key string, o core.Outcome) {
	if m.out != nil {
		m.out.Add(o)
	}
	if m.onOutcome != nil {
		m.onOutcome(key, o)
	}
}

// GroupMetrics aggregates one bucket's sharing counters across all its
// worker instances and shards. Safe for concurrent use.
type GroupMetrics struct {
	windows, memberEvals, draws, collapsed, retired, primes atomic.Int64
}

func (gm *GroupMetrics) record(ev core.GroupEval, members int) {
	gm.windows.Add(1)
	gm.memberEvals.Add(int64(members))
	gm.draws.Add(int64(ev.Draws))
	if ev.Collapsed != 0 {
		// All-certain point windows collapse nothing, and there an atomic
		// add per window is 1 % of a verdict's cost.
		gm.collapsed.Add(int64(ev.Collapsed))
	}
	gm.retired.Add(int64(ev.Retired))
	gm.primes.Add(int64(ev.Primes))
}

// GroupMetricsSnapshot is a point-in-time read of a bucket's counters.
type GroupMetricsSnapshot struct {
	// Windows is the number of PlanGroup window evaluations.
	Windows int64
	// MemberEvals is the number of member verdicts those produced.
	MemberEvals int64
	// Draws is the number of sample rows physically drawn — flat in the
	// member count, the multiplexing win, and zero for a lane whose
	// members all collapsed.
	Draws int64
	// Collapsed is the number of member verdicts decided from the closed
	// form of their sample bit, without rows (core/level.go).
	Collapsed int64
	// RetiredEarly counts row-scoring members that stopped consuming the
	// shared stream before its last draw (Alg. 1 decided them early).
	RetiredEarly int64
	// Primes is the number of extractions primed (one per strategy lane
	// per window); MemberEvals − Primes extractions were shared.
	Primes int64
}

// Snapshot reads the counters.
func (gm *GroupMetrics) Snapshot() GroupMetricsSnapshot {
	return GroupMetricsSnapshot{
		Windows:      gm.windows.Load(),
		MemberEvals:  gm.memberEvals.Load(),
		Draws:        gm.draws.Load(),
		Collapsed:    gm.collapsed.Load(),
		RetiredEarly: gm.retired.Load(),
		Primes:       gm.primes.Load(),
	}
}

// SharedHitRatio is the fraction of member evaluations that reused an
// extraction primed for another member: 1 − Primes/MemberEvals.
func (s GroupMetricsSnapshot) SharedHitRatio() float64 {
	if s.MemberEvals == 0 {
		return 0
	}
	r := 1 - float64(s.Primes)/float64(s.MemberEvals)
	if r < 0 {
		return 0
	}
	return r
}

// installMembers (re)binds the member set of a worker instance and
// compiles the bucket's core.PlanGroup from its SOUND members (none for a
// Naive-only bucket, which is scored inline). Nothing is carried over from
// the previous set: all randomness is window-derived, so a member's
// verdicts do not depend on when its neighbours came or went. Called at
// construction and, by the Mux, at frame boundaries when the registered
// suite changed.
func (c *streamChecker) installMembers(members []*memberSpec) {
	c.members = members
	var plans []*core.CheckPlan
	for _, m := range members {
		if !m.naive {
			plans = append(plans, m.plan)
		}
	}
	wasExt := c.useExt()
	c.planGroup, c.resBuf = nil, nil
	if len(plans) > 0 {
		g, err := core.NewPlanGroup(plans)
		if err != nil {
			// A bucket's members share one GroupClass by construction
			// (Mux keys buckets by it); a failure here is a bug.
			panic(fmt.Errorf("checker: plan group for same-class bucket: %w", err))
		}
		c.planGroup = g
		c.resBuf = make([]core.Result, len(plans))
	}
	if wasExt != c.useExt() && len(c.groups) > 0 {
		c.resyncExtractions()
	}
}

// resyncExtractions reconciles live group state with a changed useExt
// mode (a membership change added the first SOUND member or removed the
// last one). Count windows keep their extraction in per-point lockstep
// with the buffer, so a fresh extraction must be rebuilt immediately;
// time windows rebuild lazily at the next fire (ExtendFrom on an empty
// extraction extracts the full buffer); other kinds never use one.
func (c *streamChecker) resyncExtractions() {
	for _, g := range c.groups {
		if !c.useExt() {
			g.ext = nil
			continue
		}
		if c.asg.Kind == core.KindCount && g.bufs != nil {
			g.ext = make([]resample.Extraction, c.arity)
			for i := range g.bufs {
				g.ext[i].Extract(g.bufs[i])
			}
		} else {
			g.ext = nil
		}
	}
}
