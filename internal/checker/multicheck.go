package checker

import (
	"fmt"
	"sync/atomic"

	"sound/internal/core"
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
// name is the Mux registration handle and template the constraint's
// text ("" for a user constraint); an operator snapshot records both so
// a restore can verify it resumes the same registrations.
type memberSpec struct {
	name      string
	template  string
	check     core.Check
	plan      *core.CheckPlan
	naive     bool
	out       *StreamOutcomes
	onOutcome func(key string, o core.Outcome)
}

// newMemberSpec compiles one registered check and validates it can
// stream.
func newMemberSpec(cfg MuxCheck) (*memberSpec, error) {
	ck := cfg.Check
	plan, err := core.CompilePlan(ck, cfg.Params, cfg.Seed)
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
	// CompilePlan validated the constraint, so the text is missing only
	// for a user constraint.
	template, _ := core.FormatTemplate(ck.Constraint)
	return &memberSpec{name: cfg.Name, template: template, check: plan.Check(), plan: plan, naive: cfg.Naive, out: cfg.Out, onOutcome: cfg.OnOutcome}, nil
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

// groupCounts is one worker's tally of a bucket's counters since its
// last publish. It is plain memory: only the owning worker touches it.
type groupCounts struct {
	windows, memberEvals, draws, collapsed, retired, primes int64
}

func (n *groupCounts) record(ev core.GroupEval, members int) {
	n.windows++
	n.memberEvals += int64(members)
	n.draws += int64(ev.Draws)
	n.collapsed += int64(ev.Collapsed)
	n.retired += int64(ev.Retired)
	n.primes += int64(ev.Primes)
}

// publish moves a worker's tally into the shared counters and clears
// it. The operator publishes at the end of a frame or a flush (see
// processPublishEvery for per-event delivery), not once per fired
// window, so a point-window lane pays one batch of atomic adds per frame
// and the workers of one node do not bounce the bucket's counters
// between cores at every window.
func (gm *GroupMetrics) publish(n *groupCounts) {
	if n.windows == 0 {
		return
	}
	gm.windows.Add(n.windows)
	gm.memberEvals.Add(n.memberEvals)
	gm.draws.Add(n.draws)
	gm.collapsed.Add(n.collapsed)
	gm.retired.Add(n.retired)
	gm.primes.Add(n.primes)
	*n = groupCounts{}
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
}
