package core

import (
	"fmt"
	"math"

	"sound/internal/resample"
	"sound/internal/rng"
)

// This file implements the multiplexed multi-check evaluator: a
// PlanGroup buckets compiled CheckPlans that agree on (window spec,
// params class, arity, base seed) and evaluates every member on ONE
// shared extraction and ONE drawn sample matrix per block, instead of
// K independent Alg. 1 runs each paying its own extraction and its own
// Monte-Carlo draws. The draw stream is derived from the window
// coordinate alone (see WindowSeed), never from evaluator identity or
// arrival order, so shared-mode verdicts are invariant to check
// registration order, check count, worker count, batch size, and
// operator fusion. Members whose sample bit has a closed-form probability
// are decided without rows at all (level.go); each sample drawn for the
// rest is scored once for the whole lane — a row statistic several members
// read is computed once (rowstat.go) — and a member retires from the loop
// the moment Alg. 1 decides it; early-deciding checks never pay for late
// ones.

// GroupClass is the bucketing key for window multiplexing: checks
// whose classes compare equal may share one extraction and one sample
// matrix per window without changing any verdict, because the drawn
// realizations depend only on (params, window spec, input arity, base
// seed) — never on the constraint being scored.
type GroupClass struct {
	Params   Params
	Assigner WindowAssigner
	Arity    int
	Seed     uint64
}

// Class returns the plan's multiplexing bucket key (params normalized
// by compilation).
func (pl *CheckPlan) Class() GroupClass {
	return GroupClass{Params: pl.params, Assigner: pl.assigner, Arity: pl.check.Constraint.Arity, Seed: pl.seed}
}

// hash folds the class into a 64-bit group key by chaining the pure
// splitmix64 finalizer over every field. It is a stable function of the
// class values only — no map iteration, pointer identity, or process
// state — so the window-derived RNG streams (WindowSeed) reproduce
// across runs, restarts, and shard layouts.
func (c GroupClass) hash() uint64 {
	h := rng.Derive(0x534f554e44, c.Seed) // "SOUND"
	h = rng.Derive(h, uint64(c.Assigner.Kind))
	h = rng.Derive(h, math.Float64bits(c.Assigner.Size))
	h = rng.Derive(h, math.Float64bits(c.Assigner.Slide))
	h = rng.Derive(h, uint64(c.Assigner.Count))
	h = rng.Derive(h, uint64(c.Assigner.CountSlide))
	h = rng.Derive(h, math.Float64bits(c.Assigner.Gap))
	h = rng.Derive(h, uint64(c.Arity))
	h = rng.Derive(h, math.Float64bits(c.Params.Credibility))
	h = rng.Derive(h, uint64(c.Params.MaxSamples))
	h = rng.Derive(h, math.Float64bits(c.Params.PriorAlpha))
	h = rng.Derive(h, math.Float64bits(c.Params.PriorBeta))
	h = rng.Derive(h, uint64(c.Params.CheckInterval))
	h = rng.Derive(h, uint64(c.Params.MinSamples))
	h = rng.Derive(h, uint64(c.Params.BlockSize))
	return h
}

// groupMember is one plan's compiled scoring surface inside a group: its
// constraint, the index in its lane's levels of the level set its sample
// bit collapses onto (-1 when it can only score rows), and for a
// row-scoring member the index in the lane's stats of the row statistic the
// constraint reduces to (-1 when it needs the row itself).
type groupMember struct {
	cons  *Constraint
	level int
	slot  int
}

// groupLane is the shared draw machinery for one resampling strategy.
// Members whose constraints resample identically (same Strategy) share
// the lane's extraction and sample matrix; a group mixing point-wise
// and set semantics gets one lane per strategy, so the draw cost is
// O(#strategies × draws) per window — still flat in the member count.
type groupLane struct {
	strat   resample.Strategy
	r       *rng.Rand
	rs      *resample.Resampler
	members []int // member indices into PlanGroup.plans
	stats   []rowStat
	// levels are the distinct level sets of the lane's collapsible members,
	// miss and exact what the current window integrates to over each: the
	// table bracket, and the integral itself once a member needed it. u and
	// us are the uniform stream those members' sample bits are read off —
	// us[s] is sample s's uniform, generated as far as any member consumed
	// — and rows the members of the current window left to score rows.
	levels resample.Intervals
	miss   []resample.MissBound
	exact  []levelExact
	u      *rng.Rand
	us     []float64
	rows   []int
}

// GroupEval summarizes one shared window evaluation for the operator
// metrics: how many sample rows were physically drawn across the lanes,
// how many members were decided from their closed-form probability without
// any row (the collapse win), how many row-scoring members retired before
// their lane's last draw (the retire-on-decision win), and how many
// extractions were primed (one per lane touched — the sharing win is
// members − primes extractions avoided).
type GroupEval struct {
	Draws     int
	Collapsed int
	Retired   int
	Primes    int
}

// PlanGroup evaluates a bucket of same-class plans with shared draws.
// It is stateful scratch plus per-window-reseeded RNG lanes, not safe
// for concurrent use; create one per goroutine (cheap) like Evaluator.
// Membership is fixed at construction — dynamic suites rebuild the
// group, which is free because all randomness is window-derived and no
// state survives between windows.
type PlanGroup struct {
	// blockLoop carries the class's parameters and decision table, the
	// sample-matrix scratch every lane draws into, and the single-check
	// loop a one-member lane runs (kernel.go).
	blockLoop
	class  GroupClass
	hash   uint64
	plans  []*CheckPlan
	member []groupMember
	lanes  []*groupLane
	// live is the multi-member loop's undecided set, reused across windows.
	live []int
}

// NewPlanGroup compiles a group from plans that must all share one
// GroupClass (the caller buckets by CheckPlan.Class()).
func NewPlanGroup(plans []*CheckPlan) (*PlanGroup, error) {
	if len(plans) == 0 {
		return nil, fmt.Errorf("core: empty plan group")
	}
	cls := plans[0].Class()
	g := &PlanGroup{
		blockLoop: blockLoop{params: plans[0].params, bounds: plans[0].bounds},
		class:     cls,
		hash:      cls.hash(),
		plans:     plans,
		member:    make([]groupMember, len(plans)),
	}
	byStrat := map[resample.Strategy]*groupLane{}
	for i, pl := range plans {
		if pl.Class() != cls {
			return nil, fmt.Errorf("core: plan %q class differs from group class", pl.check.Name)
		}
		strat := pl.check.Constraint.Strategy()
		lane := byStrat[strat]
		if lane == nil {
			r := rng.New(0)
			rs := resample.New(strat, r.Split())
			if strat == resample.Sequence && g.params.BlockSize > 0 {
				rs.SetBlockSize(g.params.BlockSize)
			}
			lane = &groupLane{strat: strat, r: r, rs: rs, u: rng.New(0)}
			byStrat[strat] = lane
			g.lanes = append(g.lanes, lane)
		}
		lane.members = append(lane.members, i)
		m := groupMember{cons: &pl.check.Constraint, level: -1, slot: -1}
		if iv, ok := levelSet(&m.cons.Spec, strat); ok && cls.Arity == 1 {
			m.level = lane.levels.Add(iv)
		} else {
			m.slot = statSlot(&lane.stats, &m.cons.Spec)
		}
		g.member[i] = m
	}
	for _, lane := range g.lanes {
		lane.miss = make([]resample.MissBound, len(lane.levels.All))
		lane.exact = make([]levelExact, len(lane.levels.All))
	}
	return g, nil
}

// Class returns the group's bucket key.
func (g *PlanGroup) Class() GroupClass { return g.class }

// Members returns the number of plans in the group.
func (g *PlanGroup) Members() int { return len(g.plans) }

// Plans returns the member plans in group order.
func (g *PlanGroup) Plans() []*CheckPlan { return g.plans }

// WindowSeed derives the shared draw stream for one (group, key,
// window) coordinate: chained splitmix64 finalization of the group key,
// the partition-key hash, and the window's own coordinate bits. Every
// input is a pure function of what is being evaluated — nothing about
// who evaluates it — which is the whole invariance argument: any
// worker, any shard, any registration order computes the same seed and
// therefore draws the same sample matrix.
func (g *PlanGroup) WindowSeed(keyHash, windowBits uint64) uint64 {
	return rng.Derive(rng.Derive(g.hash, keyHash), windowBits)
}

// laneStream gives each strategy lane a distinct derived stream under
// one window seed (offset so stream 0 is never consumed twice).
func laneStream(s resample.Strategy) uint64 { return uint64(s) + 1 }

// bitStream is the lane's uniform stream under the same window seed, the
// one its collapsed members read their sample bits off; it continues the
// numbering after laneStream's 1..3.
func bitStream(s resample.Strategy) uint64 { return uint64(s) + 4 }

// Evaluate runs Alg. 1 for every member on the window tuple, writing
// member i's result to out[i] (len(out) must be Members()). Each lane is
// reseeded from the window seed and primed once. Members whose sample bit
// has a closed-form probability on this window are decided first, from the
// lane's uniform stream, without a row (collapse); what runs for the rest
// is chosen by their count. One member has nothing to share and takes the
// single-check block loop (evaluateBlocks), which scores a block with one
// kernel call per row and no per-member bookkeeping; two or more take
// evaluateLane; none draws nothing. By the sample-stream prefix property
// both loops produce the same Result for a member, and a collapsed
// member's bits are a function of its own probability and the lane's
// uniforms alone, so a check's verdict does not move when a neighbour
// joins or leaves its lane. The trajectory each member sees is exactly the
// scalar Alg. 1 trajectory over its bits: per sample its own satisfied
// bit, its own Beta posterior, its own decision schedule — members differ
// only in which verdict their bits imply, never in which samples exist.
func (g *PlanGroup) Evaluate(winSeed uint64, w WindowTuple, out []Result) GroupEval {
	var ev GroupEval
	for i := range out {
		out[i] = Result{}
		out[i].Window.Windows = w.Windows
		out[i].Window.Start = w.Start
		out[i].Window.End = w.End
		out[i].Window.Index = w.Index
	}
	if empty(w.Windows) {
		for i := range out {
			out[i].ViolationProb = 0.5
			out[i].Lower, out[i].Upper = g.bounds.priorLower, g.bounds.priorUpper
		}
		return ev
	}
	for _, lane := range g.lanes {
		lane.r.Reseed(rng.Derive(winSeed, laneStream(lane.strat)))
		rs := lane.rs
		rs.Reseed(lane.r)
		if w.Ext != nil {
			rs.PrimeViews(w.Windows, w.Ext)
		} else {
			rs.Prime(w.Windows)
		}
		ev.Primes++
		if lane.strat == resample.Point && rs.PrimedAllCertain() {
			// Every member's verdict is constant across samples: score the
			// single raw draw once per member and replay its schedule.
			vals := rs.Draw(w.Windows)
			ev.Draws++
			for _, mi := range lane.members {
				g.replayCertain(&out[mi], g.member[mi].cons.Eval(vals))
			}
			continue
		}
		rows := lane.members
		if len(lane.miss) > 0 && rs.WindowSafe(0) && rs.MissBounds(0, &lane.levels, lane.miss) {
			rows = g.collapse(lane, winSeed, len(w.Windows[0]), out)
			ev.Collapsed += len(lane.members) - len(rows)
		}
		switch len(rows) {
		case 0:
		case 1:
			mi := rows[0]
			g.evaluateBlocks(&out[mi], g.member[mi].cons, rs, w)
			ev.Draws += out[mi].Samples
		default:
			g.evaluateLane(lane, rows, w, out, &ev)
		}
	}
	return ev
}

// collapse decides every member of a primed unary lane whose sample bit is
// Bernoulli(p) in closed form, from the table brackets MissBounds just left
// in lane.miss, and returns the members left to score rows. Sample s's bit
// is u_s < p on one uniform stream per (window, lane): the stream is seeded
// from the window coordinate like the lane's draws, and every collapsed
// member reads the same u_s, so their bits are comonotone — a member with
// the larger p satisfies every sample a member with the smaller p does, as
// nested thresholds do on a shared row — and no verdict depends on member
// index or count. p itself is only computed when some consumed u_s falls
// inside the table bracket of it.
func (g *PlanGroup) collapse(lane *groupLane, winSeed uint64, n int, out []Result) []int {
	lane.u.Reseed(rng.Derive(winSeed, bitStream(lane.strat)))
	lane.us = lane.us[:0]
	clear(lane.exact)
	p := g.params
	maxS, minS, ci := p.MaxSamples, p.MinSamples, p.CheckInterval
	rows := lane.rows[:0]
	for _, mi := range lane.members {
		m := &g.member[mi]
		if m.level < 0 {
			rows = append(rows, mi)
			continue
		}
		sp, res := &m.cons.Spec, &out[mi]
		lo, hi := bracketP(lane.miss[m.level], sp, lane.strat, n)
		cs, i := 0, 0
		for i < maxS && res.Outcome == Inconclusive {
			if i == len(lane.us) {
				lane.us = append(lane.us, lane.u.Float64())
			}
			u := lane.us[i]
			i++
			if u >= lo && u < hi {
				x := &lane.exact[m.level]
				if !x.done {
					x.missSum, x.hitAll = lane.rs.Miss(0, lane.levels.All[m.level])
					x.done = true
				}
				lo = exactP(sp, lane.strat, n, x.missSum, x.hitAll)
				hi = lo
			}
			if u < lo {
				cs++
			}
			res.Outcome = g.bounds.decide(cs, i, minS, ci, maxS)
		}
		res.Samples = i
		g.finish(res, cs)
	}
	lane.rows = rows
	return rows
}

// evaluateLane walks the shared block loop for two or more members of a
// primed lane. live holds the undecided member indices; cs
// trajectories ride in out[mi].SatisfiedCount until finish. Every member
// runs the exact scalar schedule of Alg. 1 on its own satisfied bits, so
// drawing to the max edge over members (nextDecision) cannot move any
// member's stopping index: the edge only bounds how far the shared stream
// is materialized.
func (g *PlanGroup) evaluateLane(lane *groupLane, members []int, w WindowTuple, out []Result, ev *GroupEval) {
	rs := lane.rs
	p := g.params
	maxS, minS, ci := p.MaxSamples, p.MinSamples, p.CheckInterval
	kernelOK := kernelReady(rs, len(w.Windows))
	// Row statistics stand in for the kernel only where its precondition
	// holds and the row has a first value to seed the extremes.
	shareOK := kernelOK && len(w.Windows[0]) > 0
	chunk := blockChunk(w, maxS)
	if cap(g.live) < len(members) {
		g.live = make([]int, 0, len(members))
	}
	live := append(g.live[:0], members...)
	stats := lane.stats
	for si := range stats {
		stats[si].users = 0
	}
	for _, mi := range live {
		if slot := g.member[mi].slot; slot >= 0 {
			stats[slot].users++
		}
	}
	vals := g.rowVals(len(w.Windows))
	laneDraws := 0
	i := 0
	for i < maxS && len(live) > 0 {
		// Block edge: the furthest any undecided member could need before
		// its next possible decision. Members whose trajectory can never
		// conclude (nextDecision 0) pin the edge at the sample budget.
		edge := 0
		for _, mi := range live {
			j := g.bounds.nextDecision(out[mi].SatisfiedCount, i, minS, ci, maxS)
			if j == 0 {
				j = maxS
			}
			if j > edge {
				edge = j
			}
		}
		for i < edge && len(live) > 0 {
			k := min(edge-i, chunk)
			rs.DrawBlock(w.Windows, k, &g.blk)
			laneDraws += k
			// Sample-major scoring: scan each statistic two or more live
			// members read once per row, give every live member its
			// satisfied bit and its decision check, and compact the live
			// set in place as members retire.
			for s := 0; s < k && len(live) > 0; s++ {
				for wi := range vals {
					vals[wi] = g.blk.Row(wi, s)
				}
				for si := range stats {
					st := &stats[si]
					if st.shared = shareOK && st.users >= 2; st.shared {
						st.scan(vals[0])
					}
				}
				idx := i + s + 1
				kept := live[:0]
				for _, mi := range live {
					m, res := &g.member[mi], &out[mi]
					var sat bool
					switch {
					case m.slot >= 0 && stats[m.slot].shared:
						sat = stats[m.slot].sat(&m.cons.Spec)
					case kernelOK && m.cons.Spec.Op != KernelNone:
						sat = kernelSat(&m.cons.Spec, vals)
					default:
						sat = m.cons.Eval(vals)
					}
					if sat {
						res.SatisfiedCount++
					}
					res.Outcome = g.bounds.decide(res.SatisfiedCount, idx, minS, ci, maxS)
					if res.Outcome == Inconclusive {
						kept = append(kept, mi)
						continue
					}
					res.Samples = idx
					if m.slot >= 0 {
						stats[m.slot].users--
					}
					g.finish(res, res.SatisfiedCount)
				}
				live = kept
			}
			i += k
		}
	}
	// Members still undecided exhausted the budget: Inconclusive at maxS,
	// exactly as the scalar loop reports when no boundary was hit.
	for _, mi := range live {
		res := &out[mi]
		res.Samples = i
		g.finish(res, res.SatisfiedCount)
	}
	ev.Draws += laneDraws
	for _, mi := range members {
		if out[mi].Outcome != Inconclusive && out[mi].Samples < laneDraws {
			ev.Retired++
		}
	}
}
