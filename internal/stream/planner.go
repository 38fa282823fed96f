package stream

// This file is the fusion planner (DESIGN.md §4j): before a run, the
// graph is partitioned into *segments* — maximal chains of nodes whose
// connecting edges can be compiled away. Inside a segment events move
// by direct function call on one goroutine per worker; only the edges
// *between* segments materialize transport (an SPSC ring where the
// producer/consumer shape allows it, a Go channel otherwise). The
// linear source → checker → sink topology every current app and
// soundcheck -stream runs collapses into a single goroutine.
//
// Fusion legality. An edge a→b is fused away iff:
//
//   - a has exactly one downstream edge and b exactly one input edge
//     (single consumer: no fan-out duplication, no fan-in ordering);
//   - b is an operator with the same parallelism as a, and the edge is
//     either non-keyed or a is single-parallelism. Worker w of a then
//     feeds worker w of b: for a non-keyed edge any worker assignment
//     is legal (the shared channel never promised one), and for a
//     keyed edge a single partition is trivially key-local. A keyed
//     edge between parallel nodes must keep real routing, so it is
//     never fused;
//   - or b is a sink, and either a is single-parallelism or the sink
//     has no user function. A nil-fn sink is a pure metrics endpoint
//     whose per-frame recording is mutex-protected and order-free, so
//     it can be *replicated* into each worker of a parallel upstream —
//     eliminating the hottest merge edge of the benchmark topologies.
//
// Every fused chain preserves per-event order within a worker, the
// node lifecycle counters (folded shard-locally per stage), the
// barrier protocol (a segment quiesces as one participant per worker),
// and the FrameProcessor contract (inner stages buffer micro-frames up
// to the transport batch size), so outcomes are bit-identical with
// fusion on and off — the fusion dimension of the pinned golden suites.

// SetFusion turns operator fusion off (or back on) for this graph. A
// graph fuses unless told otherwise here, and nothing outside the tests
// does: the unfused plan — one segment per node, transport on every
// edge — is the reference the parity tests compare the fused one with.
// Fusion is a pure scheduling choice: results are bit-identical either way.
func (g *Graph) SetFusion(on bool) { g.fuse = on }

// segment is one scheduling unit of a planned run: a chain of fused
// nodes executed by `par` goroutines (workers). nodes[0] is the head —
// the node that still receives real transport (or generates, for a
// source head). A trailing sink node is executed inline as the chain's
// final stage; with a parallel head it is the replicated nil-fn case.
type segment struct {
	nodes []*Node
	par   int
}

func (s *segment) head() *Node { return s.nodes[0] }
func (s *segment) tail() *Node { return s.nodes[len(s.nodes)-1] }

// fusible reports whether edge e from a to b can be compiled away.
func fusible(a *Node, e *edge, b *Node) bool {
	if len(a.downstream) != 1 || b.inputs != 1 {
		return false
	}
	switch b.kind {
	case kindOperator:
		if a.parallelism != b.parallelism {
			return false
		}
		return !e.keyed || a.parallelism == 1
	case kindSink:
		return a.parallelism == 1 || b.sinkFn == nil
	}
	return false
}

// plan partitions the graph into segments and reports, per edge,
// whether it was fused away. With fuse=false every node is its own
// segment and every edge materializes transport — the pre-fusion
// engine, kept as the parity baseline and the fallback for topologies
// fusion cannot cover.
func (g *Graph) plan(fuse bool) (segs []*segment, inner map[*edge]bool) {
	inner = map[*edge]bool{}
	absorbed := map[*Node]bool{}
	if fuse {
		for _, a := range g.nodes {
			for _, e := range a.downstream {
				if fusible(a, e, e.to) {
					// b.inputs == 1 ⇒ e is b's only input edge, so this
					// marks each node absorbed at most once.
					inner[e] = true
					absorbed[e.to] = true
				}
			}
		}
	}
	for _, n := range g.nodes {
		if absorbed[n] {
			continue
		}
		s := &segment{nodes: []*Node{n}, par: n.parallelism}
		for cur := n; len(cur.downstream) == 1 && inner[cur.downstream[0]]; {
			cur = cur.downstream[0].to
			s.nodes = append(s.nodes, cur)
		}
		segs = append(segs, s)
	}
	return segs, inner
}

// ringEligible reports whether a cross-segment edge can ride an SPSC
// ring instead of a channel: the producing segment must be a single
// goroutine, the consumer must read this edge exclusively (one input
// edge), and each conduit must have a single reader — true for every
// partition of a keyed edge, and for a non-keyed edge only when the
// consumer is single-parallelism (a shared conduit with several
// stealing readers needs a channel).
func ringEligible(e *edge, producerPar int) bool {
	if producerPar != 1 || e.to.inputs != 1 {
		return false
	}
	return e.keyed || e.to.parallelism == 1
}
