package sound

import (
	"sound/internal/checker"
	"sound/internal/checkpoint"
	"sound/internal/stream"
)

// Deterministic state lifecycle (DESIGN.md §4i): bounded-memory keyed
// state for long-running stream checks, and bit-identical
// checkpoint/restore for the online operator. A batch run needs no
// snapshot: every window's draws are seeded from the window itself, so
// re-running a check reproduces its results, and `soundcheck -stream
// -checkpoint` is the one resume path.
//
// Whoever drives a Mux operator snapshots it between two calls —
// EncodeOperator writes each bucket's identity (its group class and
// each member's name, naive flag and template text), and per window
// group its grid position and buffered points, the caller's
// StreamOutcomes.EncodeTo its counters — and DecodeOperator loads the
// state into a fresh operator of a Mux with the same registrations,
// which then resumes the stream bit-identically (see cmd/soundcheck
// -checkpoint / -restore for a complete wiring). A snapshot holds no RNG
// position, because every window's draws are reseeded from the window's
// own coordinate, and no resampling extraction, which is rebuilt when a
// window is evaluated (codec version 6 — older snapshots are refused).

// EvictionPolicy bounds the keyed window state of a stream check
// operator: idle-TTL sweeps driven by the event-time watermark and a
// live group cap that evicts the least-recently-touched group. The zero
// value keeps every group forever.
type EvictionPolicy = checker.EvictionPolicy

// LifecycleCounts reports evicted groups and late-dropped events of a
// stream run (RejectedEvents is always 0).
type LifecycleCounts = checker.LifecycleCounts

// StreamOutcomes accumulates outcomes and lifecycle counters of online
// checking; its Lifecycle method exposes the LifecycleCounts.
type StreamOutcomes = checker.StreamOutcomes

// Mux is the registry behind the one online check operator: checks
// register and deregister at runtime, and Mux.Factory makes the stream
// operators that evaluate them, co-window checks sharing window state
// and draws.
type Mux = checker.Mux

// MuxCheck configures one registered check.
type MuxCheck = checker.MuxCheck

// NewMux returns an empty registry. forward passes every event through
// the operator unchanged; evict bounds each bucket's keyed state.
func NewMux(forward bool, evict EvictionPolicy) *Mux { return checker.NewMux(forward, evict) }

// EncodeOperator writes a Mux operator's state to enc; call it between
// two calls into the operator.
func EncodeOperator(p stream.Processor, enc *checkpoint.Encoder) error {
	return checker.EncodeOperator(p, enc)
}

// DecodeOperator loads EncodeOperator's output into a fresh operator of a
// Mux holding the same registrations, bucketed the same way. It errors on
// a corrupt payload, on different registrations (names, bucket split,
// parameters, window, seed, naive flag, or a template constraint's
// bounds), and on an operator that has already seen events.
func DecodeOperator(p stream.Processor, dec *checkpoint.Decoder) error {
	return checker.DecodeOperator(p, dec)
}
