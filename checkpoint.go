package sound

import (
	"sound/internal/checker"
	"sound/internal/stream"
)

// Deterministic state lifecycle (DESIGN.md §4i): bounded-memory keyed
// state for long-running stream checks, and bit-identical
// checkpoint/restore for both the batch Suite and the online operator.
//
// Batch flow:
//
//	snap, _ := suite.Checkpoint(params, seed, partial)   // Suite method
//	params, seed, done, _ := sound.RestoreSuite(suite, snap)
//	results, _ := suite.RunFrom(ctx, params, seed, done) // finishes the rest
//
// Stream flow: give the operator a StreamRegistry, drive the graph from
// a stream.Graph.AddCheckpointSource generator, and serialize the
// registry inside the barrier callback. Restoring the registry into a
// fresh graph resumes the stream bit-identically (see cmd/soundcheck
// -checkpoint / -restore for a complete wiring). A stream snapshot is
// watermarks, window groups and counters; it holds no RNG position,
// because every window's draws are reseeded from the window's own
// coordinate (codec version 2 — version-1 snapshots are refused).

// EvictionPolicy bounds the keyed window state of a stream check
// operator: idle-TTL sweeps driven by the event-time watermark, a live
// group cap, and a byte budget with an evict-or-reject decision hook.
// The zero value keeps every group forever.
type EvictionPolicy = checker.EvictionPolicy

// LifecycleCounts reports evicted groups, late-dropped events, and
// admission-rejected events of a stream run.
type LifecycleCounts = checker.LifecycleCounts

// StreamOutcomes accumulates outcomes and lifecycle counters of online
// checking; its Lifecycle method exposes the LifecycleCounts.
type StreamOutcomes = checker.StreamOutcomes

// StreamCheck configures the generic keyed stream check operator,
// including its eviction policy and checkpoint registry.
type StreamCheck = checker.StreamCheck

// NewStreamChecker compiles a check into a stream operator factory.
func NewStreamChecker(cfg StreamCheck) (func() stream.Processor, error) {
	return checker.NewStreamChecker(cfg)
}

// StreamRegistry makes one stream check operator checkpointable: it
// serializes every worker's state at a stream barrier and restores the
// payload into a fresh graph's workers.
type StreamRegistry = checker.StreamRegistry

// NewStreamRegistry returns an empty registry for one operator.
func NewStreamRegistry() *StreamRegistry { return checker.NewStreamRegistry() }

// RestoreSuite loads a Suite.Checkpoint document, returning the
// serialized parameters, seed, and completed results (windows
// regenerated from the pipeline). Completing the run with
// Suite.RunFrom is bit-identical to an uninterrupted run.
func RestoreSuite(s *Suite, data []byte) (Params, uint64, map[string][]Result, error) {
	return checker.RestoreSuite(s, data)
}
