package checker

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sound/internal/checkpoint"
	"sound/internal/core"
	"sound/internal/stream"
)

// ckptCheck is a borderline SOUND-mode sliding-window check: overlapping
// windows keep shared extraction state alive across the snapshot, and
// borderline values keep the evaluator drawing samples, so any window
// state the codec failed to carry would change the restored run's verdicts.
func ckptCheck() core.Check {
	return core.Check{
		Name:        "range",
		Constraint:  core.Range(0, 100),
		SeriesNames: []string{"s"},
		Window:      core.TimeWindow{Size: 12, Slide: 5},
	}
}

func ckptEvents(n int) []stream.Event {
	evs := make([]stream.Event, 0, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("g%d", i%3)
		ev := stream.Event{Time: float64(i), Key: key, Value: 90 + float64(i%13), SigUp: 3, SigDown: 2}
		if i%7 == 0 {
			ev.SigUp, ev.SigDown = 0, 0 // mix in certain points
		}
		evs = append(evs, ev)
	}
	return evs
}

// newCkptWorker builds a registered single worker and returns it with
// its outcome trace sink.
func newCkptWorker(t *testing.T, reg *StreamRegistry, trace *[]string) *streamChecker {
	t.Helper()
	out := &StreamOutcomes{}
	factory, err := NewStreamChecker(StreamCheck{
		Check:    ckptCheck(),
		Params:   core.DefaultParams(),
		Seed:     4242,
		Out:      out,
		Registry: reg,
		OnOutcome: func(key string, o core.Outcome) {
			*trace = append(*trace, fmt.Sprintf("%s=%d", key, o))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	proc := factory().(*streamChecker)
	proc.SetWorkerIndex(0)
	return proc
}

// TestStreamRegistryRestoreParity is the in-package half of the restore
// parity contract: snapshot a worker mid-stream, restore it into a
// fresh operator, feed both the identical remaining events, and require
// the identical outcome sequence — window grids, extraction state and
// LRU order all have to survive the codec for this to hold on borderline
// data (the draws need nothing from it: they are seeded per window). The
// snapshot must also re-encode from the restored worker byte-for-byte.
func TestStreamRegistryRestoreParity(t *testing.T) {
	events := ckptEvents(200)
	mid := 117 // mid-window for every group

	var baseTrace []string
	reg := NewStreamRegistry()
	orig := newCkptWorker(t, reg, &baseTrace)
	for _, ev := range events[:mid] {
		orig.Process(ev, discardEmit)
	}
	enc := checkpoint.NewEncoder()
	reg.EncodeTo(enc)
	snap := enc.Finish()

	// The original continues to the end of the stream.
	tailStart := len(baseTrace)
	for _, ev := range events[mid:] {
		orig.Process(ev, discardEmit)
	}
	orig.Flush(discardEmit)
	wantTail := baseTrace[tailStart:]
	if len(wantTail) == 0 {
		t.Fatal("no outcomes after the snapshot point, parity test is vacuous")
	}

	// A fresh registry + worker restored from the snapshot replays the
	// tail bit-identically.
	var restTrace []string
	reg2 := NewStreamRegistry()
	dec, err := checkpoint.NewDecoder(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg2.DecodeFrom(dec); err != nil {
		t.Fatal(err)
	}
	restored := newCkptWorker(t, reg2, &restTrace)
	if restored.LiveGroups() != 3 {
		t.Fatalf("restored worker has %d groups, want 3", restored.LiveGroups())
	}

	// Before replaying: the restored registry must re-encode to the
	// exact snapshot document — worker payloads in LRU order and outcome
	// counters all byte-identical.
	enc2 := checkpoint.NewEncoder()
	reg2.EncodeTo(enc2)
	if !bytes.Equal(snap, enc2.Finish()) {
		t.Error("restored registry re-encodes to different bytes")
	}

	for _, ev := range events[mid:] {
		restored.Process(ev, discardEmit)
	}
	restored.Flush(discardEmit)
	if !slices.Equal(restTrace, wantTail) {
		t.Errorf("restored tail diverged:\n got %v\nwant %v", restTrace, wantTail)
	}
}

// TestStreamRegistryCorruptSnapshot: a flipped byte and a truncated
// document must fail loudly at decode time, and a structurally valid
// document with a garbage worker payload must refuse to start the
// worker rather than silently running from empty state.
func TestStreamRegistryCorruptSnapshot(t *testing.T) {
	var trace []string
	reg := NewStreamRegistry()
	w := newCkptWorker(t, reg, &trace)
	for _, ev := range ckptEvents(60) {
		w.Process(ev, discardEmit)
	}
	enc := checkpoint.NewEncoder()
	reg.EncodeTo(enc)
	snap := enc.Finish()

	flipped := append([]byte(nil), snap...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := checkpoint.NewDecoder(flipped); err == nil {
		t.Error("flipped byte passed CRC validation")
	}
	if _, err := checkpoint.NewDecoder(snap[:len(snap)-3]); err == nil {
		t.Error("truncated document accepted")
	}

	// Valid frame, garbage worker payload: DecodeFrom holds it pending,
	// and applying it at registration must panic (the engine's recover
	// turns that into a run error).
	bad := checkpoint.NewEncoder()
	bad.Int(1)                                // one worker
	bad.Int(0)                                // slot 0
	bad.Bytes([]byte{0xde, 0xad, 0xbe, 0xef}) // not a worker payload
	bad.Bool(false)                           // no outcome block
	reg2 := NewStreamRegistry()
	dec, err := checkpoint.NewDecoder(bad.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if err := reg2.DecodeFrom(dec); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Error("corrupt worker payload applied without panic")
		} else if !strings.Contains(fmt.Sprint(r), "restoring stream worker") {
			t.Errorf("panic = %v, want a restore error", r)
		}
	}()
	newCkptWorker(t, reg2, &trace)
}

// TestSuiteCheckpointResume: interrupt a batch suite after its first
// check, checkpoint the partial results, restore, and finish with
// RunFrom — the combined map must be deeply identical to an
// uninterrupted run, including the regenerated window tuples.
func TestSuiteCheckpointResume(t *testing.T) {
	s := buildSuite(t)
	params := core.DefaultParams()
	const seed = 42
	full, err := s.Run(params, seed)
	if err != nil {
		t.Fatal(err)
	}

	// "Interrupted" after the first check only.
	first := s.Checks[0].Name
	partial := map[string][]core.Result{first: full[first]}
	snap, err := s.Checkpoint(params, seed, partial)
	if err != nil {
		t.Fatal(err)
	}

	gotParams, gotSeed, done, err := RestoreSuite(s, snap)
	if err != nil {
		t.Fatal(err)
	}
	if gotSeed != seed {
		t.Errorf("restored seed = %d, want %d", gotSeed, seed)
	}
	if !reflect.DeepEqual(gotParams, params) {
		t.Errorf("restored params = %+v, want %+v", gotParams, params)
	}
	if !reflect.DeepEqual(done, partial) {
		t.Error("restored results differ from the checkpointed partial map")
	}
	resumed, err := s.RunFrom(context.Background(), gotParams, gotSeed, done)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, full) {
		t.Error("resumed suite differs from uninterrupted run")
	}
}

// TestSuiteCheckpointValidation covers the loud-failure paths: results
// for a check the suite does not know, and a checkpoint whose window
// count no longer matches the pipeline.
func TestSuiteCheckpointValidation(t *testing.T) {
	s := buildSuite(t)
	params := core.DefaultParams()
	full, err := s.Run(params, 42)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := s.Checkpoint(params, 42, map[string][]core.Result{"ghost": nil}); err == nil || !strings.Contains(err.Error(), "unknown check") {
		t.Errorf("unknown-check checkpoint: err = %v", err)
	}

	second := s.Checks[1].Name
	snap, err := s.Checkpoint(params, 42, map[string][]core.Result{second: full[second]})
	if err != nil {
		t.Fatal(err)
	}
	// Change the windowing of the completed check: the regenerated tuple
	// count no longer matches and the restore must refuse.
	s.Checks[1].Window = core.TimeWindow{Size: 25}
	if _, _, _, err := RestoreSuite(s, snap); err == nil || !strings.Contains(err.Error(), "windows") {
		t.Errorf("window-count mismatch: err = %v", err)
	}
}
