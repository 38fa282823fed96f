package checker

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"testing"

	"sound/internal/checkpoint"
	"sound/internal/core"
	"sound/internal/stream"
	"sound/internal/wire"
)

// hashParityEvents is a keyed stream with churn: five keys live at a
// time and the set moves on by one key every 40 events, a one-shot cold
// key drops in every 97 events, and times run slightly out of order.
// Under hashParityEvict the cap evicts every key that leaves (and, at a
// cold key, one that is still live) and the TTL sweeps the cold keys, so
// evicted group structs are taken over by other keys again and again.
// Values sit on the range bound with asymmetric errors, so verdicts
// depend on the window's draws and with them on the key's hash.
func hashParityEvents() []stream.Event {
	var evs []stream.Event
	for i := 0; i < 1200; i++ {
		key := fmt.Sprintf("k%02d", i/40+i%5)
		if i%97 == 50 {
			key = fmt.Sprintf("cold%d", i)
		}
		evs = append(evs, stream.Event{Time: float64(i)/4 + float64(i%3)*0.15, Key: key,
			Value: 94 + float64(i%9), SigUp: 3, SigDown: 2})
	}
	return evs
}

var hashParityEvict = EvictionPolicy{MaxGroups: 5, TTL: 3}

// hashParityRun is what one run of hashParityOp observed: the
// (check, key, outcome) sequence and each check's counters.
type hashParityRun struct {
	trace     []string
	counts    []OutcomeCounts
	lifecycle []LifecycleCounts
}

// hashParityOp is an operator of a Mux hosting two SOUND checks that
// share a bucket and a naive one in a bucket of its own, all on win,
// under hashParityEvict; every outcome is appended to trace.
func hashParityOp(t *testing.T, win core.Windower, trace *[]string) (*muxOp, []*StreamOutcomes) {
	t.Helper()
	x := NewMux(false, hashParityEvict)
	var outs []*StreamOutcomes
	for _, c := range []struct {
		name  string
		cons  core.Constraint
		naive bool
	}{
		{"range", core.Range(0, 100), false},
		{"frac", core.FractionInRange(95, 100, 0.6), false},
		{"base", core.Range(0, 100), true},
	} {
		name, out := c.name, &StreamOutcomes{}
		outs = append(outs, out)
		err := x.Register(MuxCheck{
			Name:    name,
			Check:   core.Check{Name: name, Constraint: c.cons, SeriesNames: []string{"s"}, Window: win},
			Params:  core.DefaultParams(),
			Seed:    77,
			Naive:   c.naive,
			RouteID: "event",
			Out:     out,
			OnOutcome: func(key string, o core.Outcome) {
				*trace = append(*trace, fmt.Sprintf("%s/%s=%d", name, key, o))
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return x.Factory()().(*muxOp), outs
}

func (r *hashParityRun) finish(outs []*StreamOutcomes) {
	for _, out := range outs {
		r.counts = append(r.counts, out.Counts())
		r.lifecycle = append(r.lifecycle, out.Lifecycle())
	}
}

func (r *hashParityRun) diff(t *testing.T, what string, want *hashParityRun) {
	t.Helper()
	if len(want.trace) == 0 {
		t.Fatal("the reference run delivered no verdict")
	}
	if !slices.Equal(r.trace, want.trace) {
		n := 0
		for n < min(len(r.trace), len(want.trace)) && r.trace[n] == want.trace[n] {
			n++
		}
		t.Fatalf("%s: %d verdicts, reference %d; first difference at verdict %d", what, len(r.trace), len(want.trace), n)
	}
	if !slices.Equal(r.counts, want.counts) || !slices.Equal(r.lifecycle, want.lifecycle) {
		t.Fatalf("%s: counts %v lifecycle %v, reference %v %v", what, r.counts, r.lifecycle, want.counts, want.lifecycle)
	}
}

// decodedFrames sends events through the binary frame codec in frames of
// size events and returns copies of the decoded frames: events as the
// TCP ingest path hands them on, each carrying the hash its decoder
// computed.
func decodedFrames(t *testing.T, events []stream.Event, size int) [][]stream.Event {
	t.Helper()
	var buf []byte
	for i := 0; i < len(events); i += size {
		var err error
		if buf, err = wire.AppendFrame(buf, events[i:min(i+size, len(events))]); err != nil {
			t.Fatal(err)
		}
	}
	dec := wire.NewFrameDecoder(bytes.NewReader(buf))
	var frames [][]stream.Event
	for {
		evs, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			if ev.Hash != stream.KeyHash(ev.Key) {
				t.Fatalf("decoded event of key %q carries hash %#x, want %#x", ev.Key, ev.Hash, stream.KeyHash(ev.Key))
			}
		}
		frames = append(frames, slices.Clone(evs))
	}
	return frames
}

// TestCarriedHashParity: an event's carried key hash is only a cache of
// stream.KeyHash(Key). Fed the same stream as decoder-built frames with
// the hash set (the serving path) and as Hash-zero events one at a time
// (the standing benchmark's reference replay), a Mux operator must
// deliver the identical (check, key, outcome) sequence and counters, on
// time, count and session windows with groups evicted and their structs
// reused by other keys. A run snapshotted mid-stream and restored, whose
// groups take their hashes from the restore, must deliver the same
// again: a reused struct that kept its old key's hash seeds that key's
// windows from the wrong key, and a group whose hash the restore did not
// set is never found again.
func TestCarriedHashParity(t *testing.T) {
	events := hashParityEvents()
	frames := decodedFrames(t, events, 64)
	const mid = 9 // frames before the snapshot
	for _, win := range []core.Windower{core.TimeWindow{Size: 6, Slide: 2}, core.CountWindow{Size: 5, Slide: 2}, core.SessionWindow{Gap: 1.5}} {
		t.Run(fmt.Sprintf("%T", win), func(t *testing.T) {
			var carried, zero, restored hashParityRun

			op, outs := hashParityOp(t, win, &carried.trace)
			for _, fr := range frames {
				op.ProcessFrame(fr, discardEmit)
			}
			op.Flush(discardEmit)
			carried.finish(outs)
			if lc := carried.lifecycle[0]; lc.EvictedGroups < 30 {
				t.Fatalf("%d groups evicted: the stream does not churn the group table", lc.EvictedGroups)
			}

			op, outs = hashParityOp(t, win, &zero.trace)
			for _, ev := range events {
				if ev.Hash != 0 {
					t.Fatal("reference event carries a hash")
				}
				op.Process(ev, discardEmit)
			}
			op.Flush(discardEmit)
			zero.finish(outs)
			zero.diff(t, "Hash-zero events through Process", &carried)

			op, outs = hashParityOp(t, win, &restored.trace)
			for _, fr := range frames[:mid] {
				op.ProcessFrame(fr, discardEmit)
			}
			enc := checkpoint.NewEncoder()
			for _, out := range outs {
				out.EncodeTo(enc)
			}
			if err := EncodeOperator(op, enc); err != nil {
				t.Fatal(err)
			}
			dec, err := checkpoint.NewDecoder(enc.Finish())
			if err != nil {
				t.Fatal(err)
			}
			op, outs = hashParityOp(t, win, &restored.trace)
			for _, out := range outs {
				if err := out.DecodeFrom(dec); err != nil {
					t.Fatal(err)
				}
			}
			if err := DecodeOperator(op, dec); err != nil {
				t.Fatal(err)
			}
			for _, fr := range frames[mid:] {
				op.ProcessFrame(fr, discardEmit)
			}
			op.Flush(discardEmit)
			restored.finish(outs)
			restored.diff(t, "snapshot and restore after frame 9", &carried)
		})
	}
}
