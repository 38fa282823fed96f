package checker

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"strings"
	"testing"

	"sound/internal/checkpoint"
	"sound/internal/core"
	"sound/internal/stream"
)

// ckptCheck is a borderline SOUND-mode sliding-window check: overlapping
// windows keep buffered points alive across the snapshot, and
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

// newCkptOperator builds one operator of a Mux hosting ckptCheck alone
// and returns it with its outcome counters; every outcome is appended to
// trace.
func newCkptOperator(t testing.TB, evict EvictionPolicy, trace *[]string) (*muxOp, *StreamOutcomes) {
	t.Helper()
	out := &StreamOutcomes{}
	o, _ := loneOp(t, evict, MuxCheck{
		Check:  ckptCheck(),
		Params: core.DefaultParams(),
		Seed:   4242,
		Out:    out,
		OnOutcome: func(key string, o core.Outcome) {
			*trace = append(*trace, fmt.Sprintf("%s=%d", key, o))
		},
	})
	return o, out
}

// liveGroups is the live group count of the operator's only bucket.
func liveGroups(o *muxOp) int { return o.instances[0].op.LiveGroups() }

// ckptCases are the two shapes of operator state: without an eviction
// policy there is no recency list and groups are encoded in key order;
// with a group cap the list is live and groups are encoded coldest
// first. The capped stream visits a fourth key every 40 events, so the
// cap evicts and the recency order at the snapshot is not key order.
func ckptCases() []struct {
	name   string
	evict  EvictionPolicy
	events []stream.Event
} {
	capped := ckptEvents(200)
	for i := 10; i < len(capped); i += 40 {
		capped[i].Key = "rare"
	}
	return []struct {
		name   string
		evict  EvictionPolicy
		events []stream.Event
	}{
		{"unbounded", EvictionPolicy{}, ckptEvents(200)},
		{"maxgroups", EvictionPolicy{MaxGroups: 3}, capped},
	}
}

// snapshotOperator writes the operator's state and the counters the
// way soundcheck -stream does: counters first, operator state last.
func snapshotOperator(t testing.TB, c *muxOp, out *StreamOutcomes) []byte {
	t.Helper()
	enc := checkpoint.NewEncoder()
	out.EncodeTo(enc)
	if err := EncodeOperator(c, enc); err != nil {
		t.Fatal(err)
	}
	return enc.Finish()
}

// restoreOperator loads a snapshotOperator document into a fresh
// operator and fresh counters.
func restoreOperator(t testing.TB, snap []byte, evict EvictionPolicy, trace *[]string) (*muxOp, *StreamOutcomes) {
	t.Helper()
	c, out := newCkptOperator(t, evict, trace)
	dec, err := checkpoint.NewDecoder(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.DecodeFrom(dec); err != nil {
		t.Fatal(err)
	}
	if err := DecodeOperator(c, dec); err != nil {
		t.Fatal(err)
	}
	if rem := dec.Remaining(); rem != 0 {
		t.Fatalf("%d trailing bytes after the operator state", rem)
	}
	return c, out
}

// TestOperatorRestoreParity is the in-package half of the restore
// parity contract: snapshot an operator mid-stream, restore it into a
// fresh one, feed both the identical remaining events, and require the
// identical outcome sequence — window grids, extraction state and LRU
// order all have to survive the codec for this to hold on borderline
// data (the draws need nothing from it: they are seeded per window). The
// restored operator must also re-encode to the snapshot byte for byte,
// with and without a recency list: an encoder that walked the list of
// an operator that keeps none would write no groups and fail here.
func TestOperatorRestoreParity(t *testing.T) {
	const mid = 117 // mid-window for every group
	for _, tc := range ckptCases() {
		t.Run(tc.name, func(t *testing.T) {
			var baseTrace []string
			orig, origOut := newCkptOperator(t, tc.evict, &baseTrace)
			for _, ev := range tc.events[:mid] {
				orig.Process(ev, discardEmit)
			}
			snap := snapshotOperator(t, orig, origOut)
			live := liveGroups(orig)
			if live == 0 {
				t.Fatal("no live groups at the snapshot, parity test is vacuous")
			}

			// The original continues to the end of the stream.
			tailStart := len(baseTrace)
			for _, ev := range tc.events[mid:] {
				orig.Process(ev, discardEmit)
			}
			orig.Flush(discardEmit)
			wantTail := baseTrace[tailStart:]
			if len(wantTail) == 0 {
				t.Fatal("no outcomes after the snapshot point, parity test is vacuous")
			}

			var restTrace []string
			restored, out := restoreOperator(t, snap, tc.evict, &restTrace)
			if liveGroups(restored) != live {
				t.Fatalf("restored operator has %d groups, want %d", liveGroups(restored), live)
			}
			if again := snapshotOperator(t, restored, out); !bytes.Equal(snap, again) {
				t.Error("restored operator re-encodes to different bytes")
			}
			for _, ev := range tc.events[mid:] {
				restored.Process(ev, discardEmit)
			}
			restored.Flush(discardEmit)
			if !slices.Equal(restTrace, wantTail) {
				t.Errorf("restored tail diverged:\n got %v\nwant %v", restTrace, wantTail)
			}
			if got, want := out.Lifecycle(), origOut.Lifecycle(); got != want {
				t.Errorf("restored lifecycle counters %+v, want %+v", got, want)
			}
			if tc.evict.MaxGroups > 0 && out.Lifecycle().EvictedGroups == 0 {
				t.Error("capped case never evicted, its recency order is untested")
			}
		})
	}
}

// suiteMux registers a three-bucket suite on a fresh Mux: "range" and
// "frac" share one bucket, "tight" has a private one, and "mono" is a
// naive member on count windows. tweak, when non-nil, edits each
// registration before it is made, to build an operator whose
// registrations differ from the default suite's.
func suiteMux(t testing.TB, evict EvictionPolicy, trace *[]string, tweak func(*MuxCheck)) *Mux {
	t.Helper()
	x := NewMux(false, evict)
	reg := func(name string, c core.Constraint, win core.Windower, routeID string, naive bool) {
		mc := MuxCheck{
			Name:    name,
			Check:   core.Check{Name: name, Constraint: c, SeriesNames: []string{"s"}, Window: win},
			Params:  core.DefaultParams(),
			Seed:    4242,
			Naive:   naive,
			RouteID: routeID,
			OnOutcome: func(key string, o core.Outcome) {
				*trace = append(*trace, fmt.Sprintf("%s/%s=%d", name, key, o))
			},
		}
		if tweak != nil {
			tweak(&mc)
		}
		if err := x.Register(mc); err != nil {
			t.Fatal(err)
		}
	}
	sliding := core.TimeWindow{Size: 12, Slide: 5}
	reg("range", core.Range(0, 100), sliding, "key", false)
	reg("frac", core.FractionInRange(85, 100, 0.6), sliding, "key", false)
	reg("tight", core.Range(0, 97), sliding, "", false)
	reg("mono", core.MonotonicIncrease(false), core.CountWindow{Size: 8, Slide: 3}, "", true)
	return x
}

// TestMuxOperatorRestoreParity is the restore contract of the one stream
// operator: a Mux operator with a shared two-member bucket, a private
// bucket and a naive member is interrupted between two ProcessFrame
// calls, at frame sizes 1 and 64, with and without a group cap. The
// restored operator must deliver the verdict stream the uninterrupted
// one delivers and re-encode to the snapshot's bytes; an operator of a
// Mux registered under other names, another bucket split, another
// template text under the same name (other bounds, a -0 bound, the
// strict variant, a user constraint), another seed or another naive
// flag, and an operator that has seen events, must refuse the snapshot.
func TestMuxOperatorRestoreParity(t *testing.T) {
	// Mid-window for every group, off the 64-event frame grid, and right
	// before the capped stream's "rare" key arrives at event 130: the cap
	// then evicts the group the restored recency list names coldest, so a
	// list restored in any other order changes the verdicts.
	const mid = 130
	feed := func(o *muxOp, evs []stream.Event, frame int) {
		for len(evs) > 0 {
			n := min(frame, len(evs))
			o.ProcessFrame(evs[:n], discardEmit)
			evs = evs[n:]
		}
	}
	for _, tc := range ckptCases() {
		for _, frame := range []int{1, 64} {
			t.Run(fmt.Sprintf("%s/frame=%d", tc.name, frame), func(t *testing.T) {
				var baseTrace []string
				orig := suiteMux(t, tc.evict, &baseTrace, nil).Factory()().(*muxOp)
				if len(orig.instances) != 3 {
					t.Fatalf("suite runs in %d buckets, want 3", len(orig.instances))
				}
				feed(orig, tc.events[:mid], frame)
				enc := checkpoint.NewRawEncoder()
				if err := EncodeOperator(orig, enc); err != nil {
					t.Fatal(err)
				}
				snap := enc.Finish()
				tailStart := len(baseTrace)
				feed(orig, tc.events[mid:], frame)
				orig.Flush(discardEmit)
				wantTail := baseTrace[tailStart:]
				for _, name := range []string{"range", "frac", "tight", "mono"} {
					if !slices.ContainsFunc(wantTail, func(s string) bool { return strings.HasPrefix(s, name+"/") }) {
						t.Fatalf("check %q has no verdict after the snapshot, parity test is vacuous", name)
					}
				}

				var restTrace []string
				restored := suiteMux(t, tc.evict, &restTrace, nil).Factory()().(*muxOp)
				if err := DecodeOperator(restored, checkpoint.NewRawDecoder(snap)); err != nil {
					t.Fatal(err)
				}
				again := checkpoint.NewRawEncoder()
				if err := EncodeOperator(restored, again); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again.Finish(), snap) {
					t.Error("restored operator re-encodes to different bytes")
				}
				feed(restored, tc.events[mid:], frame)
				restored.Flush(discardEmit)
				if !slices.Equal(restTrace, wantTail) {
					t.Errorf("restored verdict stream diverged:\n got %v\nwant %v", restTrace, wantTail)
				}

				var scratch []string
				for name, tweak := range map[string]func(*MuxCheck){
					"renamed": func(mc *MuxCheck) {
						if mc.Name == "frac" {
							mc.Name = "frac2"
						}
					},
					"split": func(mc *MuxCheck) {
						if mc.Name == "frac" {
							mc.RouteID = ""
						}
					},
					"same name, other bounds": func(mc *MuxCheck) {
						if mc.Name == "tight" {
							mc.Check.Constraint = core.Range(0, 96)
						}
					},
					"same name, a -0 bound": func(mc *MuxCheck) {
						if mc.Name == "tight" {
							mc.Check.Constraint = core.Range(math.Copysign(0, -1), 97)
						}
					},
					"same name, strict variant": func(mc *MuxCheck) {
						if mc.Name == "mono" {
							mc.Check.Constraint = core.MonotonicIncrease(true)
						}
					},
					"same name, user constraint": func(mc *MuxCheck) {
						if mc.Name == "tight" {
							c := mc.Check.Constraint
							mc.Check.Constraint = core.Constraint{Name: c.Name, Granularity: c.Granularity, Orderedness: c.Orderedness,
								Arity: 1, Fn: func(vals [][]float64) bool { return true }}
						}
					},
					"other seed": func(mc *MuxCheck) { mc.Seed++ },
					"naive flipped": func(mc *MuxCheck) {
						if mc.Name == "mono" {
							mc.Naive = false
						}
					},
				} {
					x := suiteMux(t, tc.evict, &scratch, tweak)
					if err := DecodeOperator(x.Factory()(), checkpoint.NewRawDecoder(snap)); err == nil {
						t.Errorf("%s registrations accepted the snapshot", name)
					}
				}
				if err := DecodeOperator(orig, checkpoint.NewRawDecoder(snap)); err == nil || !strings.Contains(err.Error(), "already seen events") {
					t.Errorf("restore into a used operator: err = %v", err)
				}
			})
		}
	}
}

// TestOperatorCorruptSnapshot: a flipped byte and a truncated document
// fail at the header check; a garbage or truncated operator payload, a
// payload whose groups are out of key order for an operator without a
// recency list, an operator that has already seen events, and a
// processor that is no Mux operator all return errors — none panics,
// and none starts silently from empty state.
func TestOperatorCorruptSnapshot(t *testing.T) {
	var trace []string
	c, out := newCkptOperator(t, EvictionPolicy{}, &trace)
	for _, ev := range ckptEvents(60) {
		c.Process(ev, discardEmit)
	}
	snap := snapshotOperator(t, c, out)

	// A version-5 document, its checksum intact, is refused by version.
	v5 := append([]byte(nil), snap[:len(snap)-4]...)
	binary.LittleEndian.PutUint16(v5[len(checkpoint.Magic):], 5)
	v5 = binary.LittleEndian.AppendUint32(v5, crc32.ChecksumIEEE(v5))
	if _, err := checkpoint.NewDecoder(v5); err == nil || !strings.Contains(err.Error(), "version 5, want 6") {
		t.Errorf("version-5 document: err = %v, want the version mismatch", err)
	}

	flipped := append([]byte(nil), snap...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := checkpoint.NewDecoder(flipped); err == nil {
		t.Error("flipped byte passed CRC validation")
	}
	if _, err := checkpoint.NewDecoder(snap[:len(snap)-3]); err == nil {
		t.Error("truncated document accepted")
	}

	raw := checkpoint.NewRawEncoder()
	if err := EncodeOperator(c, raw); err != nil {
		t.Fatal(err)
	}
	payload := raw.Finish()
	for name, bad := range map[string][]byte{
		"garbage":   {0xde, 0xad, 0xbe, 0xef},
		"truncated": payload[:len(payload)-9],
	} {
		fresh, _ := newCkptOperator(t, EvictionPolicy{}, &trace)
		if err := DecodeOperator(fresh, checkpoint.NewRawDecoder(bad)); err == nil {
			t.Errorf("%s payload accepted", name)
		}
	}

	// The same three groups written hottest key first: refused where the
	// order must be key order, accepted as an LRU order by a capped one.
	eng := c.instances[0].op
	groups := eng.sortedGroups()
	rev := checkpoint.NewRawEncoder()
	rev.Int(1)
	eng.encodeMembers(rev)
	rev.F64(eng.opWatermark)
	rev.Int(len(groups))
	for i := len(groups) - 1; i >= 0; i-- {
		groups[i].encodeTo(rev)
	}
	reversed := rev.Finish()
	fresh, _ := newCkptOperator(t, EvictionPolicy{}, &trace)
	if err := DecodeOperator(fresh, checkpoint.NewRawDecoder(reversed)); err == nil || !strings.Contains(err.Error(), "key order") {
		t.Errorf("groups out of key order: err = %v", err)
	}
	capped, _ := newCkptOperator(t, EvictionPolicy{MaxGroups: 8}, &trace)
	if err := DecodeOperator(capped, checkpoint.NewRawDecoder(reversed)); err != nil {
		t.Errorf("LRU-ordered groups refused by a capped operator: %v", err)
	}

	if err := DecodeOperator(c, checkpoint.NewRawDecoder(payload)); err == nil || !strings.Contains(err.Error(), "already seen events") {
		t.Errorf("restore into a used operator: err = %v", err)
	}
	var notCheck stream.Processor = stream.ProcessorFunc(func(stream.Event, stream.EmitFunc) {})
	if err := EncodeOperator(notCheck, checkpoint.NewRawEncoder()); err == nil {
		t.Error("EncodeOperator accepted a processor that is no Mux operator")
	}
	if err := DecodeOperator(notCheck, checkpoint.NewRawDecoder(payload)); err == nil {
		t.Error("DecodeOperator accepted a processor that is no Mux operator")
	}
}

// TestRestoreUserConstraintByName: a user constraint has no template
// text, so a snapshot knows it by its name alone and restores into an
// operator whose same-named check holds another function.
func TestRestoreUserConstraintByName(t *testing.T) {
	user := func(bound float64) MuxCheck {
		ck := ckptCheck()
		ck.Constraint = core.Constraint{Name: "below", Granularity: core.PointWise, Arity: 1,
			Fn: func(vals [][]float64) bool { return slices.Max(append([]float64{math.Inf(-1)}, vals[0]...)) < bound }}
		return MuxCheck{Name: "user", Check: ck, Params: core.DefaultParams(), Seed: 4242}
	}
	orig, _ := loneOp(t, EvictionPolicy{}, user(100))
	for _, ev := range ckptEvents(60) {
		orig.Process(ev, discardEmit)
	}
	enc := checkpoint.NewRawEncoder()
	if err := EncodeOperator(orig, enc); err != nil {
		t.Fatal(err)
	}
	snap := enc.Finish()
	restored, _ := loneOp(t, EvictionPolicy{}, user(50))
	if err := DecodeOperator(restored, checkpoint.NewRawDecoder(snap)); err != nil {
		t.Fatalf("same-named user constraint refused: %v", err)
	}
	again := checkpoint.NewRawEncoder()
	if err := EncodeOperator(restored, again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Finish(), snap) {
		t.Error("restored operator re-encodes to different bytes")
	}
	renamed := user(100)
	renamed.Name = "other"
	x, _ := loneOp(t, EvictionPolicy{}, renamed)
	if err := DecodeOperator(x, checkpoint.NewRawDecoder(snap)); err == nil {
		t.Error("a user constraint under another name accepted the snapshot")
	}
}

// FuzzOperatorRestore feeds arbitrary bytes to DecodeOperator on fresh
// operators with and without a recency list: decoding must never panic,
// and whatever prefix of the input an operator accepts must be exactly
// what it re-encodes to — the codec has one spelling per state.
func FuzzOperatorRestore(f *testing.F) {
	for _, tc := range ckptCases() {
		var trace []string
		c, _ := newCkptOperator(f, tc.evict, &trace)
		for _, ev := range tc.events[:117] {
			c.Process(ev, discardEmit)
		}
		enc := checkpoint.NewRawEncoder()
		if err := EncodeOperator(c, enc); err != nil {
			f.Fatal(err)
		}
		f.Add(enc.Finish())
	}
	f.Add([]byte{})
	f.Add([]byte{1, 1, 5, 'r', 'a', 'n', 'g', 'e', 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 'k'})
	cases := ckptCases()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tc := range cases {
			var trace []string
			c, _ := newCkptOperator(t, tc.evict, &trace)
			dec := checkpoint.NewRawDecoder(data)
			if DecodeOperator(c, dec) != nil {
				continue
			}
			enc := checkpoint.NewRawEncoder()
			if err := EncodeOperator(c, enc); err != nil {
				t.Fatal(err)
			}
			if got, want := enc.Finish(), data[:len(data)-dec.Remaining()]; !bytes.Equal(got, want) {
				t.Fatalf("%s: accepted %d bytes re-encode to %d different bytes", tc.name, len(want), len(got))
			}
		}
	})
}
