package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"testing"

	"sound/internal/stream"
)

func take(src *source, n int) []point {
	pts := make([]point, n)
	for i := range pts {
		pts[i] = src.next()
	}
	return pts
}

func events(pts []point) []stream.Event {
	evs := make([]stream.Event, len(pts))
	for i, p := range pts {
		evs[i] = p.ev
	}
	return evs
}

// digest hashes what was generated — key, time, value, both sigmas and
// the latent value of every point — independent of any wire format.
func digest(pts []point) string {
	h := sha256.New()
	for _, p := range pts {
		fmt.Fprintf(h, "%s %v %v %v %v %v\n", p.ev.Key, p.ev.Time, p.ev.Value, p.ev.SigUp, p.ev.SigDown, p.latent)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// goldenDigests pin the first 20 000 points of seed 1. A generator edit
// that changes the traffic changes these, and has to say so.
var goldenDigests = map[string]string{
	"frames-clearcut": "79b21619fbc903d9",
	"mc-borderline":   "c4f963fe5632bdd9",
	"suite-sliding":   "738a37ab0d949ba1",
	"ndjson-manykeys": "664858f8a365c785",
}

func TestGeneratorsRepeat(t *testing.T) {
	for _, wl := range workloads {
		src := wl.newSource(1)
		a, b, other := take(src, 20000), take(wl.newSource(1), 20000), take(wl.newSource(2), 20000)
		if got := digest(a); got != goldenDigests[wl.name] {
			t.Errorf("%s: seed 1 digest %s, pinned %s", wl.name, got, goldenDigests[wl.name])
		}
		encA, err := encodeUnit(wl.transport, nil, events(a))
		if err != nil {
			t.Fatal(err)
		}
		encB, _ := encodeUnit(wl.transport, nil, events(b))
		encOther, _ := encodeUnit(wl.transport, nil, events(other))
		if !bytes.Equal(encA, encB) {
			t.Errorf("%s: the same seed encoded to different bytes", wl.name)
		}
		if bytes.Equal(encA, encOther) {
			t.Errorf("%s: seeds 1 and 2 encoded to the same bytes", wl.name)
		}
		for i, p := range a {
			if p.ev.Key != src.keys[p.key] {
				t.Fatalf("%s: point %d carries key index %d but key %q", wl.name, i, p.key, p.ev.Key)
			}
		}
	}
}

func perKey(pts []point) map[string][]point {
	by := map[string][]point{}
	for _, p := range pts {
		by[p.ev.Key] = append(by[p.ev.Key], p)
	}
	return by
}

func TestClearcutShape(t *testing.T) {
	by := perKey(take(clearcutSource(5), 64*500))
	if len(by) != 64 {
		t.Fatalf("%d keys, want 64", len(by))
	}
	// The keys' first points, hence their window grids, are spread evenly
	// over one window: no two keys close a window on the same time unit.
	starts := map[float64]bool{}
	for _, pts := range by {
		starts[pts[0].ev.Time] = true
	}
	if len(starts) != 64 {
		t.Errorf("%d distinct start times for 64 keys; the window grids are in lockstep", len(starts))
	}
	for k, pts := range by {
		for i, p := range pts {
			if p.ev.Time != pts[0].ev.Time+float64(i) {
				t.Fatalf("key %s: point %d at time %v, want one per time unit", k, i, p.ev.Time)
			}
			if p.ev.Value < 20 || p.ev.Value > 80 || p.latent < 30 || p.latent > 70 {
				t.Fatalf("key %s: value %v (latent %v) is not mid-range", k, p.ev.Value, p.latent)
			}
			if p.ev.SigUp != 0 || p.ev.SigDown != 0 {
				t.Fatalf("key %s: sigma (%v, %v), want certain points", k, p.ev.SigUp, p.ev.SigDown)
			}
		}
	}
}

func TestBorderlineShape(t *testing.T) {
	pts := take(mcBorderlineSource(5), 600000)
	by := perKey(pts)
	if len(by) != 256 {
		t.Fatalf("%d keys, want 256", len(by))
	}
	// Sparsity: per key, tumbling windows anchored at the key's first
	// point, as the checker cuts them. Where the grids start is spread over
	// a window, so the keys do not close their windows together.
	windows, sparse, sparsePts := 0, 0, 0
	thirds := [3]int{}
	var residual float64
	for _, kp := range by {
		thirds[int(kp[0].ev.Time/borderlineWindow*3)%3]++
		counts := map[int]int{}
		for _, p := range kp {
			counts[int((p.ev.Time-kp[0].ev.Time)/borderlineWindow)]++
		}
		last := int((kp[len(kp)-1].ev.Time - kp[0].ev.Time) / borderlineWindow)
		for w := 0; w < last; w++ { // closed windows only
			windows++
			if counts[w] < 8 {
				sparse++
				sparsePts += counts[w]
			}
		}
	}
	if share := float64(sparse) / float64(windows); share < 0.25 || share > 0.4 {
		t.Errorf("%.3f of the windows hold fewer than 8 points, want about a third", share)
	}
	if share := float64(sparsePts) / float64(len(pts)); share > 0.1 {
		t.Errorf("%.3f of the points sit in sparse windows; most should sit in the dense ones", share)
	}
	for i, n := range thirds {
		if n < 256/4 {
			t.Errorf("%d keys start their window grid in third %d of a window, want about a third of 256", n, i)
		}
	}
	for _, p := range pts {
		if p.ev.SigUp != 2*p.ev.SigDown || p.ev.SigDown <= 0 {
			t.Fatalf("sigma (%v, %v) is not asymmetric 2:1", p.ev.SigUp, p.ev.SigDown)
		}
		if margin := math.Abs(hoverBound - p.latent); margin > 0.3*hoverSigUp+1e-9 {
			t.Fatalf("latent %v is not within 0.3 σ↑ of the bound", p.latent)
		}
		residual += p.latent - p.ev.Value
	}
	// The latent value is a draw from what the checker is told about its
	// observation: value + split normal with σ↑ = 2, σ↓ = 1, whose mean is
	// √(2/π)·(2·⅔ − 1·⅓).
	want := math.Sqrt(2/math.Pi) * (hoverSigUp*hoverSigUp - hoverSigDown*hoverSigDown) / (hoverSigUp + hoverSigDown)
	if got := residual / float64(len(pts)); math.Abs(got-want) > 0.02 {
		t.Errorf("mean of latent − value is %.4f, want %.4f", got, want)
	}
}

func TestSlidingShape(t *testing.T) {
	pts := take(slidingSource(5), 64*8000)
	by := perKey(pts)
	if len(by) != 64 {
		t.Fatalf("%d keys, want 64", len(by))
	}
	near := 0
	for _, p := range pts {
		if hoverBound-p.latent < 3*hoverSigUp {
			near++
		}
		if p.ev.Time != math.Trunc(p.ev.Time) {
			t.Fatalf("time %v is not on the regular grid", p.ev.Time)
		}
	}
	// Within 3σ↑ of the bound some member of the suite is undecided at the
	// first decision edge.
	if share := float64(near) / float64(len(pts)); share < 0.15 || share > 0.35 {
		t.Errorf("%.3f of the points sit within 3σ↑ of the bound, want about a fifth to a third", share)
	}
}

func TestManyKeysShape(t *testing.T) {
	const n = 400000
	src := manyKeysSource(5)
	if len(src.keys) != manyKeys {
		t.Fatalf("key universe %d, want %d", len(src.keys), manyKeys)
	}
	pts := take(src, n)
	freq := map[int32]int{}
	displaced, high := 0, 0.0
	for _, p := range pts {
		freq[p.key]++
		if p.ev.Time < high-manyTick/2 {
			displaced++
		}
		high = math.Max(high, p.ev.Time)
		if p.ev.SigUp != 0 || p.ev.SigDown != 0 {
			t.Fatal("many-keys points are certain")
		}
	}
	if len(freq) < 30000 {
		t.Errorf("%d distinct keys in %d points; the working set should dwarf 64", len(freq), n)
	}
	counts := make([]int, 0, len(freq))
	for _, c := range freq {
		counts = append(counts, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	top10 := 0
	for _, c := range counts[:10] {
		top10 += c
	}
	// Zipf(1.1) over 200 000 keys: the hottest key draws about 13 % of
	// the traffic, the ten hottest about a third.
	if head := float64(counts[0]) / n; head < 0.10 || head > 0.17 {
		t.Errorf("hottest key has share %.3f, want about 0.13", head)
	}
	if share := float64(top10) / n; share < 0.28 || share > 0.42 {
		t.Errorf("ten hottest keys have share %.3f, want about a third", share)
	}
	if share := float64(displaced) / n; share < 0.04 || share > 0.06 {
		t.Errorf("%.4f of the events are displaced backwards, want 0.05", share)
	}
}

// TestLatentAlignsWithNoisy: the truth replay sees the same keys and
// times as the noisy replay, so both fire the same windows in the same
// order — prepare pairs them one to one and fails if they ever diverge.
func TestLatentAlignsWithNoisy(t *testing.T) {
	for _, wl := range workloads {
		// Long enough for the 1200-unit windows of ndjson-manykeys, which
		// span 120 000 events, to close.
		small := *wl
		small.satRate, small.pacedRate = 400_000, 20_000
		in, err := prepare(&small, 9, 4*rounds)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if n := in.ref.tally(cutStart, cutEnd).verdicts; n == 0 {
			t.Errorf("%s: the replay fired no verdicts in %d points", wl.name, in.points())
		}
	}
}

func TestLayout(t *testing.T) {
	for _, wl := range workloads {
		warm, sat, paced := wl.layout(defaultSeconds)
		if n := pacedSlices(defaultSeconds); paced.units%n != 0 || n < 2 {
			t.Errorf("%s: %d ticks do not split into %d slices", wl.name, paced.units, n)
		}
		if warm.endPoint() != sat.firstPoint || sat.endPoint() != paced.firstPoint {
			t.Errorf("%s: phases are not contiguous", wl.name)
		}
		if got := paced.unitPts * 1e9 / wl.tickNs(); got != wl.pacedRate {
			t.Errorf("%s: %d points per tick is %d points/s, not the fixed %d", wl.name, paced.unitPts, got, wl.pacedRate)
		}
		if rounds*paced.units < 1000 {
			t.Errorf("%s: %d ticks in %d rounds cannot carry a lag p99", wl.name, paced.units, rounds)
		}
	}
}
