package resample

import (
	"testing"

	"sound/internal/rng"
	"sound/internal/series"
)

func mixedWindow() series.Series {
	return series.Series{
		{T: 0, V: 5},                                // certain
		{T: 1, V: 10, SigUp: 2, SigDown: 2},         // symmetric
		{T: 2, V: -3, SigUp: 1, SigDown: 4},         // asymmetric
		{T: 3, V: 7, SigUp: 0.5, SigDown: 0.5},      // symmetric
		{T: 4, V: 100},                              // certain
		{T: 5, V: 0.25, SigUp: 3, SigDown: 0.00001}, // asymmetric
	}
}

// TestPrimedDrawMatchesUnprimed proves the fast-path parity claim: a
// primed resampler consumes the random stream identically to an unprimed
// one and produces bit-identical draws, for every strategy and across
// many consecutive draws (certain, symmetric, and asymmetric points all
// present).
func TestPrimedDrawMatchesUnprimed(t *testing.T) {
	for _, strat := range []Strategy{Point, Set, Sequence} {
		w := []series.Series{mixedWindow()}
		primed := New(strat, rng.New(77))
		plain := New(strat, rng.New(77))
		primed.PrimeViews(w, nil)
		for d := 0; d < 200; d++ {
			got := primed.Draw(w)
			want := plain.Draw(w)
			if len(got) != len(want) || len(got[0]) != len(want[0]) {
				t.Fatalf("%v draw %d: shape mismatch", strat, d)
			}
			for i := range got[0] {
				if got[0][i] != want[0][i] {
					t.Fatalf("%v draw %d point %d: primed %v, unprimed %v", strat, d, i, got[0][i], want[0][i])
				}
			}
		}
	}
}

// TestPrimeStaleMetadataIgnored ensures metadata primed for one window is
// never applied to a different slice that later occupies the same slot —
// the stream-checker buffer-reuse hazard.
func TestPrimeStaleMetadataIgnored(t *testing.T) {
	rs := New(Point, rng.New(3))
	a := series.Series{{T: 0, V: 1}, {T: 1, V: 2}}
	rs.PrimeViews([]series.Series{a}, nil)
	if !rs.PrimedAllCertain() {
		t.Fatal("certain window not detected")
	}
	// Same backing length, different slice and different values.
	b := series.Series{{T: 0, V: 9}, {T: 1, V: 8}}
	out := rs.Draw([]series.Series{b})
	if out[0][0] != 9 || out[0][1] != 8 {
		t.Errorf("stale metadata applied: got %v, want [9 8]", out[0])
	}
	// Same slice mutated in place under identical header: PrimeViews must be
	// called again by the owner; identity check alone cannot catch this.
	rs.PrimeViews([]series.Series{b}, nil)
	b[0].V = 42
	rs.PrimeViews([]series.Series{b}, nil)
	if out := rs.Draw([]series.Series{b}); out[0][0] != 42 {
		t.Errorf("re-prime did not refresh values: got %v", out[0][0])
	}
}

// TestReseedMatchesFreshResampler checks that Reseed restores the exact
// stream of a freshly split resampler, the property evaluator pooling
// relies on.
func TestReseedMatchesFreshResampler(t *testing.T) {
	w := []series.Series{mixedWindow()}

	parentA := rng.New(5)
	fresh := New(Point, parentA.Split())

	parentB := rng.New(5)
	pooled := New(Point, rng.New(999))
	pooled.Draw(w) // advance the pooled stream arbitrarily
	pooled.Reseed(parentB)

	for d := 0; d < 50; d++ {
		got := pooled.Draw(w)
		want := fresh.Draw(w)
		for i := range got[0] {
			if got[0][i] != want[0][i] {
				t.Fatalf("draw %d point %d: reseeded %v, fresh %v", d, i, got[0][i], want[0][i])
			}
		}
	}
}
