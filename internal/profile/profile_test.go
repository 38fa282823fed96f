package profile

import (
	"math"
	"strings"
	"testing"

	"sound/internal/core"
	"sound/internal/rng"
	"sound/internal/series"
	"sound/internal/violation"
)

// trusted builds a small trusted dataset: a bounded noisy load, a
// monotone counter, and a series correlated with the load.
func trusted(seed uint64) map[string]series.Series {
	r := rng.New(seed)
	n := 200
	load := make(series.Series, n)
	counter := make(series.Series, n)
	follower := make(series.Series, n)
	total := 0.0
	for i := 0; i < n; i++ {
		v := 50 + 10*math.Sin(float64(i)/10) + r.NormFloat64()
		load[i] = series.Point{T: float64(i), V: v, SigUp: 0.5, SigDown: 0.5}
		total += math.Abs(v)
		counter[i] = series.Point{T: float64(i), V: total}
		follower[i] = series.Point{T: float64(i), V: 2*v + r.NormFloat64()}
	}
	return map[string]series.Series{"load": load, "counter": counter, "follower": follower}
}

func findSuggestion(sugs []Suggestion, prefix string) (Suggestion, bool) {
	for _, s := range sugs {
		if strings.HasPrefix(s.Check.Name, prefix) {
			return s, true
		}
	}
	return Suggestion{}, false
}

func TestSuggestRecoversPlantedStructure(t *testing.T) {
	sugs := Suggest(trusted(1), Options{})
	if len(sugs) == 0 {
		t.Fatal("no suggestions")
	}
	// Every series gets a range suggestion.
	for _, name := range []string{"load", "counter", "follower"} {
		if _, ok := findSuggestion(sugs, "suggested-range("+name+")"); !ok {
			t.Errorf("missing range suggestion for %s", name)
		}
	}
	// The counter is monotone.
	if _, ok := findSuggestion(sugs, "suggested-monotone(counter)"); !ok {
		t.Error("monotone counter not detected")
	}
	// The noisy load is not monotone.
	if _, ok := findSuggestion(sugs, "suggested-monotone(load)"); ok {
		t.Error("noisy load wrongly suggested monotone")
	}
	// follower ~ 2·load: correlation suggestion expected.
	if sug, ok := findSuggestion(sugs, "suggested-corr(follower,load)"); !ok {
		t.Error("correlated pair not detected")
	} else if sug.Score < 0.9 {
		t.Errorf("correlation score = %v", sug.Score)
	}
	// All suggested checks are structurally valid.
	for _, s := range sugs {
		if err := s.Check.Validate(); err != nil {
			t.Errorf("%s: %v", s.Check.Name, err)
		}
		if s.Evidence == "" {
			t.Errorf("%s: empty evidence", s.Check.Name)
		}
	}
	// Ordered by descending score.
	for i := 1; i < len(sugs); i++ {
		if sugs[i].Score > sugs[i-1].Score+1e-12 {
			t.Fatal("suggestions not ordered by score")
		}
	}
}

func TestSuggestedChecksPassOnOriginData(t *testing.T) {
	// Self-consistency: the data that generated a suggestion must
	// (overwhelmingly) satisfy the suggested check.
	data := trusted(2)
	sugs := Suggest(data, Options{})
	for _, sug := range sugs {
		ss := make([]series.Series, len(sug.Check.SeriesNames))
		for i, name := range sug.Check.SeriesNames {
			ss[i] = data[name]
		}
		plan, err := core.CompilePlan(sug.Check, core.Params{Credibility: 0.95, MaxSamples: 100}, 7)
		if err != nil {
			t.Fatal(err)
		}
		results, err := plan.Run(ss)
		if err != nil {
			t.Fatalf("%s: %v", sug.Check.Name, err)
		}
		// Sequence checks need the §VI-C control for block-bootstrap
		// artifacts, like every other sequence evaluation.
		results = violation.ControlE6(sug.Check.Constraint, results)
		viol := 0
		for _, r := range results {
			if r.Outcome == core.Violated {
				viol++
			}
		}
		if frac := float64(viol) / float64(len(results)); frac > 0.05 {
			t.Errorf("%s: %.1f%% of origin windows violated", sug.Check.Name, 100*frac)
		}
	}
}

func TestSuggestedRangeFlagsCorruption(t *testing.T) {
	data := trusted(3)
	sugs := Suggest(data, Options{})
	rangeSug, ok := findSuggestion(sugs, "suggested-range(load)")
	if !ok {
		t.Fatal("no range suggestion")
	}
	// Corrupt the load with an implausible spike.
	corrupted := data["load"].Clone()
	corrupted[100].V = 1e6
	corrupted[100].SigUp, corrupted[100].SigDown = 1, 1
	plan, err := core.CompilePlan(rangeSug.Check, core.Params{Credibility: 0.95, MaxSamples: 100}, 9)
	if err != nil {
		t.Fatal(err)
	}
	results, err := plan.Run([]series.Series{corrupted})
	if err != nil {
		t.Fatal(err)
	}
	if results[100].Outcome != core.Violated {
		t.Errorf("spike not flagged: %v", results[100].Outcome)
	}
}

func TestSuggestSkipsShortSeries(t *testing.T) {
	data := map[string]series.Series{"tiny": series.FromValues(1, 2, 3)}
	if got := Suggest(data, Options{}); len(got) != 0 {
		t.Errorf("short series produced %d suggestions", len(got))
	}
}

func TestSuggestUncorrelatedPairsSkipped(t *testing.T) {
	r := rng.New(5)
	n := 100
	a := make(series.Series, n)
	b := make(series.Series, n)
	for i := 0; i < n; i++ {
		a[i] = series.Point{T: float64(i), V: r.NormFloat64()}
		b[i] = series.Point{T: float64(i), V: r.NormFloat64()}
	}
	sugs := Suggest(map[string]series.Series{"a": a, "b": b}, Options{})
	if _, ok := findSuggestion(sugs, "suggested-corr"); ok {
		t.Error("uncorrelated pair got a correlation suggestion")
	}
}

func TestSuggestCorrelationAcrossCadences(t *testing.T) {
	// Same underlying signal sampled at different rates.
	slow := make(series.Series, 60)
	fast := make(series.Series, 240)
	for i := range slow {
		tt := float64(i) * 4
		slow[i] = series.Point{T: tt, V: math.Sin(tt / 20)}
	}
	for i := range fast {
		tt := float64(i)
		fast[i] = series.Point{T: tt, V: math.Sin(tt/20) * 3}
	}
	sugs := Suggest(map[string]series.Series{"slow": slow, "fast": fast}, Options{})
	if _, ok := findSuggestion(sugs, "suggested-corr(fast,slow)"); !ok {
		t.Error("cross-cadence correlation not detected")
	}
}

func TestOptionsTuning(t *testing.T) {
	data := trusted(7)
	strict := Suggest(data, Options{MinCorrelation: 0.9999})
	if _, ok := findSuggestion(strict, "suggested-corr"); ok {
		t.Error("near-1 correlation threshold still matched a noisy pair")
	}
	tolerant := Suggest(data, Options{MonotoneTolerance: 0.6})
	if _, ok := findSuggestion(tolerant, "suggested-monotone(load)"); !ok {
		t.Error("tolerant monotonicity did not match the mostly-varying load")
	}
}
