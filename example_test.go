package sound_test

import (
	"fmt"

	"sound"
)

// ExampleCheckPlan_Run demonstrates the core flow: define a check,
// compile it, evaluate it with quality-aware resampling, and read the
// three-valued outcomes.
func ExampleCheckPlan_Run() {
	// A certain in-range point, a point sitting exactly on the lower
	// bound with large symmetric uncertainty, and a clear violation.
	data, _ := sound.NewSeries(
		[]float64{1, 2, 3},
		[]float64{50, 0, -40},
		[]float64{1, 5, 1},
		[]float64{1, 5, 1},
	)
	check := sound.Check{
		Name:        "plausible-range",
		Constraint:  sound.Range(0, 100),
		SeriesNames: []string{"sensor"},
		Window:      sound.PointWindow{},
	}
	plan, _ := sound.CompilePlan(check, sound.Params{Credibility: 0.95, MaxSamples: 100}, 4)
	results, _ := plan.Run([]sound.Series{data})
	for _, r := range results {
		fmt.Printf("t=%g: %v\n", r.Window.Start, r.Outcome)
	}
	// Output:
	// t=1: ⊤
	// t=2: ⊣
	// t=3: ⊥
}

// ExampleEvaluateNaive contrasts the naive (quality-ignorant) evaluation
// with SOUND on the same borderline point.
func ExampleEvaluateNaive() {
	borderline, _ := sound.NewSeries(
		[]float64{0}, []float64{10.2}, []float64{0.2}, []float64{8},
	)
	c := sound.GreaterThan(10)
	tuple := sound.PointWindow{}.Windows([]sound.Series{borderline})[0]

	naive := sound.EvaluateNaive(c, tuple)
	check := sound.Check{Name: "above", Constraint: c, SeriesNames: []string{"s"}, Window: sound.PointWindow{}}
	plan, _ := sound.CompilePlan(check, sound.Params{Credibility: 0.95, MaxSamples: 100}, 3)
	robust, _ := plan.Run([]sound.Series{borderline})

	fmt.Printf("naive: %v (decides from the raw value)\n", naive)
	fmt.Printf("SOUND: %v (the downward error bar holds most of the mass)\n", robust[0].Outcome)
	// Output:
	// naive: ⊤ (decides from the raw value)
	// SOUND: ⊥ (the downward error bar holds most of the mass)
}

// ExampleChangePoints shows the violation drill-down: detect an outcome
// flip and ask for its root-cause explanations.
func ExampleChangePoints() {
	// An uncertainty regression: same values throughout, but the second
	// half carries 50x the error bars.
	n := 60
	t := make([]float64, n)
	v := make([]float64, n)
	sig := make([]float64, n)
	for i := 0; i < n; i++ {
		t[i] = float64(i)
		v[i] = 10.5
		sig[i] = 0.1
		if i >= 30 {
			sig[i] = 5
		}
	}
	data, _ := sound.NewSeries(t, v, sig, sig)

	c := sound.GreaterThan(10)
	c.Granularity = sound.WindowTime
	check := sound.Check{
		Name: "above-threshold", Constraint: c,
		SeriesNames: []string{"s"}, Window: sound.TimeWindow{Size: 15},
	}
	plan, _ := sound.CompilePlan(check, sound.Params{Credibility: 0.95, MaxSamples: 200}, 5)
	results, _ := plan.Run([]sound.Series{data})

	analyzer, _ := sound.NewAnalyzer(sound.Params{Credibility: 0.95, MaxSamples: 200}, 7)
	for _, cp := range sound.ChangePoints(results) {
		rep := analyzer.Explain(check.Constraint, cp)
		fmt.Println(rep.Explanations)
	}
	// Output:
	// [E4 (high value uncertainty)]
}

// ExampleSuggestChecks shows constraint suggestion from trusted data.
func ExampleSuggestChecks() {
	counter := make(sound.Series, 40)
	total := 0.0
	for i := range counter {
		total += 1 + float64(i%3)
		counter[i] = sound.Point{T: float64(i), V: total}
	}
	sugs := sound.SuggestChecks(map[string]sound.Series{"work": counter}, sound.ProfileOptions{})
	for _, s := range sugs {
		fmt.Println(s.Check.Name)
	}
	// Output:
	// suggested-monotone(work)
	// suggested-nonneg(work)
	// suggested-range(work)
}
