// Quickstart: sanity checking one uncertain, sparse data series.
//
// The data is the motivating example of the SOUND paper (Fig. 1): a
// series with asymmetric error bars and irregular cadence, checked
// against a threshold in time windows. The naive evaluation (as in
// Deequ/GX-style validators) decides every window; SOUND only concludes
// where the evidence supports a conclusion.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"sound"
)

func main() {
	// A sparse series with asymmetric uncertainty: values hover around a
	// threshold of 10, error bars tell different stories per window.
	data, err := sound.NewSeries(
		[]float64{1, 3, 5, 8, 14, 17, 22, 25, 28, 35},                   // irregular timestamps
		[]float64{6.0, 6.8, 7.2, 6.4, 10.4, 10.3, 9.7, 10.6, 9.8, 10.0}, // values
		[]float64{0.5, 0.5, 0.6, 0.5, 0.2, 0.15, 2.8, 2.5, 3.0, 8.0},    // upward sigma
		[]float64{0.5, 0.6, 0.5, 0.4, 3.5, 3.0, 0.2, 0.3, 0.2, 8.0},     // downward sigma
	)
	if err != nil {
		log.Fatal(err)
	}

	// The expectation: each 10-unit window stays below the threshold
	// (at least 60% of its points).
	below := sound.FractionInRange(-1e9, 10, 0.6)
	check := sound.Check{
		Name:        "below-threshold",
		Constraint:  below,
		SeriesNames: []string{"sensor"},
		Window:      sound.TimeWindow{Size: 10},
	}

	plan, err := sound.CompilePlan(check, sound.Params{Credibility: 0.99, MaxSamples: 1000, MinSamples: 25}, 1)
	if err != nil {
		log.Fatal(err)
	}
	results, err := plan.Run([]sound.Series{data})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("window      points  naive  SOUND  P(violation)")
	for _, r := range results {
		naive := sound.EvaluateNaive(below, r.Window)
		fmt.Printf("[%3g, %3g)  %-6d  %-5v  %-5v  %.3f\n",
			r.Window.Start, r.Window.End, len(r.Window.Windows[0]),
			naive, r.Outcome, r.ViolationProb)
	}
	fmt.Println("\n⊤ satisfied, ⊥ violated, ⊣ inconclusive (SOUND withholds judgement)")
}
