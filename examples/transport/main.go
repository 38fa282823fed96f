// Urban transportation: the traffic-management scenario sketched in the
// SOUND paper's introduction, built on the public API.
//
// Induction loops measure traffic flow at a junction. The measurements
// are inherently uncertain (loop counting error grows with congestion),
// and positional coverage is patchy: whole stretches of the day are
// missing where the technical infrastructure has no coverage. Sanity
// constraints capture:
//
//   - inertia: traffic flow cannot jump arbitrarily within minutes
//     (bounded per-window delta);
//   - plausibility: predicted crowdedness stays in [0, 1];
//   - model sanity: the crowdedness prediction must correlate with the
//     measured flow.
//
// Session windows group the measurements into natural coverage episodes
// instead of slicing fixed windows through the gaps. A sensor degradation
// (doubled uncertainty) is injected in the afternoon; the violation
// summary attributes the resulting outcome flips to data quality rather
// than to a traffic anomaly.
//
// Run with: go run ./examples/transport
package main

import (
	"fmt"
	"log"
	"math"

	"sound"
)

func main() {
	flow, crowd := generateTraffic()
	fmt.Printf("junction measurements: %d (with coverage gaps and a degraded sensor after t=720)\n\n", len(flow))

	params := sound.Params{Credibility: 0.95, MaxSamples: 200}

	inertia := sound.Check{
		Name:        "flow-inertia",
		Constraint:  windowedMaxDelta(450),
		SeriesNames: []string{"flow"},
		Window:      sound.SessionWindow{Gap: 30}, // coverage episodes
	}
	plausible := sound.Check{
		Name:        "crowdedness-range",
		Constraint:  sound.Range(0, 1),
		SeriesNames: []string{"crowdedness"},
		Window:      sound.PointWindow{},
	}
	correlated := sound.Check{
		Name:        "model-follows-flow",
		Constraint:  sound.CorrelationAbove(0.4),
		SeriesNames: []string{"flow", "crowdedness"},
		Window:      sound.TimeWindow{Size: 120},
	}

	data := map[string]sound.Series{"flow": flow, "crowdedness": crowd}
	for i, ck := range []sound.Check{inertia, plausible, correlated} {
		plan, err := sound.CompilePlan(ck, params, uint64(400+i))
		if err != nil {
			log.Fatal(err)
		}
		ss := make([]sound.Series, len(ck.SeriesNames))
		for j, name := range ck.SeriesNames {
			ss[j] = data[name]
		}
		results, err := plan.Run(ss)
		if err != nil {
			log.Fatal(err)
		}
		results = sound.ControlE6(ck.Constraint, results)

		analyzer, err := sound.NewAnalyzer(params, uint64(500+i))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(sound.Summarize(ck, results, analyzer, nil, params.Credibility))
	}
}

// windowedMaxDelta lifts MaxDelta to a set check over session windows.
func windowedMaxDelta(a float64) sound.Constraint {
	c := sound.MaxDelta(a)
	return c
}

// generateTraffic builds a day of per-minute junction flow and model
// crowdedness predictions, with two coverage gaps and a sensor
// degradation from t=720 (noon) on.
func generateTraffic() (flow, crowd sound.Series) {
	seed := uint64(17)
	next := func() float64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return float64(seed%1000)/1000 - 0.5
	}
	for m := 0.0; m < 1440; m += 2 {
		// Coverage gaps: no loop data on two stretches of the day.
		if (m > 180 && m < 280) || (m > 900 && m < 1020) {
			continue
		}
		// Double-peaked daily flow profile (veh/h).
		rush := 600*math.Exp(-sq(m-480)/sq(90)) + 500*math.Exp(-sq(m-1050)/sq(110))
		f := 120 + rush + 40*next()
		sig := 0.05 * f
		if m >= 720 { // degraded loop: counting error doubles
			sig *= 2.5
		}
		flow = append(flow, sound.Point{T: m, V: f + sig*next(), SigUp: sig, SigDown: sig})

		// Crowdedness model output in [0, 1], correlated with flow but
		// with classifier uncertainty; occasionally glitches above 1.
		c := math.Min(f/700, 1.15) // glitchy normalization overshoots at rush hour
		cs := 0.06
		crowd = append(crowd, sound.Point{T: m, V: c + cs*next(), SigUp: cs, SigDown: cs})
	}
	return flow, crowd
}

func sq(x float64) float64 { return x * x }
