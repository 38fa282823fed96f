// Finance monitoring: the fraud-detection scenario sketched in the SOUND
// paper's introduction, built entirely on the public API.
//
// Series of transaction events are aggregated into per-class spending
// volumes. The volumes carry uncertainty from the transaction
// classifier (soft class assignments) and show varying cadence (bursty
// trading hours vs quiet nights). Sanity constraints capture invariants:
//
//   - card-present and card-not-present volumes correlate over time
//     (both follow overall activity);
//   - per-window spending deltas stay bounded (inertia);
//   - volumes are non-negative.
//
// A fraud campaign is injected that inflates one class's volume and, at
// the same time, degrades the classifier (higher uncertainty) — the
// violation analysis separates the two effects.
//
// Run with: go run ./examples/finance
package main

import (
	"fmt"
	"log"
	"math"

	"sound"
)

func main() {
	spendA, spendB := generateVolumes()

	p := sound.NewPipeline()
	p.AddSeries("volume_card_present", spendA)
	p.AddSeries("volume_card_not_present", spendB)

	params := sound.Params{Credibility: 0.95, MaxSamples: 200}

	correlated := sound.Check{
		Name:        "volumes-correlate",
		Constraint:  sound.CorrelationAbove(0.3),
		SeriesNames: []string{"volume_card_present", "volume_card_not_present"},
		Window:      sound.TimeWindow{Size: 24}, // one day of hourly buckets
	}
	bounded := sound.Check{
		Name:        "bounded-delta",
		Constraint:  sound.MaxDelta(600),
		SeriesNames: []string{"volume_card_not_present"},
		Window:      sound.TimeWindow{Size: 12},
	}
	nonneg := sound.Check{
		Name:        "non-negative",
		Constraint:  sound.NonNegative(),
		SeriesNames: []string{"volume_card_not_present"},
		Window:      sound.PointWindow{},
	}

	for i, ck := range []sound.Check{correlated, bounded, nonneg} {
		plan, err := sound.CompilePlan(ck, params, uint64(300+i))
		if err != nil {
			log.Fatal(err)
		}
		ss := make([]sound.Series, len(ck.SeriesNames))
		for j, name := range ck.SeriesNames {
			s, _ := p.Series(name)
			ss[j] = s
		}
		results, err := plan.Run(ss)
		if err != nil {
			log.Fatal(err)
		}
		var sat, viol, inc int
		for _, r := range results {
			switch r.Outcome {
			case sound.Satisfied:
				sat++
			case sound.Violated:
				viol++
			default:
				inc++
			}
		}
		fmt.Printf("%-18s  windows=%-3d  ⊤ %-3d ⊥ %-3d ⊣ %d\n", ck.Name, len(results), sat, viol, inc)

		// Explain the first change point of the delta check, if any.
		if ck.Name != "bounded-delta" {
			continue
		}
		cps := sound.ChangePoints(results)
		if len(cps) == 0 {
			continue
		}
		analyzer, err := sound.NewAnalyzer(params, 99)
		if err != nil {
			log.Fatal(err)
		}
		rep := analyzer.Explain(ck.Constraint, cps[0])
		fmt.Printf("  first change point at window %d explained by: %v\n", cps[0].Index, rep.Explanations)
	}
}

// generateVolumes builds two hourly spending-volume series over 10 days
// with classifier uncertainty, night-time sparsity, and a fraud campaign
// in the card-not-present class from day 6 on.
func generateVolumes() (a, b sound.Series) {
	seed := uint64(5)
	next := func() float64 { // tiny xorshift for self-contained data
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return float64(seed%1000)/1000 - 0.5
	}
	for h := 0.0; h < 240; h++ { // 10 days of hourly buckets
		hour := math.Mod(h, 24)
		activity := 1 + math.Sin((hour-9)/24*2*math.Pi) // peaks during the day
		if hour < 6 && next() > 0 {
			continue // sparse nights: acquirer batches delay reporting
		}
		volA := 500*activity + 60*next()
		volB := 300*activity + 40*next()
		sigA := 0.04 * volA
		sigB := 0.05 * volB
		if h >= 144 { // fraud campaign: inflated volume, degraded classifier
			volB += 250 + 100*next()
			sigB = 0.30 * volB
		}
		a = append(a, sound.Point{T: h, V: volA, SigUp: sigA, SigDown: sigA})
		b = append(b, sound.Point{T: h, V: volB, SigUp: sigB, SigDown: sigB})
	}
	return a, b
}
