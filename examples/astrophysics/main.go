// Astrophysics monitoring: the scenario A of the SOUND paper, including
// the violation drill-down.
//
// A synthetic Fermi-LAT-style workload — gamma-ray light curves with
// asymmetric counting uncertainties, varying cadence, flares, upper
// limits, and a stale-feed fault — flows through the anomaly-detection
// pipeline (quality filter → smoothed baseline → anomaly score). The
// checks A-1..A-4 are evaluated with SOUND; for each change point of
// check A-4 the root-cause explanations (E1–E6) are assessed and, when
// only a value change remains, the upstream pipeline DAG is annotated
// (paper Alg. 2) to bound the manual search space.
//
// Run with: go run ./examples/astrophysics
package main

import (
	"fmt"
	"log"

	"sound"
	"sound/internal/astro"
)

func main() {
	cfg := astro.DefaultConfig()
	ds := astro.Generate(cfg, 11)
	fmt.Printf("generated %d measurements from %d sources\n\n", len(ds.Measurements), cfg.Sources)

	params := sound.Params{Credibility: 0.95, MaxSamples: 100}
	outcomes := map[string][]sound.Result{}
	checks := astro.Checks(cfg)

	fmt.Println("check  windows  ⊤     ⊥    ⊣")
	for i, ck := range checks {
		ss := make([]sound.Series, len(ck.SeriesNames))
		for j, name := range ck.SeriesNames {
			s, ok := ds.Pipeline.Series(name)
			if !ok {
				log.Fatalf("missing series %q", name)
			}
			ss[j] = s
		}
		plan, err := sound.CompilePlan(ck, params, uint64(200+i))
		if err != nil {
			log.Fatal(err)
		}
		results, err := plan.Run(ss)
		if err != nil {
			log.Fatal(err)
		}
		outcomes[ck.Name] = results
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
		fmt.Printf("%-5s  %-7d  %-4d  %-3d  %d\n", ck.Name, len(results), sat, viol, inc)
	}

	// Drill into A-4's change points.
	var a4 sound.Check
	for _, ck := range checks {
		if ck.Name == "A-4" {
			a4 = ck
		}
	}
	cps := sound.ChangePoints(outcomes["A-4"])
	fmt.Printf("\nA-4 change points: %d\n", len(cps))
	if len(cps) == 0 {
		return
	}
	analyzer, err := sound.NewAnalyzer(params, 33)
	if err != nil {
		log.Fatal(err)
	}
	ua := sound.NewUpstreamAnalysis(params.Credibility)
	for i, cp := range cps {
		rep := analyzer.Explain(a4.Constraint, cp)
		fmt.Printf("  change point %d at window %d: %v\n", i, cp.Index, rep.Explanations)
		if rep.Primary() == sound.E1ValueChange {
			ann := ua.Annotate(ds.Pipeline, a4, cp)
			fmt.Printf("    value change — annotated series: %v\n", ann.Names())
			fmt.Printf("    remaining root-cause search space: %v\n", ann.SearchSpace(ds.Pipeline))
		} else {
			fmt.Printf("    data-quality root cause; no upstream drill-down needed\n")
		}
	}
	fmt.Printf("\nreactive change-constraint evaluations: %d\n", ua.Evaluations)
}
