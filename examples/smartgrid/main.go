// Smart-grid monitoring: the scenario S of the SOUND paper.
//
// A synthetic DEBS-2014-style workload — plug-level load and cumulative
// work readings with sensor noise, coarse work quantization, and device
// outages — flows through the SGA pipeline (minute averages, usage
// normalization, plug-vs-household comparison, alerting). The five
// sanity checks of Table IV (S-1..S-5) are evaluated on the pipeline
// series, comparing SOUND against the naive baseline.
//
// Run with: go run ./examples/smartgrid
package main

import (
	"fmt"
	"log"

	"sound"
	"sound/internal/smartgrid"
)

func main() {
	cfg := smartgrid.DefaultConfig()
	ds := smartgrid.Generate(cfg, 7)
	fmt.Printf("generated %d readings from %d plugs (outages and quantization included)\n\n",
		len(ds.Readings), cfg.Houses*cfg.HouseholdsPerHouse*cfg.PlugsPerHousehold)

	params := sound.Params{Credibility: 0.95, MaxSamples: 100}
	fmt.Println("check  description                     windows  ⊤     ⊥    ⊣    naive-⊥")
	for i, ck := range smartgrid.Checks(cfg) {
		ss := make([]sound.Series, len(ck.SeriesNames))
		for j, name := range ck.SeriesNames {
			s, ok := ds.Pipeline.Series(name)
			if !ok {
				log.Fatalf("missing series %q", name)
			}
			ss[j] = s
		}
		plan, err := sound.CompilePlan(ck, params, uint64(100+i))
		if err != nil {
			log.Fatal(err)
		}
		results, err := plan.Run(ss)
		if err != nil {
			log.Fatal(err)
		}
		// Control block-bootstrap false positives on sequence checks
		// (paper §VI-C): a violated window on which the constraint holds
		// block-wise is a resampling artifact.
		results = sound.ControlE6(ck.Constraint, results)
		var sat, viol, inc, naiveViol int
		for _, r := range results {
			switch r.Outcome {
			case sound.Satisfied:
				sat++
			case sound.Violated:
				viol++
			default:
				inc++
			}
			if sound.EvaluateNaive(ck.Constraint, r.Window) == sound.Violated {
				naiveViol++
			}
		}
		fmt.Printf("%-5s  %-30s  %-7d  %-4d  %-3d  %-3d  %d\n",
			ck.Name, ck.Constraint.Description, len(results), sat, viol, inc, naiveViol)
	}

	fmt.Println("\nThe naive column shows how many windows a quality-ignorant validator")
	fmt.Println("would flag; differences against ⊥ are false alarms or missed issues.")
}
