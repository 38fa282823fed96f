package sound_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (regenerating it in quick mode), plus ablation benchmarks
// for the design choices called out in DESIGN.md §5. Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks report wall time of a full regeneration;
// ablations additionally report domain metrics via b.ReportMetric.

import (
	"testing"

	"sound/internal/bench"
	"sound/internal/experiments"
)

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	opts := experiments.Options{Seed: 1, Quick: true}
	for i := 0; i < b.N; i++ {
		out, err := experiments.Run(name, opts)
		if err != nil {
			b.Fatal(err)
		}
		if out.String() == "" {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkFig1Motivation regenerates the Fig. 1 motivating comparison.
func BenchmarkFig1Motivation(b *testing.B) { benchExperiment(b, "fig1") }

// BenchmarkFig4Overhead regenerates the Fig. 4 overhead measurement for
// both scenarios (BASE_NOM vs SOUND).
func BenchmarkFig4Overhead(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5ParamSweepSmartGrid regenerates the Fig. 5 N/c sweep.
func BenchmarkFig5ParamSweepSmartGrid(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6ParamSweepAstro regenerates the Fig. 6 N/c sweep.
func BenchmarkFig6ParamSweepAstro(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7ParamQuadrants regenerates the Fig. 7 S-4 quadrants.
func BenchmarkFig7ParamQuadrants(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8QualityAmplification regenerates the Fig. 8 panels.
func BenchmarkFig8QualityAmplification(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9ChangeConstraintCost regenerates the Fig. 9 comparison.
func BenchmarkFig9ChangeConstraintCost(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkTable5NaiveAccuracy regenerates the Table V accuracy study.
func BenchmarkTable5NaiveAccuracy(b *testing.B) { benchExperiment(b, "table5") }

// BenchmarkTable6ViolationAnalysis regenerates the Table VI explanation
// counts and BASE_VA FPR.
func BenchmarkTable6ViolationAnalysis(b *testing.B) { benchExperiment(b, "table6") }

// BenchmarkSpecs runs the hot-path, ablation and codec workloads of
// internal/bench, each under its spec name — the one way a micro
// number or a profile of them is produced:
//
//	go test -run='^$' -bench='Specs/StreamCheck' .
//	go test -run='^$' -bench='Specs/EvaluatePointCheck' -cpu 1 -cpuprofile cpu.pprof .
func BenchmarkSpecs(b *testing.B) {
	for _, s := range bench.Specs() {
		b.Run(s.Name, s.Fn)
	}
}
