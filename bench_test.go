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
	"runtime"
	"testing"

	"sound"
	"sound/internal/bench"
	"sound/internal/experiments"
	"sound/internal/resample"
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

// --- Hot path and ablations ----------------------------------------------
//
// The workload bodies live in internal/bench so cmd/soundbench can run
// the identical code under testing.Benchmark and emit machine-readable
// JSON (soundbench -benchjson); these wrappers keep them reachable from
// `go test -bench` under their usual names.

// BenchmarkAblationEarlyStop compares Alg. 1's adaptive decision rule
// (check after every sample) against a fixed-budget variant that decides
// only after all N samples (CheckInterval = N).
func BenchmarkAblationEarlyStop(b *testing.B) {
	b.Run("adaptive", func(b *testing.B) { bench.AblationEarlyStop(b, 1) })
	b.Run("fixedN", func(b *testing.B) { bench.AblationEarlyStop(b, 100) })
}

// BenchmarkAblationBlockBootstrap compares the block bootstrap against a
// naive i.i.d. bootstrap for a sequence constraint on autocorrelated data.
func BenchmarkAblationBlockBootstrap(b *testing.B) {
	b.Run("block", func(b *testing.B) { bench.AblationBlockBootstrap(b, true) })
	b.Run("iid", func(b *testing.B) { bench.AblationBlockBootstrap(b, false) })
}

// BenchmarkAblationDecisionRule compares the credible-interval decision
// rule against an aggressive near-point-estimate rule (c = 0.05).
func BenchmarkAblationDecisionRule(b *testing.B) {
	b.Run("credible95", func(b *testing.B) { bench.AblationDecisionRule(b, 0.95) })
	b.Run("pointEstimate", func(b *testing.B) { bench.AblationDecisionRule(b, 0.05) })
}

// BenchmarkEvaluatePointCheck measures the core evaluation loop on a
// single certain point (the deterministic-collapse fast path).
func BenchmarkEvaluatePointCheck(b *testing.B) { bench.EvaluatePointCheck(b) }

// BenchmarkEvaluateSequenceCheck measures a windowed sequence evaluation
// (block bootstrap + correlation) on a 64-point binary window.
func BenchmarkEvaluateSequenceCheck(b *testing.B) { bench.EvaluateSequenceCheck(b) }

// BenchmarkEvaluateAllParallel measures the pooled-evaluator parallel
// path over 500 uncertain point windows (allocs/op tracks the
// O(workers) pooling claim and the shared-extraction window pass).
func BenchmarkEvaluateAllParallel(b *testing.B) { bench.EvaluateAllParallel(b) }

// BenchmarkStreamCheck measures the generic online stream-check
// operator's per-event overhead across window kinds.
func BenchmarkStreamCheck(b *testing.B) {
	b.Run("point", func(b *testing.B) { bench.StreamCheck(b, sound.PointWindow{}) })
	b.Run("tumbling", func(b *testing.B) { bench.StreamCheck(b, sound.TimeWindow{Size: 60}) })
	b.Run("sliding", func(b *testing.B) { bench.StreamCheck(b, sound.TimeWindow{Size: 60, Slide: 30}) })
	b.Run("count", func(b *testing.B) { bench.StreamCheck(b, sound.CountWindow{Size: 32}) })
	b.Run("keyed", bench.StreamCheckKeyed)
}

// BenchmarkStreamThroughput measures end-to-end ingest throughput
// (points/sec) through source → keyed window check → sink at several
// transport batch sizes; batch1 is the degenerate unbatched transport.
func BenchmarkStreamThroughput(b *testing.B) {
	b.Run("batch1", func(b *testing.B) { bench.StreamThroughput(b, 1) })
	b.Run("batch16", func(b *testing.B) { bench.StreamThroughput(b, 16) })
	b.Run("batch64", func(b *testing.B) { bench.StreamThroughput(b, 64) })
	b.Run("batch256", func(b *testing.B) { bench.StreamThroughput(b, 256) })
}

// BenchmarkStreamFusion prices the fused shard runtime on the linear
// source → check → sink chain: fusion forced on (one goroutine, direct
// calls) vs forced off (per-node goroutines over ring edges).
func BenchmarkStreamFusion(b *testing.B) {
	b.Run("on", func(b *testing.B) { bench.StreamFusion(b, true) })
	b.Run("off", func(b *testing.B) { bench.StreamFusion(b, false) })
}

// BenchmarkMultiCheck prices a suite of n co-window checks on one
// uncertain stream: n independent single-check operators (n sample
// matrices per window) against one multiplexed bucket (one shared
// matrix, members retiring as they decide). The pair at equal n is the
// multiplexing speedup; shared draws/window stays flat in n.
func BenchmarkMultiCheck(b *testing.B) {
	b.Run("independent/checks1", func(b *testing.B) { bench.MultiCheck(b, false, 1) })
	b.Run("independent/checks8", func(b *testing.B) { bench.MultiCheck(b, false, 8) })
	b.Run("independent/checks64", func(b *testing.B) { bench.MultiCheck(b, false, 64) })
	b.Run("shared/checks1", func(b *testing.B) { bench.MultiCheck(b, true, 1) })
	b.Run("shared/checks8", func(b *testing.B) { bench.MultiCheck(b, true, 8) })
	b.Run("shared/checks64", func(b *testing.B) { bench.MultiCheck(b, true, 64) })
	b.Run("shared/sliding24", bench.MultiCheckSliding)
}

// BenchmarkDecode prices the wire codecs (internal/wire) on warm
// decoders: zero allocations per event is the contract.
func BenchmarkDecode(b *testing.B) {
	b.Run("frame", bench.DecodeFrame)
	b.Run("ndjson", bench.DecodeNDJSON)
	b.Run("csv", bench.DecodeCSV)
}

// BenchmarkIngest prices the always-on server end to end: binary frames
// over loopback TCP through shard fan-in to completed verdicts,
// comparable to BenchmarkStreamThroughput/batch64.
func BenchmarkIngest(b *testing.B) {
	b.Run("loopback", bench.IngestLoopback)
}

// BenchmarkCheckpoint measures the deterministic state lifecycle's
// snapshot codec on a 256-group keyed operator: snapshot is the
// in-barrier serialization stall, restore the decode-and-rehydrate
// resume cost after a kill.
func BenchmarkCheckpoint(b *testing.B) {
	b.Run("snapshot", func(b *testing.B) { bench.Checkpoint(b, false) })
	b.Run("restore", func(b *testing.B) { bench.Checkpoint(b, true) })
}

// BenchmarkExplain measures one change-point explanation (§V-B what-if
// re-evaluations) for unary and binary checks.
func BenchmarkExplain(b *testing.B) {
	b.Run("unary", func(b *testing.B) { bench.Explain(b, 1) })
	b.Run("binary", func(b *testing.B) { bench.Explain(b, 2) })
}

// BenchmarkSummarize measures the full violation analysis of a
// multi-change-point result sequence, sequentially and fanned out over
// GOMAXPROCS pooled analyzers (bit-identical outputs).
func BenchmarkSummarize(b *testing.B) {
	b.Run("sequential", func(b *testing.B) { bench.Summarize(b, 0) })
	b.Run("parallel", func(b *testing.B) { bench.Summarize(b, runtime.GOMAXPROCS(0)) })
}

// BenchmarkDraw isolates one resampling iteration over a 64-point
// mixed-class window: the scalar PerturbValue path against the compiled
// SoA kernel path, per strategy. The pairs draw bit-identical values;
// the ratio is what plan compilation buys per draw.
func BenchmarkDraw(b *testing.B) {
	b.Run("point/scalar", func(b *testing.B) { bench.Draw(b, resample.Point, false) })
	b.Run("point/kernel", func(b *testing.B) { bench.Draw(b, resample.Point, true) })
	b.Run("set/scalar", func(b *testing.B) { bench.Draw(b, resample.Set, false) })
	b.Run("set/kernel", func(b *testing.B) { bench.Draw(b, resample.Set, true) })
	b.Run("sequence/scalar", func(b *testing.B) { bench.Draw(b, resample.Sequence, false) })
	b.Run("sequence/kernel", func(b *testing.B) { bench.Draw(b, resample.Sequence, true) })
}

// BenchmarkKernel measures the per-class batched kernels on single-class
// 64-point windows: the certain copy, the symmetric NormFill + axpy
// pass, and the asymmetric CoinNormFill + branch-free split-normal apply.
func BenchmarkKernel(b *testing.B) {
	b.Run("certain", func(b *testing.B) { bench.Kernel(b, 0, 0) })
	b.Run("symmetric", func(b *testing.B) { bench.Kernel(b, 2, 2) })
	b.Run("asymmetric", func(b *testing.B) { bench.Kernel(b, 3, 1) })
}

// BenchmarkDrawBlock measures the fused block draws on all-asymmetric
// windows, dense (64 points) and sparse (5 points), per strategy.
func BenchmarkDrawBlock(b *testing.B) {
	for _, strat := range []resample.Strategy{resample.Point, resample.Set, resample.Sequence} {
		b.Run(strat.String()+"/asymmetric", func(b *testing.B) { bench.DrawBlock(b, strat, 64) })
		b.Run(strat.String()+"/asymmetric-sparse", func(b *testing.B) { bench.DrawBlock(b, strat, 5) })
	}
}
