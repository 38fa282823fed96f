// Command soundbench regenerates the tables and figures of the SOUND
// paper's evaluation (§VI) on this machine.
//
// Usage:
//
//	soundbench -exp fig4            # one experiment
//	soundbench -exp all             # everything
//	soundbench -exp table5 -quick   # shrunken workloads, seconds not minutes
//	soundbench -list                # show available experiments
//	soundbench -ab runs.txt         # summarize `make ab` parent/change pairs of the standing benchmark
//
// Micro-benchmarks and profiles come from the Go toolchain, not from
// this command: `go test -run '^$' -bench 'Specs/<name>' .` for the
// internal/bench table, `go test -run '^$' -bench 'Fig6' -cpuprofile
// cpu.pprof .` for an experiment.
//
// Absolute throughput/latency numbers differ from the paper's testbed;
// the shapes (who wins, rough factors, crossovers) are the reproduction
// target. See EXPERIMENTS.md for the paper-vs-measured record.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"sound/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("soundbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "all", "experiment to run (fig1, fig4..fig9, table5, table6, ablation, or all)")
		seed    = fs.Uint64("seed", 1, "deterministic seed")
		quick   = fs.Bool("quick", false, "shrink workloads for a fast smoke run")
		events  = fs.Int("events", 0, "override streamed event volume (0 = default)")
		repeats = fs.Int("repeats", 0, "override measurement repetitions (0 = default)")
		list    = fs.Bool("list", false, "list available experiments and exit")
		ab      = fs.String("ab", "", "summarize the paired parent/change runs of the standing benchmark recorded in this file by `make ab` (metric directions and bounds from ./BENCHMARK.json)")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}

	if *list {
		fmt.Fprintln(stdout, strings.Join(experiments.Names(), "\n"))
		return 0
	}

	if *ab != "" {
		return runAB(*ab, "BENCHMARK.json", stdout, stderr)
	}

	opts := experiments.Options{Seed: *seed, Quick: *quick, Events: *events, Repeats: *repeats}
	names := []string{*exp}
	if *exp == "all" {
		names = experiments.Names()
	}
	for _, name := range names {
		start := time.Now()
		out, err := experiments.Run(name, opts)
		if err != nil {
			fmt.Fprintf(stderr, "soundbench: %s: %v\n", name, err)
			return 1
		}
		fmt.Fprintf(stdout, "=== %s (%.1fs) ===\n%s\n", name, time.Since(start).Seconds(), out)
	}
	return 0
}
