// Command soundbench regenerates the tables and figures of the SOUND
// paper's evaluation (§VI) on this machine.
//
// Usage:
//
//	soundbench -exp fig4            # one experiment
//	soundbench -exp all             # everything
//	soundbench -exp table5 -quick   # shrunken workloads, seconds not minutes
//	soundbench -list                # show available experiments
//	soundbench -benchjson out.json  # micro-benchmarks as machine-readable JSON
//	soundbench -ab runs.txt         # summarize `make ab` parent/change pairs of the standing benchmark
//	soundbench -exp fig6 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Absolute throughput/latency numbers differ from the paper's testbed;
// the shapes (who wins, rough factors, crossovers) are the reproduction
// target. See EXPERIMENTS.md for the paper-vs-measured record.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"sound/internal/bench"
	"sound/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("soundbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp         = fs.String("exp", "all", "experiment to run (fig1, fig4..fig9, table5, table6, ablation, or all)")
		seed        = fs.Uint64("seed", 1, "deterministic seed")
		quick       = fs.Bool("quick", false, "shrink workloads for a fast smoke run")
		events      = fs.Int("events", 0, "override streamed event volume (0 = default)")
		repeats     = fs.Int("repeats", 0, "override measurement repetitions (0 = default)")
		list        = fs.Bool("list", false, "list available experiments and exit")
		benchjson   = fs.String("benchjson", "", "run the Evaluate*/Ablation* micro-benchmarks and write results as JSON to this file ('-' for stdout)")
		benchfilter = fs.String("benchfilter", "", "only run benchmarks whose name contains this substring (with -benchjson)")
		ab          = fs.String("ab", "", "summarize the paired parent/change runs of the standing benchmark recorded in this file by `make ab` (metric directions and bounds from ./BENCHMARK.json)")
		cpu         = fs.Int("cpu", 0, "set GOMAXPROCS before running benchmarks (0 = leave as is); recorded per spec in the JSON output")
		cpuprofile  = fs.String("cpuprofile", "", "write a CPU profile of the run (experiments or -benchjson) to this file")
		memprofile  = fs.String("memprofile", "", "write an allocation profile taken at exit to this file")
		mutexprof   = fs.String("mutexprofile", "", "write a mutex contention profile taken at exit to this file (sets mutex profiling fraction to 1)")
		blockprof   = fs.String("blockprofile", "", "write a goroutine blocking profile taken at exit to this file (sets block profiling rate to 1)")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *cpu > 0 {
		runtime.GOMAXPROCS(*cpu)
	}

	if *list {
		fmt.Fprintln(stdout, strings.Join(experiments.Names(), "\n"))
		return 0
	}

	if *ab != "" {
		return runAB(*ab, "BENCHMARK.json", stdout, stderr)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "soundbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "soundbench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			runtime.GC()
			writeProfile("allocs", *memprofile, stderr)
		}()
	}
	// Mutex and block profiling price the transport's synchronization:
	// channel edges show up as sync/runtime contention here, SPSC ring
	// edges do not (they spin or sleep, never blocking on a lock), so the
	// two profiles make the ring-vs-channel tradeoff measurable.
	if *mutexprof != "" {
		runtime.SetMutexProfileFraction(1)
		defer writeProfile("mutex", *mutexprof, stderr)
	}
	if *blockprof != "" {
		runtime.SetBlockProfileRate(1)
		defer writeProfile("block", *blockprof, stderr)
	}

	if *benchjson != "" {
		return runBenchJSON(*benchjson, *benchfilter, stdout, stderr)
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

// writeProfile dumps one named runtime profile to path.
func writeProfile(name, path string, stderr io.Writer) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(stderr, "soundbench: %v\n", err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintf(stderr, "soundbench: %v\n", err)
	}
}

// benchRecord is one benchmark's result in the JSON output. Extra holds
// the domain metrics reported via b.ReportMetric (samples/window,
// falseviol/window, ...).
type benchRecord struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	GoMaxProcs  int                `json:"gomaxprocs"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

type benchReport struct {
	GoVersion  string        `json:"go_version"`
	GoOS       string        `json:"goos"`
	GoArch     string        `json:"goarch"`
	GoMaxProcs int           `json:"gomaxprocs"`
	UnixTime   int64         `json:"unix_time"`
	Benchmarks []benchRecord `json:"benchmarks"`
}

// runBenchJSON executes the shared micro-benchmark bodies under
// testing.Benchmark and writes one JSON document, so CI and analysis
// scripts can track the Alg. 1 hot path without parsing `go test -bench`
// text output.
func runBenchJSON(path, filter string, stdout, stderr io.Writer) int {
	report := benchReport{
		GoVersion:  runtime.Version(),
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		UnixTime:   time.Now().Unix(),
	}
	for _, spec := range bench.Specs() {
		if filter != "" && !strings.Contains(spec.Name, filter) {
			continue
		}
		fmt.Fprintf(stderr, "bench %-36s", spec.Name)
		r := testing.Benchmark(spec.Fn)
		rec := benchRecord{
			Name:        spec.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			GoMaxProcs:  runtime.GOMAXPROCS(0),
		}
		if len(r.Extra) > 0 {
			rec.Extra = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				rec.Extra[k] = v
			}
		}
		fmt.Fprintf(stderr, " %12.1f ns/op %8d allocs/op\n", rec.NsPerOp, rec.AllocsPerOp)
		report.Benchmarks = append(report.Benchmarks, rec)
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "soundbench: %v\n", err)
		return 1
	}
	buf = append(buf, '\n')
	if path == "-" {
		_, err = stdout.Write(buf)
	} else {
		err = os.WriteFile(path, buf, 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "soundbench: %v\n", err)
		return 1
	}
	return 0
}
