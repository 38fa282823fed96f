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
//	soundbench -benchcmp -gate 20   # diff the two latest BENCH_*.json, fail on >20% ns/op regressions
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
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
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
		benchcmp    = fs.Bool("benchcmp", false, "compare two -benchjson files (old new; default: the two latest BENCH_*.json) and print per-spec deltas")
		ab          = fs.String("ab", "", "summarize the paired parent/change runs of the standing benchmark recorded in this file by `make ab` (metric directions and bounds from ./BENCHMARK.json)")
		gate        = fs.Float64("gate", 0, "with -benchcmp: exit nonzero when any spec's ns/op regresses by more than this percentage (0 = report only)")
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

	if *benchcmp {
		oldPath, newPath := fs.Arg(0), fs.Arg(1)
		if fs.NArg() == 0 {
			var err error
			if oldPath, newPath, err = latestBenchFiles("."); err != nil {
				fmt.Fprintf(stderr, "soundbench: %v\n", err)
				return 1
			}
		} else if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "soundbench: -benchcmp needs exactly two JSON files (old new) or none (the two latest BENCH_*.json)")
			return 1
		}
		return runBenchCmp(oldPath, newPath, *gate, stdout, stderr)
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

// latestBenchFiles returns the two newest checked-in benchmark records
// (BENCH_PR<n>.json in natural version order), the default operands of
// -benchcmp so CI can diff "the last PR vs this one" without naming
// files. Files that merely resemble a record (BENCH_notes.json, editor
// backups) are skipped, not misread as the latest PR.
func latestBenchFiles(dir string) (oldPath, newPath string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", "", err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && isBenchRecord(e.Name()) {
			names = append(names, e.Name())
		}
	}
	if len(names) < 2 {
		return "", "", fmt.Errorf("need two BENCH_PR<n>.json files in %s, found %d", dir, len(names))
	}
	sort.Slice(names, func(i, j int) bool { return naturalLess(names[i], names[j]) })
	return filepath.Join(dir, names[len(names)-2]), filepath.Join(dir, names[len(names)-1]), nil
}

// isBenchRecord reports whether name is exactly BENCH_PR<digits>.json.
func isBenchRecord(name string) bool {
	mid, ok := strings.CutPrefix(name, "BENCH_PR")
	if !ok {
		return false
	}
	digits, ok := strings.CutSuffix(mid, ".json")
	if !ok || digits == "" {
		return false
	}
	for i := 0; i < len(digits); i++ {
		if !isDigit(digits[i]) {
			return false
		}
	}
	return true
}

// naturalLess orders strings with embedded integers numerically, so
// BENCH_PR9.json sorts before BENCH_PR10.json.
func naturalLess(a, b string) bool {
	for a != "" && b != "" {
		if isDigit(a[0]) && isDigit(b[0]) {
			ai, an := leadingInt(a)
			bi, bn := leadingInt(b)
			if ai != bi {
				return ai < bi
			}
			a, b = a[an:], b[bn:]
			continue
		}
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		a, b = a[1:], b[1:]
	}
	return a == "" && b != ""
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func leadingInt(s string) (v int64, n int) {
	for n < len(s) && isDigit(s[n]) {
		v = v*10 + int64(s[n]-'0')
		n++
	}
	return v, n
}

// runBenchCmp diffs two -benchjson reports spec by spec: ns/op and
// allocs/op deltas for every benchmark present in both, plus any extra
// domain metrics (points/sec, ns/event, ...) the spec reported. Specs
// present in only one file are listed so a rename or new benchmark is
// visible rather than silently dropped. A nonzero gate turns the diff
// into a check: any spec whose ns/op regressed by more than gate percent
// fails the run.
func runBenchCmp(oldPath, newPath string, gate float64, stdout, stderr io.Writer) int {
	load := func(path string) (*benchReport, error) {
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r benchReport
		if err := json.Unmarshal(buf, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &r, nil
	}
	oldRep, err := load(oldPath)
	if err != nil {
		fmt.Fprintf(stderr, "soundbench: %v\n", err)
		return 1
	}
	newRep, err := load(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "soundbench: %v\n", err)
		return 1
	}

	newByName := make(map[string]benchRecord, len(newRep.Benchmarks))
	for _, rec := range newRep.Benchmarks {
		newByName[rec.Name] = rec
	}
	pct := func(oldV, newV float64) string {
		if oldV == 0 {
			return "    n/a"
		}
		return fmt.Sprintf("%+6.1f%%", (newV-oldV)/oldV*100)
	}

	fmt.Fprintf(stdout, "benchcmp %s -> %s\n", oldPath, newPath)
	fmt.Fprintf(stdout, "%-36s %14s %14s %8s\n", "spec", "old ns/op", "new ns/op", "delta")
	var regressions []string
	seen := make(map[string]bool, len(oldRep.Benchmarks))
	for _, oldRec := range oldRep.Benchmarks {
		seen[oldRec.Name] = true
		newRec, ok := newByName[oldRec.Name]
		if !ok {
			fmt.Fprintf(stdout, "%-36s %14.1f %14s %8s\n", oldRec.Name, oldRec.NsPerOp, "-", "gone")
			continue
		}
		fmt.Fprintf(stdout, "%-36s %14.1f %14.1f %8s\n",
			oldRec.Name, oldRec.NsPerOp, newRec.NsPerOp, pct(oldRec.NsPerOp, newRec.NsPerOp))
		if gate > 0 && oldRec.NsPerOp > 0 && (newRec.NsPerOp-oldRec.NsPerOp)/oldRec.NsPerOp*100 > gate {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.1f -> %.1f ns/op (%s > +%.1f%%)",
					oldRec.Name, oldRec.NsPerOp, newRec.NsPerOp,
					strings.TrimSpace(pct(oldRec.NsPerOp, newRec.NsPerOp)), gate))
		}
		if oldRec.AllocsPerOp != newRec.AllocsPerOp {
			fmt.Fprintf(stdout, "  %-34s %14d %14d %8s\n", "allocs/op",
				oldRec.AllocsPerOp, newRec.AllocsPerOp,
				pct(float64(oldRec.AllocsPerOp), float64(newRec.AllocsPerOp)))
		}
		metrics := make([]string, 0, len(oldRec.Extra))
		for metric := range oldRec.Extra {
			if _, ok := newRec.Extra[metric]; ok {
				metrics = append(metrics, metric)
			}
		}
		sort.Strings(metrics)
		for _, metric := range metrics {
			oldV, newV := oldRec.Extra[metric], newRec.Extra[metric]
			fmt.Fprintf(stdout, "  %-34s %14.1f %14.1f %8s\n", metric, oldV, newV, pct(oldV, newV))
		}
	}
	for _, newRec := range newRep.Benchmarks {
		if !seen[newRec.Name] {
			fmt.Fprintf(stdout, "%-36s %14s %14.1f %8s\n", newRec.Name, "-", newRec.NsPerOp, "new")
		}
	}
	if len(regressions) > 0 {
		fmt.Fprintf(stderr, "soundbench: %d spec(s) beyond the %.1f%% regression gate:\n", len(regressions), gate)
		for _, r := range regressions {
			fmt.Fprintf(stderr, "  %s\n", r)
		}
		return 1
	}
	return 0
}
