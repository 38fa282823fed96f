// Command benchmark is the repository's standing benchmark: it starts
// the real cmd/soundserve as a child process with shipped defaults,
// drives it over loopback sockets with generated traffic, checks every
// verdict against an in-process reference, and reports what an operator
// would see — points per second, verdict latency, CPU and memory per
// point, verdict quality — plus, in a separate traced run, what each
// module of the serving path costs. See README.md.
//
//	go -C benchmark run sound/benchmark --workload mc-borderline --seed 1 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"sound/internal/ingest"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 25

// Validity guards on the load generator: a paced slice that went out
// late measured the generator, or a freeze of the whole box, as much as
// the server. A slice is valid when no more than maxLateShare of its
// ticks were sent more than maxLagMs late; only valid slices are reported
// from. The run is valid when at least half of its slices are. An invalid
// run says correct: false.
const (
	maxLagMs        = 2.0
	maxLateShare    = 0.05 // of a slice's ticks later than maxLagMs
	maxInvalidShare = 0.5  // of a run's slices
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all)")
		seed         = flag.Uint64("seed", 1, "input seed: the same seed gives the same bytes")
		seconds      = flag.Float64("seconds", defaultSeconds, "measured seconds per run (saturation + paced phase at the seed commit's speed)")
		trace        = flag.Int("trace", 0, "1: also replay the input's first slice through each layer and report the per-layer metrics")
		aa           = flag.Bool("aa", false, "run the set twice on one binary and fail if any end-to-end metric differs by more than its bound")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAllChildren()
		os.Exit(130)
	}()

	selected := workloads
	if *workloadName != "" {
		wl := workloadByName(*workloadName)
		if wl == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		selected = []*workload{wl}
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	bin, err := buildServer()
	if err != nil {
		fatal(err)
	}
	if *aa {
		if err := runAA(selected, *seed, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	for _, wl := range selected {
		rec, err := runWorkload(bin, wl, *seed, *seconds, *trace == 1)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", wl.name, err))
		}
		rec.print(os.Stdout)
		if err := rec.save("record"); err != nil {
			fatal(err)
		}
		line, err := json.Marshal(rec.Result)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
}

func fatal(err error) {
	killAllChildren()
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// machine is the box and build a record was taken on.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func machineFacts() machine {
	m := machine{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	// The driver's checkout is not a git repository; "unknown" is the
	// honest answer there.
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = ".."
	if out, err := cmd.Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}

// record is everything one run printed, kept as out/record-<workload>.json.
type record struct {
	Workload string     `json:"workload"`
	Seed     uint64     `json:"seed"`
	Seconds  float64    `json:"seconds"`
	Traced   bool       `json:"traced"`
	Machine  machine    `json:"machine"`
	Result   resultLine `json:"result"`
	// EndToEnd is always filled; PerLayer only by a traced run. Result
	// carries whichever of the two the run was asked for.
	EndToEnd map[string]metricValue `json:"end_to_end"`
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`
	Detail   map[string]any         `json:"detail"`
}

func (r *record) print(w *os.File) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  traced %v\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	fmt.Fprintf(w, "machine  nproc %d  GOMAXPROCS %d  %s  commit %s\n", r.Machine.NProc, r.Machine.GOMAXPROCS, r.Machine.GoVersion, r.Machine.Commit)
	printMetrics := func(title string, defs []metricDef, vals map[string]metricValue) {
		if len(vals) == 0 {
			return
		}
		fmt.Fprintln(w, title)
		for _, d := range defs {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, vals[d.name].Value, d.unit)
		}
	}
	printMetrics("end to end", endToEnd, r.EndToEnd)
	printMetrics("per layer", perLayer, r.PerLayer)
	keys := make([]string, 0, len(r.Detail))
	for k := range r.Detail {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintln(w, "detail")
	for _, k := range keys {
		fmt.Fprintf(w, "  %-34s %v\n", k, r.Detail[k])
	}
}

// save keeps the record as out/<prefix>-<workload>.json.
func (r *record) save(prefix string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, prefix+"-"+r.Workload+".json"), append(b, '\n'), 0o644)
}

// roundResult is one round: a fresh child taken through set-up, the
// saturation burst and the paced phase.
type roundResult struct {
	setupS    float64
	setupHost float64 // host index over the set-up
	sat       satResult
	paced     pacedResult
	rssMiB    float64
	lost      int64 // accepted points the server never consumed
	reject    int64
}

// failed counts what went wrong in the round: points sent but never
// consumed or refused, verdict counts off the reference after either
// phase, feed lines missing, extra or different, and everything the
// server itself counted as lost.
func (r *roundResult) failed() int {
	final := r.paced.final
	return int(r.lost+r.reject) + r.sat.failed + r.paced.match.failed() + r.paced.failed +
		r.paced.unparsed + int(final.Dropped+final.DecodeErrors+final.OutcomesDropped)
}

func runRound(bin string, in *input) (*roundResult, error) {
	s, dt, host, err := setup(bin, in)
	if err != nil {
		return nil, err
	}
	defer s.close()
	r := &roundResult{setupS: dt, setupHost: host}
	if r.sat, err = s.saturate(); err != nil {
		return nil, err
	}
	if r.paced, err = s.pace(); err != nil {
		return nil, err
	}
	if r.rssMiB, err = s.c.rssPeakMiB(); err != nil {
		return nil, err
	}
	r.reject = s.rejected
	r.lost = max(0, s.sent-s.rejected-r.paced.final.Consumed)
	return r, nil
}

// socketRun is what the rounds of one run add up to.
type socketRun struct {
	rounds []*roundResult
	// lat is every matched verdict latency of every round, in ms, sorted.
	lat         []float64
	latWholeP99 float64 // over lat: every stall of every round is in it
	lagP99      float64 // over every tick of every round
	hostIndex   float64 // the median round's, over its saturation burst
	slices      []sliceResult
	invalid     int     // slices in which the generator did not keep its schedule
	achieved    float64 // points/s actually sent, the slowest round's
	drained     bool    // every round's backlog drained within a second
	failed      int
	edgeMax     int64
	churnPairMs []float64
	final       ingest.Stats // the last round's
}

// valid reports whether the load generator kept its schedule.
func (run *socketRun) valid() bool {
	return float64(run.invalid) <= maxInvalidShare*float64(len(run.slices))
}

func runSockets(bin string, in *input) (*socketRun, error) {
	run := &socketRun{drained: true, achieved: math.Inf(1)}
	var lag []float64
	for i := 0; i < rounds; i++ {
		r, err := runRound(bin, in)
		if err != nil {
			return nil, fmt.Errorf("round %d of %d: %w", i+1, rounds, err)
		}
		run.rounds = append(run.rounds, r)
		for _, m := range r.paced.match.matched {
			run.lat = append(run.lat, float64(m.recv-m.due)/1e6)
		}
		lag = append(lag, r.paced.lagMs...)
		for _, sl := range r.paced.slices {
			run.slices = append(run.slices, sl)
			if !sl.valid() {
				run.invalid++
			}
		}
		run.achieved = min(run.achieved, r.paced.achieved)
		run.drained = run.drained && r.paced.drained
		run.failed += r.failed()
		run.edgeMax = max(run.edgeMax, r.paced.edgeMax)
		run.churnPairMs = append(run.churnPairMs, r.paced.churnPairMs...)
		run.final = r.paced.final
	}
	sort.Float64s(run.lat)
	run.hostIndex = median(run.perRound(func(r *roundResult) float64 { return r.sat.host }))
	var err error
	if run.latWholeP99, err = percentile(run.lat, 99); err != nil {
		return nil, fmt.Errorf("verdict latency: %w (raise --seconds)", err)
	}
	if run.lagP99, err = percentile(sortedCopy(lag), 99); err != nil {
		return nil, fmt.Errorf("load generator lag: %w (raise --seconds)", err)
	}
	return run, nil
}

// perRound collects one value from every round.
func (run *socketRun) perRound(f func(*roundResult) float64) []float64 {
	vs := make([]float64, len(run.rounds))
	for i, r := range run.rounds {
		vs[i] = f(r)
	}
	return vs
}

// perSlice collects one value from every valid slice of every round.
func (run *socketRun) perSlice(f func(sliceResult) float64) []float64 {
	var vs []float64
	for _, sl := range run.slices {
		if sl.valid() {
			vs = append(vs, f(sl))
		}
	}
	return vs
}

func runWorkload(bin string, wl *workload, seed uint64, seconds float64, traced bool) (*record, error) {
	rec := &record{Workload: wl.name, Seed: seed, Seconds: seconds, Traced: traced, Machine: machineFacts(), Detail: map[string]any{}}
	var tr *layerTrace
	if traced {
		// Before anything else compiles a plan: the decision tables are
		// cached per process, and set-up pays for them cold.
		var err error
		if tr, err = newLayerTrace(wl); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	in, err := prepare(wl, seed, seconds)
	if err != nil {
		return nil, err
	}
	rec.Detail["prepare_s"] = time.Since(t0).Seconds()
	// Collect what generation left behind and hand it back to the OS now,
	// so that neither a collection nor the scavenger of this process runs
	// beside the child while a clock is running.
	debug.FreeOSMemory()
	run, err := runSockets(bin, in)
	if err != nil {
		return nil, err
	}
	if run.invalid == len(run.slices) {
		return nil, fmt.Errorf("the load generator kept its schedule in none of %d slices (lag p99 %.3f ms)", len(run.slices), run.lagP99)
	}

	whole := in.ref.tally(cutStart, cutEnd)
	topQ, topV, n, err := highestPercentile(run.lat)
	if err != nil {
		return nil, err
	}
	// Every timing is stated at host index 1. A burst or set-up time is
	// divided by the index of the stretch it was taken in, a rate multiplied
	// by it, and the median round is reported. Of a slice's latency the
	// schedule's own wait (scheduleWaitMs) stays as it is and the rest is
	// divided by the slice's index. The p50 is the median slice's; the p99
	// the calmest slice's, because a tail is made of stalls, the host's
	// stalls only ever add to it, and they do not move with the index.
	wait50, wait99 := wl.scheduleWaitMs()
	atHostOne := func(ms, wait, host float64) float64 { return wait + (ms-wait)/host }
	satMpoints := float64(in.sat.points) / 1e6
	pps := run.perRound(func(r *roundResult) float64 { return float64(in.sat.points) / r.sat.wallS * r.sat.host })
	cpu := run.perRound(func(r *roundResult) float64 { return r.sat.cpuS / satMpoints / r.sat.host })
	setups := run.perRound(func(r *roundResult) float64 { return r.setupS / r.setupHost })
	rss := run.perRound(func(r *roundResult) float64 { return r.rssMiB })
	p50s := run.perSlice(func(sl sliceResult) float64 { return atHostOne(sl.p50, wait50, sl.host) })
	p99s := run.perSlice(func(sl sliceResult) float64 { return atHostOne(sl.p99, wait99, sl.host) })

	e2e := map[string]float64{
		"setup_s":            median(setups),
		"points_per_s":       median(pps),
		"verdict_lat_p50_ms": median(p50s),
		"verdict_lat_p99_ms": slices.Min(p99s),
		"cpu_s_per_mpoint":   median(cpu),
		"rss_peak_mb":        median(rss),
		"verdict_agree_frac": 1 - float64(whole.wrong)/float64(whole.judged),
		"conclusive_frac":    1 - float64(whole.inconclusive)/float64(whole.verdicts),
	}
	var missing []string
	if rec.EndToEnd, missing = pack(endToEnd, e2e); len(missing) > 0 {
		return nil, fmt.Errorf("end-to-end metrics not computed: %v", missing)
	}

	attempted := rounds * (in.points() + whole.verdicts)
	rec.Result = resultLine{
		Correct:   run.failed == 0 && run.valid() && run.drained,
		Attempted: attempted,
		Failed:    min(run.failed, attempted),
		Metrics:   rec.EndToEnd,
	}
	last := run.rounds[rounds-1]
	rec.Detail["rounds"] = rounds
	rec.Detail["points_per_round"] = in.points()
	rec.Detail["points_warm_sat_paced"] = []int{in.warm.points, in.sat.points, in.paced.points}
	rec.Detail["encoded_bytes"] = len(in.data)
	rec.Detail["reference_verdicts_per_round"] = whole.verdicts
	rec.Detail["failed_frac"] = float64(rec.Result.Failed) / float64(attempted)
	rec.Detail["wrong_verdict_frac"] = float64(whole.wrong) / float64(whole.judged)
	byCheck := map[string]string{}
	for i, name := range in.ref.checks {
		c := whole.perCheck[i]
		byCheck[name] = fmt.Sprintf("⊤ %d ⊥ %d ⊣ %d, against the latent truth %d (%s)", c[0], c[1], c[2], whole.wrongBy[i],
			map[bool]string{true: "judged", false: "not comparable"}[in.ref.comparable[i]])
	}
	rec.Detail["verdicts_by_check"] = byCheck
	rec.Detail["inconclusive_frac"] = float64(whole.inconclusive) / float64(whole.verdicts)
	rec.Detail["round_setup_s"] = setups
	rec.Detail["round_points_per_s"] = pps
	rec.Detail["round_cpu_s_per_mpoint"] = cpu
	rec.Detail["round_rss_peak_mb"] = rss
	rec.Detail["round_sat_host_index"] = run.perRound(func(r *roundResult) float64 { return r.sat.host })
	rec.Detail["round_setup_host_index"] = run.perRound(func(r *roundResult) float64 { return r.setupHost })
	rec.Detail["round_setup_s_raw"] = run.perRound(func(r *roundResult) float64 { return r.setupS })
	rec.Detail["round_points_per_s_raw"] = run.perRound(func(r *roundResult) float64 { return float64(in.sat.points) / r.sat.wallS })
	rec.Detail["round_cpu_s_per_mpoint_raw"] = run.perRound(func(r *roundResult) float64 { return r.sat.cpuS / satMpoints })
	rec.Detail["round_sat_wall_s"] = run.perRound(func(r *roundResult) float64 { return r.sat.wallS })
	rec.Detail["round_paced_cpu_s_per_mpoint"] = run.perRound(func(r *roundResult) float64 { return r.paced.cpuS / (float64(in.paced.points) / 1e6) })
	rec.Detail["round_failed"] = run.perRound(func(r *roundResult) float64 { return float64(r.failed()) })
	for i, r := range run.rounds {
		if r.failed() == 0 {
			continue
		}
		m, final := r.paced.match, r.paced.final
		rec.Detail[fmt.Sprintf("round_%d_failures", i+1)] = fmt.Sprintf("lost %d, refused %d, sat count diff %d, feed missing %d extra %d different %d unparsed %d, final count diff %d, server dropped %d decode errors %d outcomes dropped %d",
			r.lost, r.reject, r.sat.failed, m.missing, m.extra, m.different, r.paced.unparsed, r.paced.failed, final.Dropped, final.DecodeErrors, final.OutcomesDropped)
	}
	rec.Detail["round_loadgen_overrun_ticks"] = run.perRound(func(r *roundResult) float64 { return float64(r.paced.overruns) })
	rec.Detail["paced_rate_pts_s"] = wl.pacedRate
	rec.Detail["paced_schedule_wait_p50_p99_ms"] = []float64{wait50, wait99}
	rec.Detail["paced_matched_verdicts"] = len(run.lat)
	rec.Detail["paced_expected_verdicts_per_round"] = last.paced.match.expected
	rec.Detail["paced_backlog_drained_within_1s"] = run.drained
	rec.Detail["churn_verdict_lines"] = last.paced.churnLines
	rec.Detail["verdict_lat_whole_p99_ms"] = run.latWholeP99
	rec.Detail["slice_verdict_lat_p50_ms"] = p50s
	rec.Detail["slice_verdict_lat_p99_ms"] = p99s
	rec.Detail["slice_verdict_lat_p50_ms_raw"] = run.perSlice(func(sl sliceResult) float64 { return sl.p50 })
	rec.Detail["slice_verdict_lat_p99_ms_raw"] = run.perSlice(func(sl sliceResult) float64 { return sl.p99 })
	late := make([]float64, len(run.slices))
	for i, sl := range run.slices {
		late[i] = sl.late
	}
	rec.Detail["slice_late_tick_share"] = late
	rec.Detail["slice_host_index"] = run.perSlice(func(sl sliceResult) float64 { return sl.host })
	rec.Detail["verdict_lat_top"] = fmt.Sprintf("p%g = %.4f ms over n = %d", topQ, topV, n)
	rec.Detail["loadgen_lag_p99_ms"] = run.lagP99
	rec.Detail["loadgen_invalid_slices"] = fmt.Sprintf("%d of %d", run.invalid, len(run.slices))
	rec.Detail["loadgen_achieved_pts_s"] = run.achieved
	rec.Detail["loadgen_valid"] = run.valid()
	rec.Detail["loadgen_sender_realtime"] = last.paced.boosted

	if traced {
		layers, err := tr.run(in, seed, seconds, run)
		if err != nil {
			return nil, err
		}
		if rec.PerLayer, missing = pack(perLayer, layers); len(missing) > 0 {
			return nil, fmt.Errorf("per-layer metrics not computed: %v", missing)
		}
		rec.Result.Metrics = rec.PerLayer
		rec.Detail["trace_file"] = tr.file
		rec.Detail["ns_per_point_bill"] = tr.bill
	}
	for name, v := range rec.Result.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	return rec, nil
}

// runInOwnProcess runs one workload the way the driver does — in a
// process of its own, so that the second run of a pair does not inherit
// the first one's heap — and reads back the record it kept.
func runInOwnProcess(wl *workload, seed uint64, seconds float64) (*record, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", wl.name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	b, err := os.ReadFile(filepath.Join(outDir, "record-"+wl.name+".json"))
	if err != nil {
		return nil, err
	}
	rec := &record{}
	return rec, json.Unmarshal(b, rec)
}

// runAA is the agreement check: the whole set twice on the same binary.
// Two runs of the same code must agree within the benchmark's own
// bounds before a difference between two commits means anything.
func runAA(selected []*workload, seed uint64, seconds float64) error {
	bounds, err := loadBounds()
	if err != nil {
		return err
	}
	var disagreements []string
	for _, wl := range selected {
		var recs [2]*record
		for i := range recs {
			if recs[i], err = runInOwnProcess(wl, seed, seconds); err != nil {
				return fmt.Errorf("%s (run %c): %w", wl.name, 'A'+i, err)
			}
			if !recs[i].Result.Correct {
				disagreements = append(disagreements, fmt.Sprintf("%s run %c: not correct (failed %d)", wl.name, 'A'+i, recs[i].Result.Failed))
			}
			if err := recs[i].save(fmt.Sprintf("aa-%c", 'A'+i)); err != nil {
				return err
			}
		}
		fmt.Printf("%s\n", wl.name)
		for _, d := range endToEnd {
			a, b := recs[0].EndToEnd[d.name].Value, recs[1].EndToEnd[d.name].Value
			worse := (b - a) / a // how much worse B is than A, as a share of A
			if d.higher {
				worse = -worse
			}
			verdict := "ok"
			if math.Abs(worse) > bounds[d.name] {
				verdict = "DISAGREE"
				disagreements = append(disagreements, fmt.Sprintf("%s %s: A %.6g, B %.6g, %.1f %% apart, bound %.1f %%", wl.name, d.name, a, b, 100*math.Abs(worse), 100*bounds[d.name]))
			}
			fmt.Printf("  %-22s A %14.6g  B %14.6g  %+6.1f %%  bound %4.1f %%  %s\n", d.name, a, b, 100*worse, 100*bounds[d.name], verdict)
		}
	}
	if len(disagreements) > 0 {
		return errors.New("A/A runs disagree:\n  " + strings.Join(disagreements, "\n  "))
	}
	fmt.Println("A/A runs agree within every bound")
	return nil
}

// benchmarkJSON is the part of ../BENCHMARK.json this program reads.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON() (*benchmarkJSON, error) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bj, nil
}

func loadBounds() (map[string]float64, error) {
	bj, err := loadBenchmarkJSON()
	if err != nil {
		return nil, err
	}
	bounds := map[string]float64{}
	for _, m := range bj.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}
