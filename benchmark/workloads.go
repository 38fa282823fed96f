package main

import (
	"fmt"
	"strconv"

	"sound/internal/checker"
	"sound/internal/core"
	"sound/internal/ingest"
)

// workload is one traffic mix: what is sent, over which wire, to a
// soundserve started with which flags and checks. BENCHMARK.json lists
// the same names; TestBenchmarkJSON keeps the two in step.
type workload struct {
	name      string
	why       string // one line, copied into BENCHMARK.json
	transport transport
	newSource func(seed uint64) *source

	// checks are soundserve -check specs in registration order. Every
	// bucket has at least two SOUND members: a lone member runs the
	// legacy claim-ordered seed schedule, whose shard claim order is a
	// race, so its borderline verdicts do not repeat across runs.
	checks []string
	// churn, when set, is the spec of one more same-class member that is
	// registered and removed once a second during the paced phase. Its
	// verdicts are counted but not diffed against the reference.
	churn      string
	maxSamples int                    // soundserve -n
	evict      checker.EvictionPolicy // soundserve -ttl / -max-groups

	// satRate sizes the saturation burst: the fixed point count is what
	// this rate delivers in the burst's share of a round. It is the seed
	// commit's measured points_per_s, rounded.
	satRate int
	// pacedRate is the fixed open-loop rate of the paced phase, set once
	// from the seed measurement (see README) and never edited by a change
	// that claims a gain. It would sit in BENCHMARK.json, but that file's
	// schema has no place for it.
	pacedRate int
}

// Shipped soundserve defaults, stated here because the reference replay
// has to partition and batch the way the server does.
const (
	serverShards = 4
	serverBatch  = 64
	credibility  = 0.95
	checkSeed    = 1
	churnName    = "churn"
)

// Window shapes the dense generators stagger their keys over.
const (
	clearcutWindow = 512 // time units, tumbling
	slidingSize    = 1080
	slidingSlide   = 180
)

var slidingWindow = fmt.Sprintf("window=time:%d:%d", slidingSize, slidingSlide)

var workloads = []*workload{
	{
		name:       "frames-clearcut",
		why:        "binary frames, 64 dense keys, certain mid-range values: transport and windowing do the work, draws none",
		transport:  tcpFrames,
		newSource:  clearcutSource,
		maxSamples: 100,
		checks: []string{
			fmt.Sprintf("range;min=0;max=100;window=time:%d;name=range", clearcutWindow),
			fmt.Sprintf("gt;threshold=-1;window=time:%d;name=gt", clearcutWindow),
		},
		satRate:   7_000_000,
		pacedRate: 1_000_000,
	},
	{
		name:       "mc-borderline",
		why:        "sparse and dense Poisson keys, asymmetric sigma, values on the bounds, N=1000, set and sequence buckets: draws and Alg. 1",
		transport:  tcpFrames,
		newSource:  mcBorderlineSource,
		maxSamples: 1000,
		checks: []string{
			fmt.Sprintf("range;min=0;max=105;window=time:%d;name=range", borderlineWindow),
			fmt.Sprintf("fraction;min=0;max=100;threshold=0.46;window=time:%d;name=fraction46", borderlineWindow),
			fmt.Sprintf("fraction;min=0;max=100;threshold=0.5;window=time:%d;name=fraction50", borderlineWindow),
			fmt.Sprintf("fraction;min=0;max=100;threshold=0.54;window=time:%d;name=fraction54", borderlineWindow),
			fmt.Sprintf("stdnonzero;window=time:%d;name=stdnonzero", borderlineWindow),
			"monotonic;window=count:64;name=monotonic",
			"maxdelta;threshold=10.5;window=count:64;name=maxdelta",
		},
		satRate:   200_000,
		pacedRate: 32_000,
	},
	{
		name:       "suite-sliding",
		why:        "24 co-window checks in two lanes on 6x overlapping windows plus check churn: shared draws, re-extraction, publish rate",
		transport:  tcpFrames,
		newSource:  slidingSource,
		maxSamples: 100,
		checks:     slidingSuite(),
		churn:      "range;min=0;max=120;" + slidingWindow + ";name=" + churnName,
		satRate:    450_000,
		pacedRate:  40_000,
	},
	{
		name:       "ndjson-manykeys",
		why:        "HTTP NDJSON, 200000 Zipf keys, displaced events, live eviction: the other codec, key tables past every cache",
		transport:  httpNDJSON,
		newSource:  manyKeysSource,
		maxSamples: 100,
		evict:      checker.EvictionPolicy{TTL: 600, MaxGroups: 20000},
		checks: []string{
			fmt.Sprintf("range;min=0;max=100;window=time:%g;name=range", manyWindow),
			fmt.Sprintf("nonneg;window=time:%g;name=nonneg", manyWindow),
		},
		satRate:   1_200_000,
		pacedRate: 120_000,
	},
}

// slidingSuite is the 24-member bucket of suite-sliding: six templates
// at spread thresholds, all on one sliding window, so one extraction and
// one sample matrix per strategy lane and (key, window) serve twenty-four
// verdicts. The templates use two lanes (point: range, gt, nonneg; set:
// fraction, maxdelta, stdnonzero), so 22 of 24 member evaluations reuse
// an extraction primed for another member.
func slidingSuite() []string {
	var specs []string
	add := func(name, body string) {
		specs = append(specs, fmt.Sprintf("%s;%s;name=%s", body, slidingWindow, name))
	}
	for _, max := range []int{101, 103, 106, 110, 115} {
		add("range"+strconv.Itoa(max), fmt.Sprintf("range;min=0;max=%d", max))
	}
	for _, t := range []int{60, 75, 85, 92} {
		add("gt"+strconv.Itoa(t), fmt.Sprintf("gt;threshold=%d", t))
	}
	add("nonneg", "nonneg")
	for _, max := range []int{98, 100, 102} {
		for _, f := range []int{70, 85, 95} {
			add(fmt.Sprintf("fraction%dbelow%d", f, max), fmt.Sprintf("fraction;min=0;max=%d;threshold=0.%d", max, f))
		}
	}
	for _, d := range []int{12, 17, 22, 28} {
		add("maxdelta"+strconv.Itoa(d), fmt.Sprintf("maxdelta;threshold=%d", d))
	}
	add("stdnonzero", "stdnonzero")
	return specs
}

// scheduleWaitMs is the part of a paced verdict's age that the schedule
// puts there, whatever server and host do. A shard hands events to its
// operator in transport frames of serverBatch. Where a tick carries less
// than a frame per shard, an event waits half the time its shard takes to
// collect one at the median, and all of it at the tail; where a tick
// carries several, the median event leaves with its own tick and the tail
// event, in the trailing partial frame, waits for the next.
func (wl *workload) scheduleWaitMs() (p50, p99 float64) {
	tick := float64(wl.tickNs()) / 1e6
	fill := serverBatch * serverShards / float64(wl.pacedRate) * 1e3
	if fill > tick {
		p50 = fill / 2
	}
	return p50, max(fill, tick)
}

func workloadByName(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// checkConfigs parses the workload's check specs the way soundserve
// parses its -check flags.
func (wl *workload) checkConfigs() ([]ingest.CheckConfig, error) {
	cfgs := make([]ingest.CheckConfig, len(wl.checks))
	for i, spec := range wl.checks {
		var err error
		if cfgs[i], err = ingest.ParseCheck(spec, wl.params(), checkSeed, wl.evict); err != nil {
			return nil, err
		}
	}
	return cfgs, nil
}

// newMux registers the checks with a fresh Mux exactly as
// ingest.Server.AddCheck does; hook completes each registration (sinks,
// BASE_CHECK semantics) before it is made.
func (wl *workload) newMux(hook func(i int, mc *checker.MuxCheck)) (*checker.Mux, error) {
	cfgs, err := wl.checkConfigs()
	if err != nil {
		return nil, err
	}
	mux := checker.NewMux(false, wl.evict)
	for i, cc := range cfgs {
		mc := checker.MuxCheck{
			Name: cc.Name, Check: cc.Check, Params: cc.Params, Seed: cc.Seed,
			Route: cc.Route, RouteID: cc.RouteSpec,
		}
		hook(i, &mc)
		if err := mux.Register(mc); err != nil {
			return nil, err
		}
	}
	return mux, nil
}

func (wl *workload) params() core.Params {
	return core.Params{Credibility: credibility, MaxSamples: wl.maxSamples}
}

// serverArgs are the soundserve flags of this workload; the listeners
// take port 0 and the addresses are read back from the child's stderr.
func (wl *workload) serverArgs() []string {
	args := []string{
		"-tcp", "127.0.0.1:0", "-http", "127.0.0.1:0",
		"-c", strconv.FormatFloat(credibility, 'g', -1, 64),
		"-n", strconv.Itoa(wl.maxSamples),
		"-seed", strconv.Itoa(checkSeed),
	}
	if wl.evict.TTL > 0 {
		args = append(args, "-ttl", strconv.FormatFloat(wl.evict.TTL, 'g', -1, 64))
	}
	if wl.evict.MaxGroups > 0 {
		args = append(args, "-max-groups", strconv.Itoa(wl.evict.MaxGroups))
	}
	for _, spec := range wl.checks {
		args = append(args, "-check", spec)
	}
	return args
}
