package smartgrid

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"sound/internal/checker"
	"sound/internal/core"
	"sound/internal/stream"
)

// Mode selects the instrumentation level of the streaming application,
// matching the paper's baselines (§VI-A).
type Mode int

const (
	// BaseNom is the nominal, uninstrumented pipeline (BASE_NOM).
	BaseNom Mode = iota
	// BaseCheck instruments the pipeline with naive checks (BASE_CHECK).
	BaseCheck
	// Sound instruments the pipeline with SOUND checks (Alg. 1).
	Sound
)

func (m Mode) String() string {
	switch m {
	case BaseNom:
		return "BASE_NOM"
	case BaseCheck:
		return "BASE_CHECK"
	case Sound:
		return "SOUND"
	}
	return "unknown"
}

// StreamApp is the streaming SGA application: a source of plug readings,
// per-household minute averaging, usage normalization, and alerting.
// Sanity checks are attached as parallel side branches of the nominal
// dataflow (paper §IV-A: "the evaluation is performed as soon as the
// data is available and in parallel to the nominal data processing"),
// so their cost shows up as resource contention and fan-out, not as an
// extra pipeline stage.
type StreamApp struct {
	Graph    *stream.Graph
	Outcomes map[string]*checker.StreamOutcomes
	// SinkName is the sink carrying the full nominal event volume; the
	// overhead experiments report its throughput and latency.
	SinkName string
}

// BuildStream assembles the streaming SGA pipeline with the given
// instrumentation mode, evaluation parameters, worker parallelism, and
// event volume (total plug readings emitted).
func BuildStream(cfg Config, mode Mode, params core.Params, parallelism, events int, seed uint64) *StreamApp {
	app := &StreamApp{
		Graph:    stream.NewGraph(),
		Outcomes: map[string]*checker.StreamOutcomes{},
		SinkName: "raw-volume",
	}
	g := app.Graph
	ds := Generate(cfg, seed)
	readings := ds.Readings

	// Pre-render the CSV records once; the source then performs the
	// per-event ingestion work a real deployment pays — parsing each
	// record of the DEBS-2014-style text feed — so that the nominal
	// pipeline has a realistic per-event cost profile.
	records := make([]string, len(readings))
	keys := make([]string, len(readings))
	for i, rd := range readings {
		records[i] = fmt.Sprintf("%f,%f,%f", rd.T, rd.LoadW, rd.LoadSig)
		keys[i] = fmt.Sprintf("h%d/hh%d", rd.ID.House, rd.ID.Household)
	}
	src := g.AddSource("plugs", func(emit stream.EmitFunc) {
		if len(readings) == 0 {
			return
		}
		for i := 0; i < events; i++ {
			j := i % len(readings)
			t, load, sig, err := parseReading(records[j])
			if err != nil {
				continue
			}
			// Re-stamp time so event time keeps advancing across laps.
			lap := float64(i/len(readings)) * cfg.DurationSec
			emit(stream.Event{
				Time:    t + lap,
				Key:     keys[j],
				Value:   load,
				SigUp:   sig,
				SigDown: sig,
				Created: stream.Now(),
			})
		}
	})

	checks := Checks(cfg)
	attach := func(name string, from *stream.Node, ck core.Check, keyed bool) {
		if mode == BaseNom {
			return
		}
		out := &checker.StreamOutcomes{}
		app.Outcomes[ck.Name] = out
		// The check node runs the operator of a Mux hosting ck alone.
		x := checker.NewMux(false, checker.EvictionPolicy{})
		if err := x.Register(checker.MuxCheck{
			Name:   ck.Name,
			Check:  ck,
			Params: params,
			Seed:   seed ^ uint64(len(name)*31),
			Naive:  mode == BaseCheck,
			Out:    out,
		}); err != nil {
			panic(err)
		}
		chk := g.AddOperator("check-"+name, parallelism, x.Factory())
		if keyed {
			mustConnectStream(g.ConnectKeyed(from, chk))
		} else {
			mustConnectStream(g.Connect(from, chk))
		}
	}

	// Nominal chain: source → household minute averages → usage
	// normalization → alerting.
	avg := g.AddOperator("household-avg", parallelism,
		stream.NewWindowAggregator(60, stream.MeanAggregator()))
	mustConnectStream(g.ConnectKeyed(src, avg))

	usage := g.AddMap("usage", parallelism, func(ev stream.Event, emit stream.EmitFunc) {
		ev.Value /= cfg.PeakLoadW
		ev.SigUp /= cfg.PeakLoadW
		ev.SigDown /= cfg.PeakLoadW
		emit(ev)
	})
	mustConnectStream(g.Connect(avg, usage))

	alertOp := g.AddFilter("alerting", parallelism, func(ev stream.Event) bool {
		return ev.Value > 0.5
	})
	mustConnectStream(g.Connect(usage, alertOp))
	mustConnectStream(g.Connect(alertOp, g.AddSink("alerts", nil)))

	// Full-volume sink on the nominal path.
	mustConnectStream(g.Connect(src, g.AddSink("raw-volume", nil)))

	// Check side branches: S-1 on raw loads, S-5 on household usage,
	// S-4 on alert events (Table IV bindings).
	attach("s1", src, checks[0], true)
	attach("s5", usage, checks[4], true)
	attach("s4", alertOp, checks[3], false)
	return app
}

func mustConnectStream(err error) {
	if err != nil {
		panic(err)
	}
}

// parseReading parses one t,load,sigma CSV record of the plug feed.
func parseReading(rec string) (t, load, sig float64, err error) {
	i := strings.IndexByte(rec, ',')
	j := strings.LastIndexByte(rec, ',')
	if i < 0 || j <= i {
		return 0, 0, 0, fmt.Errorf("smartgrid: malformed record %q", rec)
	}
	if t, err = strconv.ParseFloat(rec[:i], 64); err != nil {
		return
	}
	if load, err = strconv.ParseFloat(rec[i+1:j], 64); err != nil {
		return
	}
	sig, err = strconv.ParseFloat(rec[j+1:], 64)
	return
}

// Run executes the streaming application and returns engine metrics.
func (a *StreamApp) Run() (*stream.Metrics, error) { return a.Graph.Run() }

// RunContext is Run honoring ctx: cancellation aborts the dataflow and
// returns ctx.Err().
func (a *StreamApp) RunContext(ctx context.Context) (*stream.Metrics, error) {
	return a.Graph.RunContext(ctx)
}
