package astro

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"sound/internal/checker"
	"sound/internal/core"
	"sound/internal/stream"
)

// Mode selects the instrumentation level, matching the paper's baselines.
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

// StreamApp is the streaming anomaly-detection application: a source of
// flux measurements, a quality filter, a per-source smoothing window, a
// diff stage, and an anomaly sink. Sanity checks run as parallel side
// branches of the nominal dataflow (paper §IV-A), so their cost appears
// as resource contention, not as extra pipeline stages.
type StreamApp struct {
	Graph    *stream.Graph
	Outcomes map[string]*checker.StreamOutcomes
	// SinkName is the sink carrying the full post-filter volume, whose
	// throughput the overhead experiments report.
	SinkName string
}

// BuildStream assembles the streaming astrophysics pipeline.
func BuildStream(cfg Config, mode Mode, params core.Params, parallelism, events int, seed uint64) *StreamApp {
	app := &StreamApp{
		Graph:    stream.NewGraph(),
		Outcomes: map[string]*checker.StreamOutcomes{},
		SinkName: "flux-volume",
	}
	g := app.Graph
	ds := Generate(cfg, seed)
	ms := ds.Measurements

	// Pre-render the measurement records once; the source parses each on
	// ingestion, mirroring the per-event cost of reading the photon-file
	// feed in a real deployment.
	records := make([]string, len(ms))
	keys := make([]string, len(ms))
	for i, m := range ms {
		records[i] = fmt.Sprintf("%f,%f,%f,%f", m.T, m.Flux, m.SigUp, m.SigDown)
		keys[i] = fmt.Sprintf("src%d", m.Source)
		if m.UpperLimit {
			keys[i] += "/ul"
		}
	}
	src := g.AddSource("telescope", func(emit stream.EmitFunc) {
		if len(ms) == 0 {
			return
		}
		for i := 0; i < events; i++ {
			j := i % len(ms)
			fields := strings.Split(records[j], ",")
			if len(fields) != 4 {
				continue
			}
			t, _ := strconv.ParseFloat(fields[0], 64)
			flux, _ := strconv.ParseFloat(fields[1], 64)
			up, _ := strconv.ParseFloat(fields[2], 64)
			down, _ := strconv.ParseFloat(fields[3], 64)
			lap := float64(i/len(ms)) * cfg.DurationDay
			emit(stream.Event{
				Time:    t + lap,
				Key:     keys[j],
				Value:   flux,
				SigUp:   up,
				SigDown: down,
				Created: stream.Now(),
			})
		}
	})

	checks := Checks(cfg)
	// Each check node runs the operator of a Mux hosting that check alone.
	checkOp := func(ck core.Check, seed uint64, out *checker.StreamOutcomes, route checker.Route) func() stream.Processor {
		x := checker.NewMux(false, checker.EvictionPolicy{})
		if err := x.Register(checker.MuxCheck{
			Name:   ck.Name,
			Check:  ck,
			Params: params,
			Seed:   seed,
			Naive:  mode == BaseCheck,
			Out:    out,
			Route:  route,
		}); err != nil {
			panic(err)
		}
		return x.Factory()
	}
	attachUnary := func(name string, from *stream.Node, ck core.Check, keyed bool) {
		if mode == BaseNom {
			return
		}
		out := &checker.StreamOutcomes{}
		app.Outcomes[ck.Name] = out
		chk := g.AddOperator("check-"+name, parallelism,
			checkOp(ck, seed^uint64(len(name)*37), out, nil))
		if keyed {
			mustConnectStream(g.ConnectKeyed(from, chk))
		} else {
			mustConnectStream(g.Connect(from, chk))
		}
	}

	// Nominal chain: source → quality filter → per-source smoothing →
	// diff → anomaly threshold.
	filter := g.AddFilter("quality-filter", parallelism, func(ev stream.Event) bool {
		return len(ev.Key) < 3 || ev.Key[len(ev.Key)-3:] != "/ul"
	})
	mustConnectStream(g.Connect(src, filter))

	// Smoothed baseline per source: windowed mean, emitting both the
	// original flux (tag "flux") and the baseline (tag "base") so the
	// downstream diff and the binary checks can consume both.
	smooth := g.AddOperator("smoothing", parallelism, func() stream.Processor {
		return &smoothProcessor{win: 15}
	})
	mustConnectStream(g.ConnectKeyed(filter, smooth))

	// The diff stage pairs flux/base by arrival order, which requires a
	// single worker.
	diffOp := g.AddOperator("diff", 1, func() stream.Processor {
		return &diffProcessor{}
	})
	mustConnectStream(g.Connect(smooth, diffOp))

	anomalies := g.AddFilter("threshold", parallelism, func(ev stream.Event) bool {
		return ev.Value > 2.5 || ev.Value < -2.5
	})
	mustConnectStream(g.Connect(diffOp, anomalies))
	mustConnectStream(g.Connect(anomalies, g.AddSink("anomalies", nil)))

	// Full-volume sink on the nominal path behind the filter.
	mustConnectStream(g.Connect(filter, g.AddSink("flux-volume", nil)))

	// Check side branches (Table IV bindings): A-2 on the raw input,
	// A-1 on the filtered flux, A-3 and A-4 on the flux/baseline pair
	// emitted by the smoothing stage.
	attachUnary("a2", src, checks[1], true)
	attachUnary("a1", filter, checks[0], false)
	if mode != BaseNom {
		for i, name := range []string{"A-3", "A-4"} {
			ck := checks[2+i]
			out := &checker.StreamOutcomes{}
			app.Outcomes[name] = out
			// Binary checks pair the two tagged streams per worker; a
			// single worker keeps flux/base association intact.
			chk := g.AddOperator("check-"+name, 1,
				checkOp(ck, seed^uint64(0xa3+i), out, checker.ByInputKeys("base", "flux")))
			mustConnectStream(g.Connect(smooth, chk))
		}
	}
	return app
}

func mustConnectStream(err error) {
	if err != nil {
		panic(err)
	}
}

// Run executes the streaming application and returns engine metrics.
func (a *StreamApp) Run() (*stream.Metrics, error) { return a.Graph.Run() }

// RunContext is Run honoring ctx: cancellation aborts the dataflow and
// returns ctx.Err().
func (a *StreamApp) RunContext(ctx context.Context) (*stream.Metrics, error) {
	return a.Graph.RunContext(ctx)
}

// smoothProcessor keeps a sliding buffer per key and emits, per input
// event, the original flux tagged "flux" and the running local baseline
// tagged "base".
type smoothProcessor struct {
	win  float64
	bufs map[string][]stream.Event
}

// Process implements stream.Processor.
func (s *smoothProcessor) Process(ev stream.Event, emit stream.EmitFunc) {
	if s.bufs == nil {
		s.bufs = map[string][]stream.Event{}
	}
	buf := append(s.bufs[ev.Key], ev)
	// Evict events older than the window.
	cut := 0
	for cut < len(buf) && buf[cut].Time < ev.Time-s.win {
		cut++
	}
	buf = buf[cut:]
	s.bufs[ev.Key] = buf

	var sum, up, down float64
	for _, e := range buf {
		sum += e.Value
		up += e.SigUp
		down += e.SigDown
	}
	n := float64(len(buf))

	flux := ev
	flux.Key = "flux"
	emit(flux)
	base := ev
	base.Key = "base"
	base.Value = sum / n
	base.SigUp = up / n
	base.SigDown = down / n
	emit(base)
}

// Flush implements stream.Processor.
func (s *smoothProcessor) Flush(stream.EmitFunc) {}

// diffProcessor pairs "flux" and "base" events by arrival and emits the
// normalized anomaly score (flux − base)/σ.
type diffProcessor struct {
	pendingFlux []stream.Event
	pendingBase []stream.Event
}

// Process implements stream.Processor.
func (d *diffProcessor) Process(ev stream.Event, emit stream.EmitFunc) {
	switch ev.Key {
	case "flux":
		d.pendingFlux = append(d.pendingFlux, ev)
	case "base":
		d.pendingBase = append(d.pendingBase, ev)
	default:
		return
	}
	for len(d.pendingFlux) > 0 && len(d.pendingBase) > 0 {
		f := d.pendingFlux[0]
		b := d.pendingBase[0]
		d.pendingFlux = d.pendingFlux[1:]
		d.pendingBase = d.pendingBase[1:]
		sig := (f.SigUp + f.SigDown + b.SigUp + b.SigDown) / 4
		out := f
		out.Key = "score"
		if sig > 0 {
			out.Value = (f.Value - b.Value) / sig
		} else {
			out.Value = 0
		}
		emit(out)
	}
}

// Flush implements stream.Processor.
func (d *diffProcessor) Flush(stream.EmitFunc) {}
