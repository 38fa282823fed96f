package experiments

import (
	"strings"
	"time"

	"sound/internal/core"
	"sound/internal/resample"
	"sound/internal/rng"
	"sound/internal/series"
	"sound/internal/violation"
)

// AblationResult collects the design-choice ablations of DESIGN.md §5 in
// table form: adaptive early stopping, block-bootstrap structure
// preservation (including the data-driven block size), and the
// credible-interval decision rule.
type AblationResult struct {
	EarlyStop    []AblationRow
	Bootstrap    []AblationRow
	DecisionRule []AblationRow
}

// AblationRow is one variant measurement.
type AblationRow struct {
	Variant string
	Metric  string
	Value   float64
	WallMS  float64
}

// RunAblation measures all three ablations.
func RunAblation(opts Options) (*AblationResult, error) {
	res := &AblationResult{}
	repeat := 200
	if opts.Quick {
		repeat = 30
	}

	// 1. Early stopping: samples needed on clear-cut data.
	clear := make(series.Series, 64)
	for i := range clear {
		clear[i] = series.Point{T: float64(i), V: 50, SigUp: 2, SigDown: 2}
	}
	rangeCheck := core.Check{
		Name: "range", Constraint: core.Range(0, 100),
		SeriesNames: []string{"s"}, Window: core.PointWindow{},
	}
	for _, v := range []struct {
		name     string
		interval int
	}{{"adaptive (Alg. 1)", 1}, {"fixed budget", 100}} {
		params := core.Params{Credibility: 0.95, MaxSamples: 100, CheckInterval: v.interval}
		eval, err := core.NewEvaluator(params, opts.Seed)
		if err != nil {
			return nil, err
		}
		samples, windows := 0, 0
		start := time.Now()
		for rep := 0; rep < repeat; rep++ {
			// A batch run seeds each window from the window itself, so
			// each repeat takes its own seed to be a fresh realization.
			eval.Reseed(opts.Seed + uint64(rep))
			results, err := rangeCheck.Run(eval, []series.Series{clear})
			if err != nil {
				return nil, err
			}
			for _, r := range results {
				samples += r.Samples
				windows++
			}
		}
		res.EarlyStop = append(res.EarlyStop, AblationRow{
			Variant: v.name, Metric: "samples/window",
			Value:  float64(samples) / float64(windows),
			WallMS: float64(time.Since(start).Milliseconds()),
		})
	}

	// 2. Bootstrap structure: spurious violation rate of a monotonicity
	// check on genuinely monotone, autocorrelated data under (a) i.i.d.
	// bootstrap, (b) √n block bootstrap + E6 control, (c) data-driven
	// block size + E6 control.
	r := rng.New(opts.Seed + 7)
	mono := make(series.Series, 256)
	level := 0.0
	for i := range mono {
		level += 0.1 + 0.5*r.Float64() // strictly increasing drift
		mono[i] = series.Point{T: float64(i), V: level, SigUp: 0.01, SigDown: 0.01}
	}
	seq := core.MonotonicIncrease(false)
	iid := seq
	iid.Orderedness = core.Set
	auto := resample.AutoBlockSize(mono.Values())
	variants := []struct {
		name       string
		constraint core.Constraint
		blockSize  int
		controlE6  bool
	}{
		{"i.i.d. bootstrap", iid, 0, false},
		{"block b=⌈√n⌉ + E6", seq, 0, true},
		{"block b=auto + E6", seq, auto, true},
	}
	for _, v := range variants {
		params := core.Params{Credibility: 0.95, MaxSamples: 100, BlockSize: v.blockSize}
		ck := core.Check{Name: v.name, Constraint: v.constraint, SeriesNames: []string{"s"}, Window: core.CountWindow{Size: 16}}
		falseViol, windows := 0, 0
		start := time.Now()
		for rep := 0; rep < repeat/10+1; rep++ {
			eval, err := core.NewEvaluator(params, opts.Seed+uint64(rep))
			if err != nil {
				return nil, err
			}
			results, err := ck.Run(eval, []series.Series{mono})
			if err != nil {
				return nil, err
			}
			if v.controlE6 {
				results = violation.ControlE6(v.constraint, results)
			}
			for _, rr := range results {
				windows++
				if rr.Outcome == core.Violated {
					falseViol++
				}
			}
		}
		res.Bootstrap = append(res.Bootstrap, AblationRow{
			Variant: v.name, Metric: "spurious ⊥ rate",
			Value:  float64(falseViol) / float64(windows),
			WallMS: float64(time.Since(start).Milliseconds()),
		})
	}

	// 3. Decision rule: false-conclusion rate on an exactly borderline
	// point under the credible-interval rule vs an aggressive
	// near-point-estimate rule.
	borderline := core.WindowTuple{Windows: []series.Series{{{T: 0, V: 10, SigUp: 5, SigDown: 5}}}}
	gt := core.GreaterThan(10)
	for _, v := range []struct {
		name string
		c    float64
	}{{"credible interval c=0.95", 0.95}, {"point estimate (c=0.05)", 0.05}} {
		eval, err := core.NewEvaluator(core.Params{Credibility: v.c, MaxSamples: 100}, opts.Seed+3)
		if err != nil {
			return nil, err
		}
		falseConcl := 0
		start := time.Now()
		for rep := 0; rep < repeat; rep++ {
			if eval.Evaluate(gt, borderline).Outcome != core.Inconclusive {
				falseConcl++
			}
		}
		res.DecisionRule = append(res.DecisionRule, AblationRow{
			Variant: v.name, Metric: "false conclusions",
			Value:  float64(falseConcl) / float64(repeat),
			WallMS: float64(time.Since(start).Milliseconds()),
		})
	}
	return res, nil
}

// String renders the three ablation tables.
func (r *AblationResult) String() string {
	var b strings.Builder
	render := func(title string, rows []AblationRow) {
		t := Table{Title: title, Header: []string{"variant", "metric", "value", "wall (ms)"}}
		for _, row := range rows {
			t.AddRow(row.Variant, row.Metric, f3(row.Value), f1(row.WallMS))
		}
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	render("Ablation 1 — adaptive early stopping vs fixed sampling budget", r.EarlyStop)
	render("Ablation 2 — bootstrap structure preservation on monotone data", r.Bootstrap)
	render("Ablation 3 — decision rule on an exactly borderline window", r.DecisionRule)
	return b.String()
}
