package experiments

import (
	"fmt"
	"strings"

	"sound/internal/astro"
	"sound/internal/core"
	"sound/internal/violation"
)

// Table6Row holds the violation-analysis results for one check.
type Table6Row struct {
	Check string
	// Counts per explanation E1..E6.
	E [7]int // index 1..6 used
	// ChangePoints is the number of analyzed change points.
	ChangePoints int
	// BaseVAFPR is the false-positive ratio of the provenance baseline:
	// change points it attributes to a value change while SOUND confirms
	// a data-quality explanation.
	BaseVAFPR float64
	// SoundEvaluations / BaseVAEvaluations count φ²_change evaluations
	// (the Fig. 9 series come from the same run).
	SoundEvaluations  int
	BaseVAEvaluations int
}

// Table6Result reproduces paper Table VI (explanations per change point
// and BASE_VA FPR) and carries the counts behind Fig. 9.
type Table6Result struct {
	Rows []Table6Row
}

// RunTable6 evaluates A-3 and A-4 with SOUND, analyzes every change
// point with the explanation framework and Alg. 2, and runs the BASE_VA
// baseline on the same windows.
func RunTable6(opts Options) (*Table6Result, error) {
	cfg := astro.DefaultConfig()
	if opts.Quick {
		cfg.Sources = 4
		cfg.DurationDay = 200
	} else {
		cfg.Sources = 20
		cfg.DurationDay = 600
	}
	ds := astro.Generate(cfg, opts.Seed)
	params := core.Params{Credibility: 0.95, MaxSamples: 100}

	res := &Table6Result{}
	for _, name := range []string{"A-3", "A-4"} {
		var ck core.Check
		for _, c := range astro.Checks(cfg) {
			if c.Name == name {
				ck = c
			}
		}
		row := Table6Row{Check: name}

		// Per-source evaluation, matching the keyed streaming checks:
		// change points are flips between adjacent windows of the same
		// light curve.
		analyzer, err := violation.NewAnalyzer(params, opts.Seed+17)
		if err != nil {
			return nil, err
		}
		ua := violation.NewUpstreamAnalysis(params.Credibility)
		bva := violation.NewBaseVA(params.Credibility)
		var reports []violation.Report

		for src := 0; src < ds.Config.Sources; src++ {
			filtered, smoothed := ds.FilteredSmoothed(src, smoothWindow)
			if len(filtered) < 4 {
				continue
			}
			plan, err := core.CompilePlan(ck, params, opts.Seed+uint64(src)*0x9e37+3)
			if err != nil {
				return nil, err
			}
			results, err := plan.Run(bindSeries(ck, filtered, smoothed))
			if err != nil {
				return nil, err
			}
			results = violation.ControlE6(ck.Constraint, results)
			cps := violation.ChangePoints(results)
			row.ChangePoints += len(cps)
			for _, cp := range cps {
				rep := analyzer.Explain(ck.Constraint, cp)
				reports = append(reports, rep)
				for _, e := range rep.Explanations {
					row.E[int(e)]++
				}
				// Reactive drill-down (Alg. 2) only when the data
				// values remain the only explanation.
				if rep.Primary() == violation.E1ValueChange {
					ua.Annotate(ds.Pipeline, ck, cp)
				}
			}
			// BASE_VA evaluates change constraints proactively on every
			// adjacent window pair of every source.
			bva.RunProactive(ds.Pipeline, ck, windowTuples(results))
		}
		row.SoundEvaluations = ua.Evaluations
		row.BaseVAFPR = violation.FalsePositiveRate(reports)
		row.BaseVAEvaluations = bva.Evaluations
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func windowTuples(results []core.Result) []core.WindowTuple {
	out := make([]core.WindowTuple, len(results))
	for i, r := range results {
		out[i] = r.Window
	}
	return out
}

// String renders Table VI.
func (r *Table6Result) String() string {
	t := Table{
		Title:  "Table VI — explanations per change point and BASE_VA false-positive ratio",
		Header: []string{"check", "CPs", "E1", "E2", "E3", "E4", "E5", "E6", "BASE_VA FPR"},
		Caption: "A nonzero FPR means BASE_VA blames value changes for violations that\n" +
			"SOUND attributes to data quality. The paper's checks use fixed-size\n" +
			"count windows (E2/E3 impossible there); this reproduction windows by\n" +
			"time, so varying cadence legitimately surfaces sparsity explanations.",
	}
	for _, row := range r.Rows {
		t.AddRow(row.Check, fi(row.ChangePoints),
			fi(row.E[1]), fi(row.E[2]), fi(row.E[3]), fi(row.E[4]), fi(row.E[5]), fi(row.E[6]),
			f3(row.BaseVAFPR))
	}
	var b strings.Builder
	b.WriteString(t.String())
	return b.String()
}

// Fig9Result renders the change-constraint evaluation counts of Table VI
// as the paper's Fig. 9 comparison.
type Fig9Result struct {
	Rows []Table6Row
}

// RunFig9 reuses the Table VI measurement (the paper derives both from
// the same run).
func RunFig9(opts Options) (*Fig9Result, error) {
	t6, err := RunTable6(opts)
	if err != nil {
		return nil, err
	}
	return &Fig9Result{Rows: t6.Rows}, nil
}

// String renders the Fig. 9 comparison.
func (r *Fig9Result) String() string {
	t := Table{
		Title:  "Fig. 9 — evaluated change constraints φ²_change: SOUND (reactive) vs BASE_VA (proactive)",
		Header: []string{"check", "SOUND", "BASE_VA", "saved"},
	}
	for _, row := range r.Rows {
		saved := "-"
		if row.BaseVAEvaluations > 0 {
			saved = fmt.Sprintf("%.1f%%", 100*(1-float64(row.SoundEvaluations)/float64(row.BaseVAEvaluations)))
		}
		t.AddRow(row.Check, fi(row.SoundEvaluations), fi(row.BaseVAEvaluations), saved)
	}
	var b strings.Builder
	b.WriteString(t.String())
	b.WriteString("Paper: the reactive approach avoids ~95% of the change checks of BASE_VA.\n")
	return b.String()
}
