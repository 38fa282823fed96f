package experiments

import (
	"fmt"
	"strings"

	"sound/internal/astro"
	"sound/internal/checker"
	"sound/internal/core"
	"sound/internal/rng"
	"sound/internal/series"
	"sound/internal/smartgrid"
)

// Fig8Variant is one amplification level of a data-quality issue.
type Fig8Variant struct {
	Label    string
	Factor   float64
	Outcomes checker.OutcomeCounts
	// FlippedVsOriginal counts windows whose conclusive outcome is the
	// opposite of the original evaluation; TurnedInconclusive counts
	// windows that lost their conclusion.
	FlippedVsOriginal  int
	TurnedInconclusive int
}

// Fig8Result reproduces paper Fig. 8: constraint evaluation at a change
// point with amplified value uncertainty (left panel, on S-4) and
// amplified data sparsity (right panel, on A-4).
type Fig8Result struct {
	Uncertainty []Fig8Variant // S-4 with scaled σ
	Sparsity    []Fig8Variant // A-4 with downsampled windows
}

// RunFig8 amplifies each quality issue and compares outcomes window by
// window against the unamplified evaluation.
func RunFig8(opts Options) (*Fig8Result, error) {
	res := &Fig8Result{}
	params := core.Params{Credibility: 0.95, MaxSamples: 200}

	// Left panel: value uncertainty on S-4 (smart grid alerts).
	sgCfg := smartgridConfigFor(opts)
	s4, alerts, err := checkS4(sgCfg, opts.Seed)
	if err != nil {
		return nil, err
	}
	// Calibrate the "low" and "high" factors to the decision geometry of
	// S-4 (x > 0.5): "high" scales the mean uncertainty to ~2x the mean
	// distance to the threshold, "low" to ~0.1x — the regimes the
	// paper's panels illustrate.
	lowF, highF := calibrateUncertaintyFactors(alerts, 0.5)
	s4Base := outcomesOf(s4, alerts, 1, params, opts.Seed+11)
	for _, factor := range []float64{lowF, 1, highF} {
		outs := s4Base
		if factor != 1 {
			outs = outcomesOf(s4, alerts, factor, params, opts.Seed+11)
		}
		v := Fig8Variant{Label: uncertaintyLabel(factor), Factor: factor, Outcomes: countOutcomes(outs)}
		v.FlippedVsOriginal, v.TurnedInconclusive = diffOutcomes(s4Base, outs)
		res.Uncertainty = append(res.Uncertainty, v)
	}

	// Right panel: data sparsity on A-4 (astro correlation check),
	// evaluated per source as in the streaming application. Sparsity is
	// amplified by downsampling each light curve pair with aligned
	// indices before windowing.
	aCfg := astro.DefaultConfig()
	if opts.Quick {
		aCfg.Sources = 3
		aCfg.DurationDay = 150
	}
	ds := astro.Generate(aCfg, opts.Seed)
	var a4 core.Check
	for _, ck := range astro.Checks(aCfg) {
		if ck.Name == "A-4" {
			a4 = ck
		}
	}
	r := rng.New(opts.Seed + 23)
	var a4Base []core.Outcome
	for i, keep := range []float64{1.0, 0.3, 0.1} {
		var outs []core.Outcome
		for src := 0; src < aCfg.Sources; src++ {
			x, y := ds.FilteredSmoothed(src, smoothWindow)
			if len(x) < 4 {
				continue
			}
			xs, ys := x, y
			if keep < 1 {
				// Downsample both series with the same kept indices so
				// the pair stays aligned.
				idx := alignedSubset(len(x), int(float64(len(x))*keep), r)
				xs = pick(x, idx)
				ys = pick(y, idx)
			}
			plan, err := core.CompilePlan(a4, params, opts.Seed+31+uint64(src))
			if err != nil {
				return nil, err
			}
			results, err := plan.Run([]series.Series{xs, ys})
			if err != nil {
				return nil, err
			}
			for _, rr := range results {
				outs = append(outs, rr.Outcome)
			}
		}
		if i == 0 {
			a4Base = outs
		}
		v := Fig8Variant{Label: sparsityLabel(keep), Factor: keep, Outcomes: countOutcomes(outs)}
		v.FlippedVsOriginal, v.TurnedInconclusive = diffOutcomes(a4Base, outs)
		res.Sparsity = append(res.Sparsity, v)
	}
	return res, nil
}

// calibrateUncertaintyFactors returns scale factors mapping the window's
// mean uncertainty to ~0.1x ("low") and ~2x ("high") of the mean
// distance to the decision threshold.
func calibrateUncertaintyFactors(s series.Series, threshold float64) (low, high float64) {
	var distSum, sigSum float64
	n := 0
	for _, p := range s {
		d := p.V - threshold
		if d < 0 {
			d = -d
		}
		distSum += d
		sigSum += (p.SigUp + p.SigDown) / 2
		n++
	}
	if n == 0 || sigSum == 0 {
		return 0.25, 4
	}
	ratio := distSum / sigSum // factor at which σ ≈ distance
	return 0.1 * ratio, 2 * ratio
}

func smartgridConfigFor(opts Options) (cfg smartgrid.Config) {
	cfg = smartgrid.DefaultConfig()
	if !opts.Quick {
		cfg.Houses = 8
		cfg.DurationSec = 7200
	}
	return cfg
}

func outcomesOf(ck core.Check, data series.Series, factor float64, params core.Params, seed uint64) []core.Outcome {
	plan, err := core.CompilePlan(ck, params, seed)
	if err != nil {
		return nil
	}
	results, err := plan.Run([]series.Series{data.ScaleUncertainty(factor, factor)})
	if err != nil {
		return nil
	}
	outs := make([]core.Outcome, len(results))
	for i, r := range results {
		outs[i] = r.Outcome
	}
	return outs
}

func countOutcomes(outs []core.Outcome) checker.OutcomeCounts {
	var c checker.OutcomeCounts
	for _, o := range outs {
		switch o {
		case core.Satisfied:
			c.Satisfied++
		case core.Violated:
			c.Violated++
		default:
			c.Inconclusive++
		}
	}
	return c
}

// diffOutcomes compares variant outcomes against base, counting flips
// (⊤↔⊥) and conclusions lost to ⊣.
func diffOutcomes(base, variant []core.Outcome) (flipped, inconclusive int) {
	n := len(base)
	if len(variant) < n {
		n = len(variant)
	}
	for i := 0; i < n; i++ {
		switch {
		case base[i].Conclusive() && variant[i].Conclusive() && base[i] != variant[i]:
			flipped++
		case base[i].Conclusive() && !variant[i].Conclusive():
			inconclusive++
		}
	}
	return
}

// alignedSubset returns a sorted random k-subset of [0, n).
func alignedSubset(n, k int, r *rng.Rand) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	perm := r.Perm(n)[:k]
	// insertion sort (k is small relative to cost elsewhere)
	for i := 1; i < len(perm); i++ {
		for j := i; j > 0 && perm[j] < perm[j-1]; j-- {
			perm[j], perm[j-1] = perm[j-1], perm[j]
		}
	}
	return perm
}

func pick(s series.Series, idx []int) series.Series {
	out := make(series.Series, len(idx))
	for i, j := range idx {
		out[i] = s[j]
	}
	return out
}

func uncertaintyLabel(f float64) string {
	switch {
	case f < 1:
		return fmt.Sprintf("low (×%.2g)", f)
	case f == 1:
		return "original"
	default:
		return fmt.Sprintf("high (×%.2g)", f)
	}
}

func sparsityLabel(keep float64) string {
	if keep >= 1 {
		return "original"
	}
	return fmt.Sprintf("amplified (keep %g%%)", 100*keep)
}

// String renders both panels.
func (r *Fig8Result) String() string {
	var b strings.Builder
	left := Table{
		Title:  "Fig. 8 (left) — S-4 outcomes under scaled value uncertainty",
		Header: []string{"uncertainty", "⊤", "⊥", "⊣", "flipped", "lost to ⊣"},
	}
	for _, v := range r.Uncertainty {
		left.AddRow(v.Label, fi(v.Outcomes.Satisfied), fi(v.Outcomes.Violated),
			fi(v.Outcomes.Inconclusive), fi(v.FlippedVsOriginal), fi(v.TurnedInconclusive))
	}
	b.WriteString(left.String())
	b.WriteString("\n")
	right := Table{
		Title:  "Fig. 8 (right) — A-4 outcomes under amplified data sparsity",
		Header: []string{"sparsity", "⊤", "⊥", "⊣", "flipped", "lost to ⊣"},
	}
	for _, v := range r.Sparsity {
		right.AddRow(v.Label, fi(v.Outcomes.Satisfied), fi(v.Outcomes.Violated),
			fi(v.Outcomes.Inconclusive), fi(v.FlippedVsOriginal), fi(v.TurnedInconclusive))
	}
	b.WriteString(right.String())
	return b.String()
}
