package experiments

import (
	"fmt"
	"strings"

	"sound/internal/checker"
	"sound/internal/core"
	"sound/internal/series"
	"sound/internal/smartgrid"
	"sound/internal/stat"
)

// Fig7Quadrant is one (N, c) parameter pairing evaluated on check S-4.
type Fig7Quadrant struct {
	MaxSamples  int
	Credibility float64
	Outcomes    checker.OutcomeCounts
	// MeanViolationProb and its 95% CI across windows and seeds,
	// mirroring the error bars of the paper's panels.
	MeanViolationProb float64
	ViolationProbCI   float64
	// MeanSamples is the average number of resampling iterations used
	// per window (adaptive early stopping keeps it below N).
	MeanSamples float64
}

// Fig7Result reproduces paper Fig. 7: the evaluation of constraint S-4
// under representative high/low pairings of the maximum sample size N
// and the credibility level c.
type Fig7Result struct {
	Quadrants []Fig7Quadrant
}

// RunFig7 evaluates S-4 on the smart-grid scenario for the four
// parameter quadrants, repeated across seeds.
func RunFig7(opts Options) (*Fig7Result, error) {
	cfg := smartgrid.DefaultConfig()
	if !opts.Quick {
		cfg.Houses = 8
		cfg.DurationSec = 7200
	}
	reps := opts.repeats(5)

	res := &Fig7Result{}
	for _, q := range []struct {
		n int
		c float64
	}{
		{10, 0.90}, {10, 0.99}, {200, 0.90}, {200, 0.99},
	} {
		quad := Fig7Quadrant{MaxSamples: q.n, Credibility: q.c}
		var probs []float64
		samples := 0
		for rep := 0; rep < reps; rep++ {
			s4, data, err := checkS4(cfg, opts.Seed+uint64(rep))
			if err != nil {
				return nil, err
			}
			plan, err := core.CompilePlan(s4, core.Params{Credibility: q.c, MaxSamples: q.n}, opts.Seed+uint64(rep)*7)
			if err != nil {
				return nil, err
			}
			results, err := plan.Run([]series.Series{data})
			if err != nil {
				return nil, err
			}
			for _, r := range results {
				probs = append(probs, r.ViolationProb)
				samples += r.Samples
				switch r.Outcome {
				case core.Satisfied:
					quad.Outcomes.Satisfied++
				case core.Violated:
					quad.Outcomes.Violated++
				default:
					quad.Outcomes.Inconclusive++
				}
			}
		}
		if n := quad.Outcomes.Total(); n > 0 {
			quad.MeanSamples = float64(samples) / float64(n)
		}
		quad.MeanViolationProb, quad.ViolationProbCI = stat.MeanCI(probs, 0.95)
		res.Quadrants = append(res.Quadrants, quad)
	}
	return res, nil
}

// checkS4 builds the smart-grid suite and extracts check S-4 with its
// bound series.
func checkS4(cfg smartgrid.Config, seed uint64) (core.Check, series.Series, error) {
	suite := smartgrid.Suite(cfg, seed)
	for _, ck := range suite.Checks {
		if ck.Name == "S-4" {
			data, ok := suite.Pipeline.Series(ck.SeriesNames[0])
			if !ok {
				return core.Check{}, nil, fmt.Errorf("fig7: missing series %q", ck.SeriesNames[0])
			}
			return ck, data, nil
		}
	}
	return core.Check{}, nil, fmt.Errorf("fig7: check S-4 not found")
}

// String renders the quadrant comparison.
func (r *Fig7Result) String() string {
	t := Table{
		Title:  "Fig. 7 — S-4 evaluation under high/low pairings of N and c",
		Header: []string{"N", "c", "⊤", "⊥", "⊣", "mean P(viol)", "±95%", "mean samples"},
		Caption: "Higher c → fewer false conclusions but more inconclusive outcomes at\n" +
			"low N; raising N resolves them at higher sampling cost.",
	}
	for _, q := range r.Quadrants {
		t.AddRow(fi(q.MaxSamples), fmt.Sprintf("%.2f", q.Credibility),
			fi(q.Outcomes.Satisfied), fi(q.Outcomes.Violated), fi(q.Outcomes.Inconclusive),
			f3(q.MeanViolationProb), f3(q.ViolationProbCI), f1(q.MeanSamples))
	}
	var b strings.Builder
	b.WriteString(t.String())
	return b.String()
}
