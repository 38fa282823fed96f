package experiments

import (
	"fmt"
	"strings"

	"sound/internal/core"
	"sound/internal/series"
	"sound/internal/textplot"
)

// Fig1Result reproduces the motivating example of paper Fig. 1: a sparse,
// uncertain data series checked against an upper threshold in four time
// windows, evaluated naively and with SOUND.
type Fig1Result struct {
	Threshold float64
	Series    series.Series
	Windows   []Fig1Window
}

// Fig1Window is one checked window of the motivating example.
type Fig1Window struct {
	Start, End    float64
	Points        int
	Naive         core.Outcome
	Sound         core.Outcome
	ViolationProb float64
	Commentary    string
}

// RunFig1 builds the Fig. 1 scenario and evaluates both approaches.
//
// The four windows replicate the paper's narrative:
//  1. dense, clearly below the threshold — both approaches agree ⊤;
//  2. a value slightly above the threshold whose uncertainty reaches
//     well below it — naive wrongly flags ⊥, SOUND keeps ⊤;
//  3. values mostly below the threshold but with uncertainties
//     suggesting threshold crossings — naive says ⊤, SOUND flags ⊥;
//  4. a single point with huge uncertainty on both sides — naive decides
//     ⊥, SOUND honestly returns ⊣.
func RunFig1(opts Options) (*Fig1Result, error) {
	const threshold = 10.0
	s := series.Series{
		// Window 1 [0, 10): dense, clearly below.
		{T: 1, V: 6.0, SigUp: 0.5, SigDown: 0.5},
		{T: 3, V: 6.8, SigUp: 0.5, SigDown: 0.6},
		{T: 5, V: 7.2, SigUp: 0.6, SigDown: 0.5},
		{T: 8, V: 6.4, SigUp: 0.5, SigDown: 0.4},
		// Window 2 [10, 20): slightly above, large downward uncertainty.
		{T: 14, V: 10.4, SigUp: 0.2, SigDown: 3.5},
		{T: 17, V: 10.3, SigUp: 0.15, SigDown: 3.0},
		// Window 3 [20, 30): two of three below, but uncertainties all
		// reach above the threshold.
		{T: 22, V: 9.7, SigUp: 2.8, SigDown: 0.2},
		{T: 25, V: 10.6, SigUp: 2.5, SigDown: 0.3},
		{T: 28, V: 9.8, SigUp: 3.0, SigDown: 0.2},
		// Window 4 [30, 40): one point straddling the threshold with
		// huge uncertainty on both sides — no honest conclusion exists.
		{T: 35, V: 10.0, SigUp: 8.0, SigDown: 8.0},
	}
	// The checked expectation: the window's values stay below the
	// threshold, operationalized as at least 60% of the window below it
	// (the paper's middle panel judges window 3 satisfied with two of
	// three values in range, i.e. a fraction-based reading).
	constraint := core.Constraint{
		Name:        "below-threshold",
		Description: fmt.Sprintf("window values stay below %g (>= 60%% of points)", threshold),
		Granularity: core.WindowTime,
		Orderedness: core.Set,
		Arity:       1,
		Fn: func(vals [][]float64) bool {
			vs := vals[0]
			if len(vs) == 0 {
				return false
			}
			below := 0
			for _, v := range vs {
				if v < threshold {
					below++
				}
			}
			return float64(below)/float64(len(vs)) >= 0.6
		},
	}
	win := core.TimeWindow{Size: 10}
	// Window 4 is exactly borderline (p = ½). Checked after every sample,
	// Alg. 1 concludes there with probability 0.150 at c = 0.99, N = 1000
	// (0.127 with a 25-sample burn-in; core.OperatingCharacteristic):
	// the repeated-looks cost of sequential testing. Checked once, at the
	// full budget, it concludes with probability 0.010, so the example
	// shows the test's answer, not the cost of its early looks.
	eval, err := core.NewEvaluator(core.Params{Credibility: 0.99, MaxSamples: 1000, CheckInterval: 1000}, opts.Seed)
	if err != nil {
		return nil, err
	}
	check := core.Check{Name: constraint.Name, Constraint: constraint, SeriesNames: []string{"s"}, Window: win}
	results, err := check.Run(eval, []series.Series{s})
	if err != nil {
		return nil, err
	}
	res := &Fig1Result{Threshold: threshold, Series: s}
	comments := []string{
		"agreement: clearly satisfied",
		"naive false violation: uncertainty reaches below the threshold",
		"naive false satisfaction: uncertainty suggests crossings",
		"naive overconfident: evidence too weak for any conclusion",
	}
	for i, r := range results {
		w := Fig1Window{
			Start:         r.Window.Start,
			End:           r.Window.End,
			Points:        len(r.Window.Windows[0]),
			Naive:         core.EvaluateNaive(constraint, r.Window),
			Sound:         r.Outcome,
			ViolationProb: r.ViolationProb,
		}
		if i < len(comments) {
			w.Commentary = comments[i]
		}
		res.Windows = append(res.Windows, w)
	}
	return res, nil
}

// String renders the comparison as the figure (series with error bars
// and the threshold line) followed by a paper-style table.
func (r *Fig1Result) String() string {
	var b strings.Builder
	if len(r.Series) > 0 {
		b.WriteString(textplot.SeriesChart(72, 12,
			r.Series.Times(), r.Series.Values(), r.Series.SigUps(), r.Series.SigDowns(),
			r.Threshold))
		naive := make([]rune, len(r.Windows))
		snd := make([]rune, len(r.Windows))
		for i, w := range r.Windows {
			naive[i] = []rune(w.Naive.String())[0]
			snd[i] = []rune(w.Sound.String())[0]
		}
		fmt.Fprintf(&b, "          naive per window: %s    SOUND: %s\n\n",
			textplot.OutcomeStrip(naive), textplot.OutcomeStrip(snd))
	}
	t := Table{
		Title:  fmt.Sprintf("Fig. 1 — naive vs SOUND on a sparse, uncertain series (threshold %g)", r.Threshold),
		Header: []string{"window", "points", "naive", "SOUND", "P(viol)", "note"},
	}
	for _, w := range r.Windows {
		t.AddRow(
			fmt.Sprintf("[%g, %g)", w.Start, w.End),
			fi(w.Points), w.Naive.String(), w.Sound.String(), f3(w.ViolationProb), w.Commentary,
		)
	}
	b.WriteString(t.String())
	return b.String()
}
