package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"sound/internal/stat"
)

// abRun is the result line the standing benchmark (benchmark/) prints
// last: whether its outputs checked out, and the end-to-end metrics.
type abRun struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// abDecl is the part of BENCHMARK.json the summary needs: each
// end-to-end metric's direction and the bound by which it may worsen.
type abDecl struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAB summarizes the paired runs `make ab` recorded: one line per run,
// "parent <result line>" or "change <result line>", the i-th parent line
// pairing with the i-th change line. A run that printed no result line
// (the benchmark gave up on a busy host), wrong outputs or failed
// operations measured nothing: its pair is left out of the statistics and
// the summary exits non-zero after printing them. Per end-to-end metric
// it prints each side's median and quartiles, the median's relative move,
// and how many pairs the change won or tied (a tie is bit-equality, which
// is what the exact-count metrics must show; ties count for neither
// side), and labels the metric by the choosing-metrics rule: a gain needs
// nine tenths of the pairs and medians further apart than the parent's
// inter-quartile range; a regression is a median worse than the parent's
// by more than the metric's bound.
func runAB(resultsPath, declPath string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "soundbench: %v\n", err)
		return 1
	}
	buf, err := os.ReadFile(declPath)
	if err != nil {
		return fail(err)
	}
	var decl abDecl
	if err := json.Unmarshal(buf, &decl); err != nil {
		return fail(fmt.Errorf("%s: %w", declPath, err))
	}
	f, err := os.Open(resultsPath)
	if err != nil {
		return fail(err)
	}
	defer f.Close()
	runs := map[string][]abRun{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		side, line, _ := strings.Cut(sc.Text(), " ")
		if side != "parent" && side != "change" {
			return fail(fmt.Errorf("%s: line starts with %q, want parent or change", resultsPath, side))
		}
		// A failed run leaves nothing, or a diagnostic, where its result
		// line should be: either way it stays the zero, invalid abRun.
		var r abRun
		if json.Unmarshal([]byte(line), &r) != nil {
			r = abRun{}
		}
		runs[side] = append(runs[side], r)
	}
	if err := sc.Err(); err != nil {
		return fail(err)
	}
	if len(runs["parent"]) == 0 || len(runs["parent"]) != len(runs["change"]) {
		return fail(fmt.Errorf("%s: %d parent and %d change runs, want equal and at least one", resultsPath, len(runs["parent"]), len(runs["change"])))
	}
	var parent, change []abRun
	for i, p := range runs["parent"] {
		if c := runs["change"][i]; p.Correct && p.Failed == 0 && c.Correct && c.Failed == 0 {
			parent, change = append(parent, p), append(change, c)
		}
	}
	pairs, recorded := len(parent), len(runs["parent"])
	fmt.Fprintf(stdout, "%d pairs (%d recorded)\n", pairs, recorded)
	if pairs == 0 {
		return fail(fmt.Errorf("%s: no pair with two valid runs", resultsPath))
	}
	fmt.Fprintf(stdout, "%-20s %-34s %-34s %8s %6s %5s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "wins", "ties")
	for _, m := range decl.EndToEnd {
		ps, cs := make([]float64, pairs), make([]float64, pairs)
		sign := 1.0 // orient so that larger is worse
		if m.Better == "higher" {
			sign = -1
		}
		wins, ties := 0, 0
		for i := range ps {
			ps[i], cs[i] = parent[i].Metrics[m.Name].Value, change[i].Metrics[m.Name].Value
			switch {
			case cs[i] == ps[i]:
				ties++
			case sign*cs[i] < sign*ps[i]:
				wins++
			}
		}
		pq1, pmed, pq3 := stat.Quantile(ps, 0.25), stat.Median(ps), stat.Quantile(ps, 0.75)
		cq1, cmed, cq3 := stat.Quantile(cs, 0.25), stat.Median(cs), stat.Quantile(cs, 0.75)
		worse := sign * (cmed - pmed)
		label := "within bound"
		switch {
		case ties == pairs:
			label = "equal"
		case worse < 0 && 10*wins >= 9*pairs && -worse > pq3-pq1:
			label = "gain"
		case worse > m.Bound*math.Abs(pmed):
			label = "REGRESSION"
		}
		delta := "n/a"
		if pmed != 0 {
			delta = fmt.Sprintf("%+.1f%%", (cmed-pmed)/math.Abs(pmed)*100)
		}
		fmt.Fprintf(stdout, "%-20s %-34s %-34s %8s %3d/%-2d %5d  %s\n", m.Name,
			fmt.Sprintf("%.6g [%.6g, %.6g]", pmed, pq1, pq3),
			fmt.Sprintf("%.6g [%.6g, %.6g]", cmed, cq1, cq3), delta, wins, pairs, ties, label)
	}
	if pairs < recorded {
		return fail(fmt.Errorf("%d of %d pairs left out: a run printed no result, wrong outputs or failed operations (busy host?)", recorded-pairs, recorded))
	}
	return 0
}
