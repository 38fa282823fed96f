package experiments

import (
	"sound/internal/astro"
	"sound/internal/core"
	"sound/internal/series"
	"sound/internal/violation"
)

// The binary astro checks A-3 and A-4 are keyed per source in the
// streaming application: each source's light curve is windowed and
// checked on its own. The helpers here provide the per-source offline
// evaluation used by the effectiveness experiments (Table V, Table VI,
// Fig. 8, Fig. 9).

// smoothWindow matches the baseline window of the astro pipeline.
const smoothWindow = 15

// perSourceEval evaluates one binary check per source and returns the
// concatenated results (E6-controlled) plus the per-source window tuple
// sequences (needed for change-point and BASE_VA accounting).
func perSourceEval(ds *astro.Dataset, ck core.Check, params core.Params, seed uint64) ([]core.Result, [][]core.WindowTuple, error) {
	var all []core.Result
	var tuples [][]core.WindowTuple
	for src := 0; src < ds.Config.Sources; src++ {
		filtered, smoothed := ds.FilteredSmoothed(src, smoothWindow)
		if len(filtered) < 4 {
			continue
		}
		inputs := bindSeries(ck, filtered, smoothed)
		plan, err := core.CompilePlan(ck, params, seed+uint64(src)*0x9e37+1)
		if err != nil {
			return nil, nil, err
		}
		results, err := plan.Run(inputs)
		if err != nil {
			return nil, nil, err
		}
		results = violation.ControlE6(ck.Constraint, results)
		all = append(all, results...)
		tuples = append(tuples, windowTuples(results))
	}
	return all, tuples, nil
}

// perSourceNaive evaluates the naive baseline on the same windows.
func perSourceNaive(ds *astro.Dataset, ck core.Check) []core.Outcome {
	var all []core.Outcome
	for src := 0; src < ds.Config.Sources; src++ {
		filtered, smoothed := ds.FilteredSmoothed(src, smoothWindow)
		if len(filtered) < 4 {
			continue
		}
		all = append(all, core.EvaluateAllNaive(ck.Constraint, ck.Window, bindSeries(ck, filtered, smoothed))...)
	}
	return all
}

// bindSeries resolves the check's series names against the per-source
// filtered/smoothed pair.
func bindSeries(ck core.Check, filtered, smoothed series.Series) []series.Series {
	out := make([]series.Series, len(ck.SeriesNames))
	for i, name := range ck.SeriesNames {
		if name == astro.SeriesSmoothed {
			out[i] = smoothed
		} else {
			out[i] = filtered
		}
	}
	return out
}
