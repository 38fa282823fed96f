package astro

import (
	"testing"

	"sound/internal/core"
)

// These integration tests verify that the generator's data-quality knobs
// move the evaluation outcomes in the direction the paper's sensitivity
// analysis (§VI-D) predicts, across several seeds to suppress noise.

func outcomeStats(t *testing.T, cfg Config, seeds int) (inconclusive, violated, total int) {
	t.Helper()
	for seed := uint64(0); seed < uint64(seeds); seed++ {
		suite := Suite(cfg, seed)
		results, err := suite.Run(core.Params{Credibility: 0.95, MaxSamples: 100}, seed+100)
		if err != nil {
			t.Fatal(err)
		}
		for _, rs := range results {
			for _, r := range rs {
				total++
				switch r.Outcome {
				case core.Inconclusive:
					inconclusive++
				case core.Violated:
					violated++
				}
			}
		}
	}
	return
}

func sensitivityConfig() Config {
	cfg := DefaultConfig()
	cfg.Sources = 4
	cfg.DurationDay = 150
	return cfg
}

func TestMoreUncertaintyMoreInconclusive(t *testing.T) {
	low := sensitivityConfig()
	low.RelErrLow, low.RelErrHigh = 0.01, 0.05
	low.UpperLimitProb = 0
	high := sensitivityConfig()
	high.RelErrLow, high.RelErrHigh = 0.3, 0.9
	high.UpperLimitProb = 0.7

	incLow, _, totLow := outcomeStats(t, low, 3)
	incHigh, _, totHigh := outcomeStats(t, high, 3)
	rLow := float64(incLow) / float64(totLow)
	rHigh := float64(incHigh) / float64(totHigh)
	if rHigh <= rLow {
		t.Errorf("inconclusive ratio did not grow with uncertainty: %.4f -> %.4f", rLow, rHigh)
	}
}

func TestFreezeDrivesNaiveDisagreementOnA2(t *testing.T) {
	frozen := sensitivityConfig()
	frozen.FreezeProb = 0.05
	frozen.FreezeMeanLen = 60
	clean := sensitivityConfig()
	clean.FreezeProb = 0

	disagree := func(cfg Config) (n, total int) {
		suite := Suite(cfg, 3)
		sound, err := suite.Run(core.Params{Credibility: 0.95, MaxSamples: 100}, 5)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := suite.RunNaive()
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range sound["A-2"] {
			total++
			if r.Outcome.Conclusive() && naive["A-2"][i] != r.Outcome {
				n++
			}
		}
		return
	}
	nFrozen, totF := disagree(frozen)
	nClean, _ := disagree(clean)
	if totF == 0 {
		t.Fatal("no A-2 windows")
	}
	if nFrozen <= nClean {
		t.Errorf("freeze did not create naive/SOUND disagreement: clean %d vs frozen %d", nClean, nFrozen)
	}
}

func TestGapsIncreaseCadenceSpread(t *testing.T) {
	dense := sensitivityConfig()
	dense.GapProb = 0
	sparse := sensitivityConfig()
	sparse.GapProb = 0.08
	sparse.GapMeanDay = 20

	maxGap := func(cfg Config) float64 {
		ds := Generate(cfg, 7)
		worst := 0.0
		for src := 0; src < cfg.Sources; src++ {
			for _, g := range ds.SourceLightCurve(src).Gaps() {
				if g > worst {
					worst = g
				}
			}
		}
		return worst
	}
	if gD, gS := maxGap(dense), maxGap(sparse); gS <= gD {
		t.Errorf("gap injection did not widen cadence: dense %v vs sparse %v", gD, gS)
	}
}

func TestFlareRateDrivesA1Violations(t *testing.T) {
	// Tight measurement errors and no upper limits isolate flares as the
	// only way A-1's upper bound can be crossed; only A-1 is counted.
	base := sensitivityConfig()
	base.RelErrLow, base.RelErrHigh = 0.03, 0.08
	base.UpperLimitProb = 0
	calm := base
	calm.FlareProb = 0
	active := base
	active.FlareProb = 0.06
	active.FlareAmp = 15

	a1Violations := func(cfg Config) int {
		n := 0
		for seed := uint64(0); seed < 4; seed++ {
			suite := Suite(cfg, seed)
			results, err := suite.Run(core.Params{Credibility: 0.95, MaxSamples: 100}, seed+7)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range results["A-1"] {
				if r.Outcome == core.Violated {
					n++
				}
			}
		}
		return n
	}
	violCalm := a1Violations(calm)
	violActive := a1Violations(active)
	if violActive <= violCalm {
		t.Errorf("flares did not raise A-1 violations: calm %d vs active %d", violCalm, violActive)
	}
}
