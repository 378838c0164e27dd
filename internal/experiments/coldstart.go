package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/timeseries"
)

// Table3Row is one row of Table 3.
type Table3Row struct {
	// Model is the paper's row label: BL, LR_Sim, …, XGB_Uni.
	Model string
	// SemiNewEMRE is E_MRE({1..29}) over the semi-new phase; NaN when
	// the model does not apply (BL/Sim need per-vehicle history).
	SemiNewEMRE float64
	// NewEGlobal is E_Global over the new phase; NaN when inapplicable.
	NewEGlobal float64
}

// ColdStartSplit is the deterministic 70/30 vehicle-level split of
// §4.4: 70 % of the first cycles train the cold-start models, the rest
// are the simulated semi-new/new test vehicles.
type ColdStartSplit struct {
	Train []*timeseries.VehicleSeries
	Test  []*timeseries.VehicleSeries
}

// SplitColdStart shuffles the old vehicles with the environment seed and
// splits them 70/30 (paper: 17 training / 7 test vehicles out of 24).
func (e *Env) SplitColdStart() (*ColdStartSplit, error) {
	usable := make([]*timeseries.VehicleSeries, 0, len(e.Olds))
	for _, vs := range e.Olds {
		if c, ok := vs.FirstCycle(); ok && c.Complete {
			usable = append(usable, vs)
		}
	}
	if len(usable) < 3 {
		return nil, fmt.Errorf("experiments: need >= 3 vehicles with complete first cycles, have %d", len(usable))
	}
	rnd := rng.New(e.Scale.Seed ^ 0x2545f4914f6cdd1d)
	idx := rnd.Perm(len(usable))
	cut := (len(usable)*7 + 9) / 10
	if cut == len(usable) {
		cut--
	}
	split := &ColdStartSplit{}
	for i, j := range idx {
		if i < cut {
			split.Train = append(split.Train, usable[j])
		} else {
			split.Test = append(split.Test, usable[j])
		}
	}
	return split, nil
}

// Table3 reproduces Table 3: the baseline and the Sim/Uni variants of
// every trained algorithm on semi-new vehicles (E_MRE) and the Uni
// variants on new vehicles (E_Global).
func (e *Env) Table3(window int) ([]Table3Row, error) {
	split, err := e.SplitColdStart()
	if err != nil {
		return nil, err
	}
	cfg := core.NewColdStartConfig()
	cfg.Window = window
	cfg.Seed = e.Scale.Seed
	// The unified model serving *new* vehicles trains on complete donor
	// cycles (its predictions live far from the deadline).
	newCfg := core.NewColdStartConfigForNew()
	newCfg.Window = window
	newCfg.Seed = e.Scale.Seed
	d := core.DefaultDTilde()

	var rows []Table3Row

	// Baseline: per-test-vehicle, semi-new only.
	var blReports []*core.ErrorReport
	for _, test := range split.Test {
		rep, err := core.EvaluateSemiNewBaseline(test, cfg)
		if err != nil {
			continue
		}
		blReports = append(blReports, rep)
	}
	if len(blReports) == 0 {
		return nil, fmt.Errorf("experiments: baseline evaluable on no test vehicle")
	}
	rows = append(rows, Table3Row{Model: "BL", SemiNewEMRE: core.MeanMRE(blReports, d), NewEGlobal: math.NaN()})

	// Similarity-based models: semi-new only (need per-vehicle history).
	for _, alg := range core.TrainedAlgorithms() {
		var reports []*core.ErrorReport
		for _, test := range split.Test {
			model, donor, err := core.TrainSimilarity(test, split.Train, alg, cfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: similarity %s for %s: %w", alg, test.ID, err)
			}
			rep, err := core.EvaluateSemiNew(model, fmt.Sprintf("%s_Sim(%s)", alg, donor), test, cfg)
			if err != nil {
				continue
			}
			reports = append(reports, rep)
		}
		if len(reports) == 0 {
			return nil, fmt.Errorf("experiments: %s_Sim evaluable on no test vehicle", alg)
		}
		rows = append(rows, Table3Row{Model: string(alg) + "_Sim", SemiNewEMRE: core.MeanMRE(reports, d), NewEGlobal: math.NaN()})
	}

	// Unified models: semi-new E_MRE (restricted training) and new
	// E_Global (full-cycle training).
	for _, alg := range core.TrainedAlgorithms() {
		model, err := core.TrainUnified(split.Train, alg, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: unified %s: %w", alg, err)
		}
		newModel, err := core.TrainUnified(split.Train, alg, newCfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: unified-new %s: %w", alg, err)
		}
		var semi, fresh []*core.ErrorReport
		for _, test := range split.Test {
			if rep, err := core.EvaluateSemiNew(model, string(alg)+"_Uni", test, cfg); err == nil {
				semi = append(semi, rep)
			}
			if rep, err := core.EvaluateNew(newModel, string(alg)+"_Uni", test, newCfg); err == nil {
				fresh = append(fresh, rep)
			}
		}
		if len(semi) == 0 && len(fresh) == 0 {
			return nil, fmt.Errorf("experiments: %s_Uni evaluable on no test vehicle", alg)
		}
		rows = append(rows, Table3Row{
			Model:       string(alg) + "_Uni",
			SemiNewEMRE: core.MeanMRE(semi, d),
			NewEGlobal:  core.MeanGlobal(fresh),
		})
	}
	return rows, nil
}

// Table3Similarity is the DTW-similarity ablation (ARCHITECTURE.md,
// "Reproduction substitutions and ablations"): Table 3's Sim rows with
// the DTW similarity measure instead of the paper's point-wise average
// distance.
func (e *Env) Table3Similarity(window int, measure SimilarityMeasure) ([]Table3Row, error) {
	split, err := e.SplitColdStart()
	if err != nil {
		return nil, err
	}
	cfg := core.NewColdStartConfig()
	cfg.Window = window
	cfg.Seed = e.Scale.Seed
	d := core.DefaultDTilde()

	var rows []Table3Row
	for _, alg := range core.TrainedAlgorithms() {
		var reports []*core.ErrorReport
		for _, test := range split.Test {
			model, donor, err := trainSimilarityWith(test, split.Train, alg, cfg, measure)
			if err != nil {
				return nil, err
			}
			rep, err := core.EvaluateSemiNew(model, fmt.Sprintf("%s_Sim[%s](%s)", alg, measure, donor), test, cfg)
			if err != nil {
				continue
			}
			reports = append(reports, rep)
		}
		if len(reports) == 0 {
			return nil, fmt.Errorf("experiments: %s_Sim[%s] evaluable on no test vehicle", alg, measure)
		}
		rows = append(rows, Table3Row{Model: fmt.Sprintf("%s_Sim[%s]", alg, measure), SemiNewEMRE: core.MeanMRE(reports, d), NewEGlobal: math.NaN()})
	}
	return rows, nil
}
