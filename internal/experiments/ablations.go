package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ml/gbm"
)

// AblationRow compares a design choice (ARCHITECTURE.md, "Reproduction
// substitutions and ablations") against the
// paper's configuration on the same workload.
type AblationRow struct {
	Name    string
	Variant string
	EMRE    float64
}

// AblationPooledVsPerVehicle contrasts the paper's one-model-per-vehicle
// design with a single model pooled over the whole old fleet (design
// decision 1).
func (e *Env) AblationPooledVsPerVehicle(alg core.Algorithm, window int) ([]AblationRow, error) {
	d := core.DefaultDTilde()

	// Per-vehicle (the paper's design).
	per, err := e.evaluateFleet(alg, window, true)
	if err != nil {
		return nil, err
	}
	rows := []AblationRow{{Name: "pooled-vs-per-vehicle", Variant: "per-vehicle", EMRE: core.MeanMRE(per.Reports, d)}}

	// Pooled: one model trained on the concatenated restricted training
	// records of every old vehicle, evaluated per vehicle.
	fcfg := core.FeatureConfig{Window: window, Normalize: true, Restrict: d}
	var trainRecs []core.Record
	type testSet struct {
		id   string
		recs []core.Record
	}
	var tests []testSet
	for _, vs := range e.Olds {
		cut := int(float64(len(vs.U)) * 0.7)
		tr, err := core.BuildRecordsRange(vs, 0, cut, fcfg)
		if err != nil {
			return nil, err
		}
		trainRecs = append(trainRecs, tr...)
		te, err := core.BuildRecordsRange(vs, cut, len(vs.U), core.FeatureConfig{Window: window, Normalize: true})
		if err != nil {
			return nil, err
		}
		if len(te) > 0 {
			tests = append(tests, testSet{vs.ID, te})
		}
	}
	if len(trainRecs) == 0 || len(tests) == 0 {
		return nil, fmt.Errorf("experiments: pooled ablation has no data")
	}
	model, err := core.Build(alg, core.DefaultParams(alg), e.Scale.Seed)
	if err != nil {
		return nil, err
	}
	x, y := core.RecordsToXY(trainRecs)
	if err := model.Fit(x, y); err != nil {
		return nil, err
	}
	var reports []*core.ErrorReport
	for _, ts := range tests {
		rep := &core.ErrorReport{VehicleID: ts.id, Model: string(alg) + "_pooled"}
		for _, r := range ts.recs {
			rep.Predictions = append(rep.Predictions, core.Prediction{Day: r.Day, Actual: r.Y, Predicted: model.Predict(r.X)})
		}
		reports = append(reports, rep)
	}
	rows = append(rows, AblationRow{Name: "pooled-vs-per-vehicle", Variant: "pooled", EMRE: core.MeanMRE(reports, d)})
	return rows, nil
}

// AblationAugmentation contrasts training with and without the §4
// time-reference augmentation (design decision 3).
func (e *Env) AblationAugmentation(alg core.Algorithm, window, shifts int) ([]AblationRow, error) {
	d := core.DefaultDTilde()
	var rows []AblationRow
	for _, aug := range []int{0, shifts} {
		cfg := e.oldConfig(window, true)
		cfg.Augment = aug
		var reports []*core.ErrorReport
		for _, vs := range e.Olds {
			res, err := core.EvaluateOld(vs, alg, cfg)
			if err != nil {
				continue
			}
			reports = append(reports, res.Report)
		}
		if len(reports) == 0 {
			return nil, fmt.Errorf("experiments: augmentation ablation (aug=%d) evaluable on no vehicle", aug)
		}
		rows = append(rows, AblationRow{
			Name:    "time-shift-augmentation",
			Variant: fmt.Sprintf("shifts=%d", aug),
			EMRE:    core.MeanMRE(reports, d),
		})
	}
	return rows, nil
}

// AblationHistogramBins contrasts GBM histogram resolutions (design
// decision 5): coarse binning trades accuracy for split-search speed.
func (e *Env) AblationHistogramBins(window int, bins []int) ([]AblationRow, error) {
	d := core.DefaultDTilde()
	var rows []AblationRow
	for _, b := range bins {
		var reports []*core.ErrorReport
		for _, vs := range e.Olds {
			cut := int(float64(len(vs.U)) * 0.7)
			fTrain := core.FeatureConfig{Window: window, Normalize: true, Restrict: d}
			fTest := core.FeatureConfig{Window: window, Normalize: true}
			tr, err := core.BuildRecordsRange(vs, 0, cut, fTrain)
			if err != nil || len(tr) == 0 {
				continue
			}
			te, err := core.BuildRecordsRange(vs, cut, len(vs.U), fTest)
			if err != nil || len(te) == 0 {
				continue
			}
			model := gbm.New(gbm.Config{NEstimators: 200, MaxDepth: 6, LearningRate: 0.1, MaxBins: b, Seed: e.Scale.Seed})
			x, y := core.RecordsToXY(tr)
			if err := model.Fit(x, y); err != nil {
				continue
			}
			rep := &core.ErrorReport{VehicleID: vs.ID, Model: fmt.Sprintf("XGB_bins%d", b)}
			for _, r := range te {
				rep.Predictions = append(rep.Predictions, core.Prediction{Day: r.Day, Actual: r.Y, Predicted: model.Predict(r.X)})
			}
			reports = append(reports, rep)
		}
		if len(reports) == 0 {
			return nil, fmt.Errorf("experiments: histogram ablation (bins=%d) evaluable on no vehicle", b)
		}
		rows = append(rows, AblationRow{Name: "histogram-bins", Variant: fmt.Sprintf("bins=%d", b), EMRE: core.MeanMRE(reports, d)})
	}
	return rows, nil
}

// AblationRestriction re-expresses Table 1's central-vs-right columns as
// an ablation row pair for one algorithm (design decision 2).
func (e *Env) AblationRestriction(alg core.Algorithm, window int) ([]AblationRow, error) {
	d := core.DefaultDTilde()
	var rows []AblationRow
	for _, restrict := range []bool{false, true} {
		res, err := e.evaluateFleet(alg, window, restrict)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Name:    "train-region-restriction",
			Variant: fmt.Sprintf("restrict=%v", restrict),
			EMRE:    core.MeanMRE(res.Reports, d),
		})
	}
	return rows, nil
}
