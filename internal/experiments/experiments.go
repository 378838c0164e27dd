// Package experiments contains one driver per table and figure of the
// paper's evaluation (§5), plus the timing study and the ablations
// listed in ARCHITECTURE.md ("Reproduction substitutions and
// ablations"). Each one returns structured rows/series so cmd/repro
// can print them and bench_test.go can measure them.
package experiments

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/dataprep"
	"repro/internal/engine"
	"repro/internal/telematics"
	"repro/internal/timeseries"
)

// Scale sizes an experiment run. Full scale reproduces the paper's
// setup; small scale keeps unit tests and benchmarks fast.
type Scale struct {
	// Vehicles is the fleet size.
	Vehicles int
	// Days is the acquisition horizon.
	Days int
	// Seed drives the synthetic fleet and all model randomness.
	Seed uint64
	// GridSearch turns on per-vehicle hyper-parameter tuning (5-fold
	// CV) as in the paper; off uses fixed defaults.
	GridSearch bool
	// FullGrid widens the search to the paper's complete ranges.
	FullGrid bool
	// Corrupt injects data-quality artifacts so the preparation
	// pipeline's cleaning step is exercised end-to-end.
	Corrupt bool
}

// FullScale mirrors the paper: 24 vehicles, Jan 2015 – Sep 2019.
func FullScale() Scale {
	return Scale{Vehicles: 24, Days: 1735, Seed: 42, Corrupt: true}
}

// SmallScale is used by tests and benchmarks.
func SmallScale() Scale {
	return Scale{Vehicles: 8, Days: 1100, Seed: 42}
}

// Env is the shared evaluation environment: the generated fleet after
// the full preparation pipeline, with the old-vehicle subset the §5.1
// experiments run on.
type Env struct {
	Scale    Scale
	Fleet    *telematics.Fleet
	Prepared []*dataprep.PreparedVehicle
	// Olds are the vehicles with at least one complete cycle.
	Olds []*timeseries.VehicleSeries
	// CleanRepairs counts values fixed by the cleaning step.
	CleanRepairs int
}

// NewEnv generates the synthetic fleet (substitution S1) and runs the
// §3 preparation pipeline over every vehicle.
func NewEnv(s Scale) (*Env, error) {
	cfg := telematics.DefaultFleetConfig()
	cfg.Vehicles = s.Vehicles
	cfg.Days = s.Days
	cfg.Seed = s.Seed
	cfg.Corrupt = s.Corrupt
	fleet, err := telematics.GenerateFleet(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: generating fleet: %w", err)
	}
	env := &Env{Scale: s, Fleet: fleet}
	for _, v := range fleet.Vehicles {
		prep, err := dataprep.Prepare(v.Profile.ID, v.Start, v.RawU, cfg.Allowance)
		if err != nil {
			return nil, fmt.Errorf("experiments: preparing %s: %w", v.Profile.ID, err)
		}
		env.Prepared = append(env.Prepared, prep)
		env.CleanRepairs += prep.Clean.Total()
		if core.Categorize(prep.Series) == core.Old {
			env.Olds = append(env.Olds, prep.Series)
		}
	}
	if len(env.Olds) == 0 {
		return nil, fmt.Errorf("experiments: fleet of %d vehicles contains no old vehicle", s.Vehicles)
	}
	return env, nil
}

// oldConfig assembles the §4.3 evaluation config for this environment.
func (e *Env) oldConfig(window int, restrict bool) core.OldConfig {
	cfg := core.NewOldConfig()
	cfg.Window = window
	cfg.RestrictTrain = restrict
	cfg.GridSearch = e.Scale.GridSearch
	if e.Scale.FullGrid {
		cfg.Grid = nil // set per algorithm in evaluateFleet
	}
	cfg.Seed = e.Scale.Seed
	return cfg
}

// fleetResult is the outcome of one (algorithm, window, restriction)
// evaluation across the old fleet.
type fleetResult struct {
	Reports []*core.ErrorReport
	// Skipped lists vehicles that could not be evaluated (too little
	// data for the requested window/restriction).
	Skipped []string
}

// evaluateFleet runs EvaluateOld for every old vehicle concurrently.
func (e *Env) evaluateFleet(alg core.Algorithm, window int, restrict bool) (*fleetResult, error) {
	cfg := e.oldConfig(window, restrict)
	if e.Scale.GridSearch && e.Scale.FullGrid {
		cfg.Grid = core.FullGrid(alg)
	} else if e.Scale.GridSearch {
		cfg.Grid = core.CoarseGrid(alg)
	}

	// Bounded worker pool over the old fleet; results land in vehicle
	// order so downstream tables do not depend on goroutine scheduling.
	reports := make([]*core.ErrorReport, len(e.Olds))
	_ = engine.ForEach(context.Background(), len(e.Olds), runtime.GOMAXPROCS(0), func(i int) {
		// Insufficient data for this configuration is a data condition,
		// not a failure: leave the slot nil and continue.
		if r, err := core.EvaluateOld(e.Olds[i], alg, cfg); err == nil {
			reports[i] = r.Report
		}
	})

	res := &fleetResult{}
	for i, r := range reports {
		if r == nil {
			res.Skipped = append(res.Skipped, e.Olds[i].ID)
			continue
		}
		res.Reports = append(res.Reports, r)
	}
	if len(res.Reports) == 0 {
		return nil, fmt.Errorf("experiments: %s W=%d restrict=%v: no vehicle evaluable", alg, window, restrict)
	}
	return res, nil
}
