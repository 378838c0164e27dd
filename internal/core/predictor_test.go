package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/ml"
	"repro/internal/rng"
	"repro/internal/timeseries"
)

// predictorFixture registers n deterministic vehicles on a fresh
// predictor with cheap candidates.
func predictorFixture(t *testing.T, n int) *FleetPredictor {
	t.Helper()
	cfg := DefaultPredictorConfig()
	cfg.Window = 2
	cfg.Candidates = []Algorithm{LR}
	cfg.ColdStartAlgorithm = LR
	fp, err := NewFleetPredictor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	rnd := rng.New(7)
	for i := 0; i < n; i++ {
		u := make(timeseries.Series, 400)
		for d := range u {
			if d%7 >= 5 {
				u[d] = 0
			} else {
				u[d] = 18000 * (1 + 0.1*rnd.NormFloat64())
			}
		}
		id := "v0" + string(rune('1'+i))
		vs, err := timeseries.Derive(id, u, 600_000)
		if err != nil {
			t.Fatal(err)
		}
		if err := fp.AddVehicle(vs, start); err != nil {
			t.Fatal(err)
		}
	}
	return fp
}

// TestPlanTrainingDeterministic: two plans over the same fleet carry
// identical per-vehicle seeds, in ID order.
func TestPlanTrainingDeterministic(t *testing.T) {
	fp := predictorFixture(t, 3)
	a, _, err := fp.PlanTraining()
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := fp.PlanTraining()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("plan sizes %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Vehicle.ID != b[i].Vehicle.ID || a[i].Seed != b[i].Seed {
			t.Fatalf("task %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if i > 0 && a[i-1].Vehicle.ID >= a[i].Vehicle.ID {
			t.Fatalf("plan not in ID order: %s before %s", a[i-1].Vehicle.ID, a[i].Vehicle.ID)
		}
		if i > 0 && a[i-1].Seed == a[i].Seed {
			t.Fatalf("vehicles %d and %d share a seed", i-1, i)
		}
	}
}

// TestUnifiedModelShared pins the §4.4.1 contract: all new vehicles
// are served by one unified model per build. With a seed-sensitive
// cold-start algorithm (RF), two new vehicles with identical histories
// must receive identical forecasts — which only holds if they share
// the model rather than training one each from their own seed split.
func TestUnifiedModelShared(t *testing.T) {
	cfg := DefaultPredictorConfig()
	cfg.Window = 2
	cfg.Candidates = []Algorithm{LR}
	cfg.ColdStartAlgorithm = RF
	fp, err := NewFleetPredictor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	rnd := rng.New(7)
	// One old donor with plenty of complete cycles.
	u := make(timeseries.Series, 400)
	for d := range u {
		if d%7 >= 5 {
			u[d] = 0
		} else {
			u[d] = 18000 * (1 + 0.1*rnd.NormFloat64())
		}
	}
	donor, err := timeseries.Derive("v01", u, 600_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := fp.AddVehicle(donor, start); err != nil {
		t.Fatal(err)
	}
	// Two brand-new vehicles with identical 10-day histories.
	short := make(timeseries.Series, 10)
	for d := range short {
		short[d] = 15000
	}
	for _, id := range []string{"v02", "v03"} {
		vs, err := timeseries.Derive(id, short, 600_000)
		if err != nil {
			t.Fatal(err)
		}
		if err := fp.AddVehicle(vs, start); err != nil {
			t.Fatal(err)
		}
	}
	statuses, err := fp.Train()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range statuses[1:] {
		if st.Strategy != "unified" {
			t.Fatalf("vehicle %s strategy %q, want unified", st.ID, st.Strategy)
		}
	}
	a, err := fp.Predict("v02")
	if err != nil {
		t.Fatal(err)
	}
	b, err := fp.Predict("v03")
	if err != nil {
		t.Fatal(err)
	}
	if a.DaysLeft != b.DaysLeft {
		t.Fatalf("identical new vehicles diverge: v02=%v v03=%v", a.DaysLeft, b.DaysLeft)
	}
}

// TestInstallTrainedValidation covers the coverage contract: wrong
// count, unregistered vehicles, missing models and duplicate statuses
// are all rejected before any state is mutated.
func TestInstallTrainedValidation(t *testing.T) {
	fp := predictorFixture(t, 3)
	tasks, shared, err := fp.PlanTraining()
	if err != nil {
		t.Fatal(err)
	}
	statuses := make([]VehicleStatus, 0, len(tasks))
	models := make(map[string]ml.Regressor, len(tasks))
	for _, task := range tasks {
		st, model, err := TrainVehicle(task, shared)
		if err != nil {
			t.Fatal(err)
		}
		statuses = append(statuses, st)
		models[st.ID] = model
	}

	cases := []struct {
		name     string
		statuses []VehicleStatus
		wantErr  string
	}{
		{"short", statuses[:2], "statuses for"},
		{"duplicate", []VehicleStatus{statuses[0], statuses[0], statuses[2]}, "duplicate"},
		{"unregistered", []VehicleStatus{statuses[0], statuses[1], {ID: "ghost"}}, "unregistered"},
	}
	for _, tc := range cases {
		err := fp.InstallTrained(tc.statuses, models)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.wantErr)
		}
		if _, perr := fp.Predict(statuses[0].ID); perr == nil {
			t.Errorf("%s: predictor trained after failed install", tc.name)
		}
	}

	if err := fp.InstallTrained(statuses, map[string]ml.Regressor{}); err == nil || !strings.Contains(err.Error(), "without a model") {
		t.Errorf("missing models: err = %v", err)
	}

	if err := fp.InstallTrained(statuses, models); err != nil {
		t.Fatalf("valid install rejected: %v", err)
	}
	if _, err := fp.Predict(statuses[0].ID); err != nil {
		t.Fatalf("Predict after install: %v", err)
	}
}

// TestPredictorConfigHashGolden pins PredictorConfig.Hash to the values
// it had before the fleet-level Bins knob was removed. Snapshots record
// the hash and Restore refuses a mismatch, so any drift here would make
// every persisted spill cold-train on the next boot.
func TestPredictorConfigHashGolden(t *testing.T) {
	if got, want := DefaultPredictorConfig().Hash(), uint64(0xf187d55e44ab4ac0); got != want {
		t.Fatalf("default config hash %#x, want %#x", got, want)
	}
	c := DefaultPredictorConfig()
	c.Window = 3
	c.Eval = DTilde{10: true, 30: true}
	if got, want := c.Hash(), uint64(0x318b16a20564acc5); got != want {
		t.Fatalf("variant config hash %#x, want %#x", got, want)
	}
}

// TestGridSearchSharesBinnedLayout drives a real grid search whose
// configurations all share one histogram resolution and asserts, via the
// package-level binning counters, that each fold's binned layout is
// built exactly once and every configuration reuses it.
func TestGridSearchSharesBinnedLayout(t *testing.T) {
	const n, p, folds = 240, 3, 3
	rnd := rng.New(11)
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, p)
		for j := range row {
			row[j] = rnd.Float64() * 10
		}
		x[i] = row
		y[i] = 2*row[0] - row[1] + rnd.NormFloat64()*0.1
	}
	d, err := ml.NewDataset([]string{"a", "b", "c"}, x, y)
	if err != nil {
		t.Fatal(err)
	}

	grid := ml.Grid{"depth": {3, 5}, "estimators": {4, 8}}
	builds0, reuses0 := ml.BinBuilds(), ml.BinReuses()
	_, err = ml.GridSearchCV(func(pp ml.Params) ml.Regressor {
		m, berr := Build(XGB, pp, 1)
		if berr != nil {
			panic(berr)
		}
		return m
	}, grid, d, folds, ml.MAE, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	builds := ml.BinBuilds() - builds0
	reuses := ml.BinReuses() - reuses0
	if builds != folds {
		t.Fatalf("binned layouts built %d times, want exactly one per fold (%d)", builds, folds)
	}
	if reuses == 0 {
		t.Fatal("no configuration reused a prewarmed binned layout")
	}
}
