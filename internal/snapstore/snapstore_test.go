package snapstore

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ml"
	"repro/internal/timeseries"
)

// synthXY builds a small deterministic regression problem.
func synthXY(n, p int) ([][]float64, []float64) {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, p)
		for j := range row {
			row[j] = math.Sin(float64(i*p+j)) * float64(j+1)
		}
		x[i] = row
		y[i] = 3*row[0] - 2*row[p-1] + math.Cos(float64(i))
	}
	return x, y
}

// TestModelGobRoundTrip: every algorithm the fleet can deploy must
// survive a gob round-trip as an ml.Regressor interface value with
// bit-identical predictions — the contract snapshot persistence rests
// on.
func TestModelGobRoundTrip(t *testing.T) {
	x, y := synthXY(80, 4)
	probes, _ := synthXY(17, 4)
	for _, alg := range core.TrainedAlgorithms() {
		t.Run(string(alg), func(t *testing.T) {
			model, err := core.Build(alg, core.DefaultParams(alg), 42)
			if err != nil {
				t.Fatal(err)
			}
			if err := model.Fit(x, y); err != nil {
				t.Fatal(err)
			}

			var buf bytes.Buffer
			// Encode through the interface, as the snapshot's model map
			// does.
			holder := struct{ M ml.Regressor }{M: model}
			if err := gob.NewEncoder(&buf).Encode(&holder); err != nil {
				t.Fatal(err)
			}
			var back struct{ M ml.Regressor }
			if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
				t.Fatal(err)
			}

			for i, probe := range probes {
				want := model.Predict(probe)
				got := back.M.Predict(probe)
				if math.Float64bits(want) != math.Float64bits(got) {
					t.Fatalf("probe %d: decoded %s predicts %v, want %v", i, alg, got, want)
				}
			}
		})
	}
}

// TestBaselineGobRoundTrip: the untrained BL predictor also lives in
// model maps when a fleet keeps it among its candidates.
func TestBaselineGobRoundTrip(t *testing.T) {
	bl, err := core.NewBaseline(18000, 600_000)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	holder := struct{ M ml.Regressor }{M: bl}
	if err := gob.NewEncoder(&buf).Encode(&holder); err != nil {
		t.Fatal(err)
	}
	var back struct{ M ml.Regressor }
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.42, 1, 2}
	if got, want := back.M.Predict(probe), bl.Predict(probe); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("decoded baseline predicts %v, want %v", got, want)
	}
}

// testFleet builds a deterministic mixed-category fleet (same recipe
// as the engine tests).
func testFleet(t testing.TB) []engine.Vehicle {
	t.Helper()
	start := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	const allowance = 600_000
	mk := func(id string, days int, daily float64) engine.Vehicle {
		u := make(timeseries.Series, days)
		for i := range u {
			if i%7 >= 5 {
				u[i] = 0
			} else {
				u[i] = daily + float64((i*37+len(id)*13)%1000)
			}
		}
		vs, err := timeseries.Derive(id, u, allowance)
		if err != nil {
			t.Fatal(err)
		}
		return engine.Vehicle{Series: vs, Start: start}
	}
	return []engine.Vehicle{
		mk("v01", 400, 18000),
		mk("v02", 400, 21000),
		mk("v03", 400, 16000),
		mk("v04", 26, 18000),
		mk("v05", 10, 15000),
	}
}

func testConfig() core.PredictorConfig {
	cfg := core.DefaultPredictorConfig()
	cfg.Window = 3
	cfg.Candidates = []core.Algorithm{core.LR, core.LSVR}
	cfg.ColdStartAlgorithm = core.LR
	return cfg
}

// TestSnapshotRoundTrip: Save + Load preserves everything a serving
// shard needs — statuses, forecasts, fingerprints, pool hash — and the
// restored models predict.
func TestSnapshotRoundTrip(t *testing.T) {
	fleet := testFleet(t)
	eng, err := engine.New(engine.Config{Predictor: testConfig(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := eng.Retrain(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}

	store, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save("shard00", snap); err != nil {
		t.Fatal(err)
	}
	got, err := store.Load("shard00")
	if err != nil {
		t.Fatal(err)
	}

	if got.Generation != snap.Generation || got.PoolHash != snap.PoolHash {
		t.Fatalf("generation/poolhash %d/%x, want %d/%x", got.Generation, got.PoolHash, snap.Generation, snap.PoolHash)
	}
	if len(got.Statuses) != len(snap.Statuses) || len(got.Forecasts) != len(snap.Forecasts) {
		t.Fatalf("restored %d statuses / %d forecasts, want %d / %d",
			len(got.Statuses), len(got.Forecasts), len(snap.Statuses), len(snap.Forecasts))
	}
	for i, f := range snap.Forecasts {
		g := got.Forecasts[i]
		if f.VehicleID != g.VehicleID || math.Float64bits(f.DaysLeft) != math.Float64bits(g.DaysLeft) ||
			!f.DueDate.Equal(g.DueDate) {
			t.Errorf("forecast %d differs: %+v vs %+v", i, f, g)
		}
	}
	for id, fp := range snap.Fingerprints {
		if got.Fingerprints[id] != fp {
			t.Errorf("fingerprint %s: %x, want %x", id, got.Fingerprints[id], fp)
		}
	}
	for id := range snap.Models {
		if got.Models[id] == nil {
			t.Errorf("restored snapshot lost model for %s", id)
		}
	}
}

// TestRestoreThenIncrementalRetrain is the reboot contract: an engine
// restored from a spilled snapshot serves it immediately and the next
// retrain on unchanged telemetry reuses every vehicle (no
// cold-training); a one-vehicle change retrains only that vehicle.
func TestRestoreThenIncrementalRetrain(t *testing.T) {
	fleet := testFleet(t)
	dir := t.TempDir()
	store, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}

	// "First boot": train and spill via the OnSnapshot hook.
	eng1, err := engine.New(engine.Config{
		Predictor: testConfig(),
		Workers:   2,
		OnSnapshot: func(snap *engine.Snapshot) {
			if err := store.Save("shard00", snap); err != nil {
				t.Errorf("spill: %v", err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	snap1, err := eng1.Retrain(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}

	// "Reboot": a fresh engine restores the spill and serves it without
	// any training.
	restored, err := store.Load("shard00")
	if err != nil {
		t.Fatal(err)
	}
	eng2, err := engine.New(engine.Config{Predictor: testConfig(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Restore(restored); err != nil {
		t.Fatal(err)
	}
	if snap := eng2.Snapshot(); snap == nil || len(snap.Forecasts) != len(snap1.Forecasts) {
		t.Fatal("restored engine does not serve the spilled generation")
	}

	// Unchanged telemetry: everything reuses against the restored
	// fingerprints.
	snap2, err := eng2.Retrain(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Generation != snap1.Generation+1 {
		t.Errorf("post-restore generation %d, want %d", snap2.Generation, snap1.Generation+1)
	}
	if snap2.Retrained != 0 || snap2.Reused != len(fleet) {
		t.Errorf("post-restore retrain: reused=%d retrained=%d, want full reuse of %d", snap2.Reused, snap2.Retrained, len(fleet))
	}
	for i, f := range snap1.Forecasts {
		g := snap2.Forecasts[i]
		if math.Float64bits(f.DaysLeft) != math.Float64bits(g.DaysLeft) {
			t.Errorf("forecast %s drifted across restore: %v vs %v", f.VehicleID, f.DaysLeft, g.DaysLeft)
		}
	}

	// One vehicle changes: only it retrains. v01 is old, so the donor
	// pool shifts with it — but v04/v05 (pool-dependent) still reuse
	// only when the pool is unchanged; perturb the semi-new vehicle
	// instead to keep the pool stable.
	changed := make([]engine.Vehicle, len(fleet))
	copy(changed, fleet)
	u := fleet[3].Series.U.Clone()
	u = append(u, 17500)
	vs, err := timeseries.Derive(fleet[3].Series.ID, u, fleet[3].Series.Allowance)
	if err != nil {
		t.Fatal(err)
	}
	changed[3] = engine.Vehicle{Series: vs, Start: fleet[3].Start}
	snap3, err := eng2.Retrain(context.Background(), changed)
	if err != nil {
		t.Fatal(err)
	}
	if snap3.Retrained != 1 || snap3.Reused != len(fleet)-1 {
		t.Errorf("dirty retrain: reused=%d retrained=%d, want %d/1", snap3.Reused, snap3.Retrained, len(fleet)-1)
	}
}

// TestRestoreRejectsChangedConfig: a spill from a different predictor
// configuration must not restore — fingerprint reuse cannot see a
// config change, so serving it would silently mix configurations.
func TestRestoreRejectsChangedConfig(t *testing.T) {
	fleet := testFleet(t)
	eng1, err := engine.New(engine.Config{Predictor: testConfig(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := eng1.Retrain(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}
	store, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save("s", snap); err != nil {
		t.Fatal(err)
	}
	restored, err := store.Load("s")
	if err != nil {
		t.Fatal(err)
	}

	changed := testConfig()
	changed.Window = 5 // a window change invalidates every model
	eng2, err := engine.New(engine.Config{Predictor: changed, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Restore(restored); err == nil {
		t.Fatal("snapshot from a different predictor config restored")
	}
	if eng2.Snapshot() != nil {
		t.Fatal("rejected restore still installed a snapshot")
	}

	// The unchanged config still restores.
	eng3, err := engine.New(engine.Config{Predictor: testConfig(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng3.Restore(restored); err != nil {
		t.Fatalf("same-config restore rejected: %v", err)
	}
}

// TestLoadErrors covers the failure surface: missing file, wrong
// shard, corrupt header, bad names.
func TestLoadErrors(t *testing.T) {
	store, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load("nothere"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing spill: err = %v, want ErrNotExist", err)
	}
	if _, err := store.Load("../escape"); err == nil {
		t.Error("path-escaping shard name accepted")
	}
	if err := store.Save("", nil); err == nil {
		t.Error("nil snapshot accepted")
	}

	// A spill loaded under the wrong shard name is rejected.
	fleet := testFleet(t)
	eng, err := engine.New(engine.Config{Predictor: testConfig(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := eng.Retrain(context.Background(), fleet[:3])
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save("a", snap); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(store.Dir() + "/a.snap")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.Dir()+"/b.snap", data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load("b"); err == nil {
		t.Error("spill copied across shard names accepted")
	}

	// Corrupt magic.
	if err := os.WriteFile(store.Dir()+"/c.snap", []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load("c"); err == nil {
		t.Error("corrupt file accepted")
	}
}

// TestRestorePreUpgradeSpill: testdata/pre-upgrade.snap was spilled by
// a build whose PredictorConfig still had the since-removed Bins and
// FitWorkers knobs, so its ConfigHash folded Bins in. The upgrade must
// not force a cold train: the spill restores under today's
// configuration, and a retrain on the unchanged fleet reuses every
// vehicle with bit-identical forecasts. (Forest and boosting models in
// the old encoding are covered by the fixtures in their own packages.)
func TestRestorePreUpgradeSpill(t *testing.T) {
	store, err := New("testdata")
	if err != nil {
		t.Fatal(err)
	}
	spilled, err := store.Load("pre-upgrade")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(engine.Config{Predictor: testConfig(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Restore(spilled); err != nil {
		t.Fatalf("pre-upgrade spill refused: %v", err)
	}
	fleet := testFleet(t)
	snap, err := eng.Retrain(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Retrained != 0 || snap.Reused != len(fleet) {
		t.Fatalf("retrain after restore: reused=%d retrained=%d, want full reuse of %d", snap.Reused, snap.Retrained, len(fleet))
	}
	for i, f := range spilled.Forecasts {
		if g := snap.Forecasts[i]; f.VehicleID != g.VehicleID || math.Float64bits(f.DaysLeft) != math.Float64bits(g.DaysLeft) {
			t.Errorf("forecast %s drifted across the upgrade: %v vs %v", f.VehicleID, f.DaysLeft, g.DaysLeft)
		}
	}
}
