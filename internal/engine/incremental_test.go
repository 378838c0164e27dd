package engine

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/timeseries"
)

// mixedFleet builds a deterministic fleet covering every category:
// three old vehicles (several complete cycles), one semi-new (past half
// of its first cycle) and one new (barely any history).
func mixedFleet(t testing.TB) []Vehicle {
	t.Helper()
	start := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	const allowance = 600_000

	mk := func(id string, days int, daily float64) Vehicle {
		u := make(timeseries.Series, days)
		for i := range u {
			if i%7 >= 5 {
				u[i] = 0
			} else {
				// Deterministic per-day jitter keeps vehicles distinct
				// without an rng dependency.
				u[i] = daily + float64((i*37+len(id)*13)%1000)
			}
		}
		vs, err := timeseries.Derive(id, u, allowance)
		if err != nil {
			t.Fatal(err)
		}
		return Vehicle{Series: vs, Start: start}
	}
	return []Vehicle{
		mk("v01", 400, 18000), // old
		mk("v02", 400, 21000), // old
		mk("v03", 400, 16000), // old
		mk("v04", 26, 18000),  // semi-new: ~360k of 600k used, no complete cycle
		mk("v05", 10, 15000),  // new: ~110k used
	}
}

// perturb returns a copy of the vehicle with one appended day,
// re-derived so all series stay consistent — the minimal "new
// telemetry arrived" event.
func perturb(t testing.TB, v Vehicle) Vehicle {
	t.Helper()
	u := v.Series.U.Clone()
	u = append(u, 17500)
	vs, err := timeseries.Derive(v.Series.ID, u, v.Series.Allowance)
	if err != nil {
		t.Fatal(err)
	}
	return Vehicle{Series: vs, Start: v.Start}
}

func sameStatus(a, b core.VehicleStatus) bool {
	return a.ID == b.ID && a.Category == b.Category && a.Strategy == b.Strategy &&
		a.Algorithm == b.Algorithm && a.Donor == b.Donor && a.Err == b.Err &&
		sameFloat(a.ValidationMRE, b.ValidationMRE)
}

func sameForecast(a, b core.Forecast) bool {
	return a.VehicleID == b.VehicleID && a.AsOfDay == b.AsOfDay &&
		sameFloat(a.DaysLeft, b.DaysLeft) && a.DueDate.Equal(b.DueDate) &&
		a.Category == b.Category && a.Strategy == b.Strategy
}

// assertSameResults checks the bit-identical contract between two
// snapshots: same statuses, same forecasts, same forecast errors.
func assertSameResults(t *testing.T, label string, a, b *Snapshot) {
	t.Helper()
	if len(a.Statuses) != len(b.Statuses) {
		t.Fatalf("%s: status counts %d vs %d", label, len(a.Statuses), len(b.Statuses))
	}
	for i := range a.Statuses {
		if !sameStatus(a.Statuses[i], b.Statuses[i]) {
			t.Errorf("%s: status %d differs:\na %+v\nb %+v", label, i, a.Statuses[i], b.Statuses[i])
		}
	}
	if len(a.Forecasts) != len(b.Forecasts) {
		t.Fatalf("%s: forecast counts %d vs %d", label, len(a.Forecasts), len(b.Forecasts))
	}
	for i := range a.Forecasts {
		if !sameForecast(a.Forecasts[i], b.Forecasts[i]) {
			t.Errorf("%s: forecast %d differs:\na %+v\nb %+v", label, i, a.Forecasts[i], b.Forecasts[i])
		}
	}
	for id, msg := range a.ForecastErrors {
		if b.ForecastErrors[id] != msg {
			t.Errorf("%s: forecast error %s: %q vs %q", label, id, msg, b.ForecastErrors[id])
		}
	}
}

// TestIncrementalReuseCleanFleet: retraining on unchanged telemetry
// reuses every vehicle — models pointer-equal to the previous
// generation — and serves identical results.
func TestIncrementalReuseCleanFleet(t *testing.T) {
	fleet := mixedFleet(t)
	eng, err := New(Config{Predictor: fastPredictorConfig(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	first, err := eng.Retrain(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}
	if first.Reused != 0 || first.Retrained != len(fleet) {
		t.Fatalf("first build reused=%d retrained=%d", first.Reused, first.Retrained)
	}
	second, err := eng.Retrain(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}
	if second.Reused != len(fleet) || second.Retrained != 0 {
		t.Fatalf("clean retrain reused=%d retrained=%d, want %d/0", second.Reused, second.Retrained, len(fleet))
	}
	for id, m := range first.Models {
		if second.Models[id] != m {
			t.Errorf("vehicle %s model not pointer-equal across clean retrain", id)
		}
	}
	assertSameResults(t, "clean retrain", first, second)
	if st := eng.Status(); st.Reused != len(fleet) || st.Retrained != 0 {
		t.Fatalf("status reused=%d retrained=%d", st.Reused, st.Retrained)
	}
}

// editDay returns a copy of the vehicle with day d's utilization
// raised by delta seconds, re-derived so all series stay consistent.
func editDay(t testing.TB, v Vehicle, d int, delta float64) Vehicle {
	t.Helper()
	u := v.Series.U.Clone()
	u[d] += delta
	vs, err := timeseries.Derive(v.Series.ID, u, v.Series.Allowance)
	if err != nil {
		t.Fatal(err)
	}
	return Vehicle{Series: vs, Start: v.Start}
}

// TestIncrementalRetrainsDirtyOldVehicle: one old vehicle's new
// telemetry retrains that vehicle; the other old vehicles carry their
// models forward pointer-equal. The semi-new and new vehicles train on
// the donors' first cycles only, so they follow the dirty vehicle only
// when its first cycle changed. Either way the result is bit-identical
// to a full rebuild on the same fleet.
func TestIncrementalRetrainsDirtyOldVehicle(t *testing.T) {
	base := mixedFleet(t)
	firstEnd := base[0].Series.Cycles[0].End
	cases := []struct {
		name string
		// dirty derives v01's new series.
		dirty              func(Vehicle) Vehicle
		reused, retrained  int
		youngReusedForward bool
	}{
		// A day appended long after v01's first cycle: the donor inputs
		// are unchanged, so v04 (semi-new) and v05 (new) carry forward.
		{"day past first cycle", func(v Vehicle) Vehicle { return perturb(t, v) }, 4, 1, true},
		// An edit inside v01's first cycle changes what cold-start
		// training reads: v04 and v05 retrain with it.
		{"edit inside first cycle", func(v Vehicle) Vehicle { return editDay(t, v, firstEnd/2, 500) }, 2, 3, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := New(Config{Predictor: fastPredictorConfig(), Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			first, err := eng.Retrain(context.Background(), base)
			if err != nil {
				t.Fatal(err)
			}

			dirty := append([]Vehicle(nil), base...)
			dirty[0] = tc.dirty(base[0]) // v01 is old
			if got := core.Categorize(dirty[0].Series); got != core.Old {
				t.Fatalf("dirty v01 categorized %s, want old", got)
			}
			second, err := eng.Retrain(context.Background(), dirty)
			if err != nil {
				t.Fatal(err)
			}
			if second.Reused != tc.reused || second.Retrained != tc.retrained {
				t.Fatalf("reused=%d retrained=%d, want %d/%d", second.Reused, second.Retrained, tc.reused, tc.retrained)
			}
			for _, id := range []string{"v02", "v03"} {
				if second.Models[id] != first.Models[id] {
					t.Errorf("clean old vehicle %s was not reused", id)
				}
			}
			if second.Models["v01"] == first.Models["v01"] {
				t.Error("dirty vehicle v01 kept its stale model")
			}
			for _, id := range []string{"v04", "v05"} {
				if got := second.Models[id] == first.Models[id]; got != tc.youngReusedForward {
					t.Errorf("young vehicle %s model carried forward = %v, want %v", id, got, tc.youngReusedForward)
				}
			}

			fresh, err := New(Config{Predictor: fastPredictorConfig(), Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			full, err := fresh.Retrain(context.Background(), dirty)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, "incremental vs full", second, full)
		})
	}
}

// TestNewVehicleReportReusesUnifiedModel: a report from a new vehicle
// leaves the donors untouched, so its retrain serves the prior
// generation's unified model instead of refitting it — no cold-start
// fit reaches the stage observer — and still matches a full rebuild.
func TestNewVehicleReportReusesUnifiedModel(t *testing.T) {
	base := mixedFleet(t)
	eng, err := New(Config{Predictor: fastPredictorConfig(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	first, err := eng.Retrain(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if st := first.StatusByID["v05"]; st.Strategy != "unified" {
		t.Fatalf("v05 strategy %q, want unified", st.Strategy)
	}

	fits := eng.metrics.models.With(string(fastPredictorConfig().ColdStartAlgorithm), "fit")
	before := fits.Count()
	dirty := append([]Vehicle(nil), base...)
	dirty[4] = perturb(t, base[4]) // v05 is new
	if got := core.Categorize(dirty[4].Series); got != core.New {
		t.Fatalf("dirty v05 categorized %s, want new", got)
	}
	second, err := eng.Retrain(context.Background(), dirty)
	if err != nil {
		t.Fatal(err)
	}
	if second.Reused != 4 || second.Retrained != 1 {
		t.Fatalf("reused=%d retrained=%d, want 4/1", second.Reused, second.Retrained)
	}
	if second.Models["v05"] != first.Models["v05"] {
		t.Error("new vehicle v05 did not get the prior unified model")
	}
	if n := fits.Count() - before; n != 0 {
		t.Errorf("observed %d cold-start fits, want 0", n)
	}

	fresh, err := New(Config{Predictor: fastPredictorConfig(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	full, err := fresh.Retrain(context.Background(), dirty)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "incremental vs full", second, full)
}

// TestIncrementalRetrainsDirtyNewVehicleOnly: new telemetry for a
// vehicle outside the donor pool retrains only that vehicle — the
// O(changed vehicles) contract in its purest form.
func TestIncrementalRetrainsDirtyNewVehicleOnly(t *testing.T) {
	base := mixedFleet(t)
	eng, err := New(Config{Predictor: fastPredictorConfig(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Retrain(context.Background(), base); err != nil {
		t.Fatal(err)
	}
	dirty := append([]Vehicle(nil), base...)
	dirty[4] = perturb(t, base[4]) // v05 is new: not in the donor pool
	second, err := eng.Retrain(context.Background(), dirty)
	if err != nil {
		t.Fatal(err)
	}
	if second.Reused != 4 || second.Retrained != 1 {
		t.Fatalf("reused=%d retrained=%d, want 4/1", second.Reused, second.Retrained)
	}
	if _, ok := second.StatusByID["v05"]; !ok {
		t.Fatal("v05 missing from snapshot")
	}
}

// TestRetrainFullEscapeHatch: RetrainFull ignores the previous
// generation — everything retrains — yet produces identical results,
// because reuse is exact by construction.
func TestRetrainFullEscapeHatch(t *testing.T) {
	fleet := mixedFleet(t)
	eng, err := New(Config{Predictor: fastPredictorConfig(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	first, err := eng.Retrain(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}
	full, err := eng.RetrainFull(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}
	if full.Reused != 0 || full.Retrained != len(fleet) {
		t.Fatalf("full rebuild reused=%d retrained=%d", full.Reused, full.Retrained)
	}
	assertSameResults(t, "full vs first", first, full)
	for id, m := range first.Models {
		if full.Models[id] == m {
			t.Errorf("full rebuild reused vehicle %s's model pointer", id)
		}
	}
}

// failingVehicle is an old vehicle (one complete cycle) whose entire
// post-split tail lies in the trailing incomplete cycle, so candidate
// evaluation deterministically fails with "no test records".
func failingVehicle(t testing.TB) Vehicle {
	t.Helper()
	u := make(timeseries.Series, 40)
	for i := 0; i < 28; i++ {
		u[i] = 22000 // completes the 600k cycle on day 27
	}
	for i := 28; i < 40; i++ {
		u[i] = 100 // trailing incomplete cycle: unknown targets only
	}
	vs, err := timeseries.Derive("v99", u, 600_000)
	if err != nil {
		t.Fatal(err)
	}
	if got := core.Categorize(vs); got != core.Old {
		t.Fatalf("failing vehicle categorized %s, want old", got)
	}
	return Vehicle{Series: vs, Start: time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)}
}

// TestPerVehicleFailureTolerance: one vehicle failing training no
// longer aborts the fleet build — the snapshot serves the rest and
// reports the failure in the vehicle's status, the snapshot and the
// engine status.
func TestPerVehicleFailureTolerance(t *testing.T) {
	fleet := append(mixedFleet(t), failingVehicle(t))
	eng, err := New(Config{Predictor: fastPredictorConfig(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := eng.Retrain(context.Background(), fleet)
	if err != nil {
		t.Fatalf("fleet build aborted by one failing vehicle: %v", err)
	}
	if len(snap.Statuses) != len(fleet) {
		t.Fatalf("snapshot has %d statuses for %d vehicles", len(snap.Statuses), len(fleet))
	}
	st, ok := snap.StatusByID["v99"]
	if !ok || st.Err == "" || !strings.Contains(st.Err, "no test records") {
		t.Fatalf("v99 status = %+v", st)
	}
	if msg, ok := snap.FailedVehicles["v99"]; !ok || msg != st.Err {
		t.Fatalf("FailedVehicles = %v", snap.FailedVehicles)
	}
	if _, ok := snap.ForecastByID["v99"]; ok {
		t.Fatal("failed vehicle has a forecast")
	}
	if _, ok := snap.ForecastErrors["v99"]; !ok {
		t.Fatal("failed vehicle missing from ForecastErrors")
	}
	if len(snap.Forecasts) != len(fleet)-1 {
		t.Fatalf("served %d forecasts, want %d", len(snap.Forecasts), len(fleet)-1)
	}
	if _, ok := snap.Models["v99"]; ok {
		t.Fatal("failed vehicle has a model")
	}
	est := eng.Status()
	if est.FailedVehicles["v99"] == "" {
		t.Fatalf("engine status failed_vehicles = %v", est.FailedVehicles)
	}

	// A clean retrain carries the deterministic failure forward instead
	// of re-failing it from scratch.
	again, err := eng.Retrain(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}
	if again.Retrained != 0 || again.Reused != len(fleet) {
		t.Fatalf("reused=%d retrained=%d after clean retrain", again.Reused, again.Retrained)
	}
	if got := again.StatusByID["v99"]; got.Err != st.Err {
		t.Fatalf("carried failure %q, want %q", got.Err, st.Err)
	}
}

// TestAllVehiclesFailingAborts: failure tolerance degrades per
// vehicle, but a fleet with zero trainable vehicles still fails the
// build — there is nothing to serve.
func TestAllVehiclesFailingAborts(t *testing.T) {
	eng, err := New(Config{Predictor: fastPredictorConfig(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Retrain(context.Background(), []Vehicle{failingVehicle(t)}); err == nil {
		t.Fatal("all-failing fleet produced a snapshot")
	}
	if eng.Snapshot() != nil {
		t.Fatal("all-failing fleet published a snapshot")
	}
}
