package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/ml"
	"repro/internal/timeseries"
)

// donorFleet builds a deterministic mixed fleet: three old vehicles,
// one semi-new, one new — the categories whose training depends on the
// donor pool are what donor-only registration must keep invariant.
func donorFleet(t *testing.T) ([]*timeseries.VehicleSeries, time.Time) {
	t.Helper()
	start := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	const allowance = 600_000
	mk := func(id string, days int, daily float64) *timeseries.VehicleSeries {
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
		return vs
	}
	return []*timeseries.VehicleSeries{
		mk("v01", 400, 18000), // old
		mk("v02", 400, 21000), // old
		mk("v03", 400, 16000), // old
		mk("v04", 26, 18000),  // semi-new
		mk("v05", 10, 15000),  // new
	}, start
}

func donorTestConfig() PredictorConfig {
	cfg := DefaultPredictorConfig()
	cfg.Window = 3
	cfg.Candidates = []Algorithm{LR}
	cfg.ColdStartAlgorithm = LR
	return cfg
}

// TestDonorOnlyPoolEquivalence is the sharding soundness contract: a
// predictor owning only a partition of the fleet, with the remaining
// old vehicles registered donor-only, must plan the same pool hash and
// train the partition's vehicles to bit-identical forecasts as a
// predictor owning the whole fleet.
func TestDonorOnlyPoolEquivalence(t *testing.T) {
	fleet, start := donorFleet(t)

	full, err := NewFleetPredictor(donorTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, vs := range fleet {
		if err := full.AddVehicle(vs, start); err != nil {
			t.Fatal(err)
		}
	}
	fullPlan, err := full.PlanTrainingWithReuse(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := full.Train(); err != nil {
		t.Fatal(err)
	}

	// The shard owns the cold-start vehicles plus one old vehicle; the
	// other two olds are donors from "elsewhere in the fleet".
	owned := map[string]bool{"v03": true, "v04": true, "v05": true}
	shard, err := NewFleetPredictor(donorTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, vs := range fleet {
		if owned[vs.ID] {
			err = shard.AddVehicle(vs, start)
		} else {
			err = shard.AddDonor(vs, start)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	shardPlan, err := shard.PlanTrainingWithReuse(nil)
	if err != nil {
		t.Fatal(err)
	}

	if shardPlan.PoolHash != fullPlan.PoolHash {
		t.Fatalf("pool hash %x differs from unsharded %x", shardPlan.PoolHash, fullPlan.PoolHash)
	}
	if got, want := len(shardPlan.Tasks), len(owned); got != want {
		t.Fatalf("shard plans %d tasks, want %d (owned only)", got, want)
	}
	for _, task := range shardPlan.Tasks {
		if !owned[task.Vehicle.ID] {
			t.Fatalf("shard plans donor-only vehicle %s", task.Vehicle.ID)
		}
	}
	if len(shardPlan.Fingerprints) != len(owned) {
		t.Fatalf("shard fingerprints cover %d vehicles, want %d", len(shardPlan.Fingerprints), len(owned))
	}

	if _, err := shard.Train(); err != nil {
		t.Fatal(err)
	}
	got, err := shard.PredictAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(owned) {
		t.Fatalf("shard forecasts %d vehicles, want %d", len(got), len(owned))
	}
	for _, f := range got {
		want, err := full.Predict(f.VehicleID)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(f.DaysLeft) != math.Float64bits(want.DaysLeft) ||
			!f.DueDate.Equal(want.DueDate) || f.Strategy != want.Strategy {
			t.Errorf("vehicle %s: sharded forecast %+v differs from unsharded %+v", f.VehicleID, f, want)
		}
	}

	// Donor-only vehicles are not servable on this shard.
	if _, err := shard.Predict("v01"); err == nil || !strings.Contains(err.Error(), "donor-only") {
		t.Errorf("Predict on donor-only vehicle: err = %v, want donor-only rejection", err)
	}
}

// TestDonorOnlyReuse: a shard retraining on unchanged telemetry reuses
// its owned vehicles even though the donor pool is registered on a
// fresh predictor each build.
func TestDonorOnlyReuse(t *testing.T) {
	fleet, start := donorFleet(t)
	owned := map[string]bool{"v04": true, "v05": true}

	build := func(prior *PriorGeneration) (*TrainPlan, *FleetPredictor) {
		fp, err := NewFleetPredictor(donorTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, vs := range fleet {
			if owned[vs.ID] {
				err = fp.AddVehicle(vs, start)
			} else {
				err = fp.AddDonor(vs, start)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		plan, err := fp.PlanTrainingWithReuse(prior)
		if err != nil {
			t.Fatal(err)
		}
		return plan, fp
	}

	plan1, _ := build(nil)
	if len(plan1.Tasks) != 2 {
		t.Fatalf("first build plans %d tasks, want 2", len(plan1.Tasks))
	}
	// Execute the first build's tasks and package the prior generation
	// the way internal/engine does from its snapshot.
	prior := &PriorGeneration{
		Fingerprints: plan1.Fingerprints,
		PoolHash:     plan1.PoolHash,
		Statuses:     make(map[string]VehicleStatus),
		Models:       make(map[string]ml.Regressor),
	}
	for _, task := range plan1.Tasks {
		st, model, err := TrainVehicle(task, plan1.Shared)
		if err != nil {
			t.Fatal(err)
		}
		prior.Statuses[st.ID] = st
		prior.Models[st.ID] = model
	}

	plan2, _ := build(prior)
	if len(plan2.Tasks) != 0 {
		t.Fatalf("second build plans %d tasks, want 0 (all reused)", len(plan2.Tasks))
	}
	if len(plan2.Reused) != 2 {
		t.Fatalf("second build reuses %d vehicles, want 2", len(plan2.Reused))
	}
}

// rederive re-derives vs from a new utilization series and allowance.
func rederive(t *testing.T, vs *timeseries.VehicleSeries, u timeseries.Series, allowance float64) *timeseries.VehicleSeries {
	t.Helper()
	out, err := timeseries.Derive(vs.ID, u, allowance)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDonorHash pins what the cold-start reuse key sees: exactly the
// old vehicles' IDs, allowances and first cycles — nothing of their
// later days, of young vehicles, of start dates or of which shard owns
// a donor.
func TestDonorHash(t *testing.T) {
	fleet, start := donorFleet(t)
	byID := make(map[string]*timeseries.VehicleSeries, len(fleet))
	for _, vs := range fleet {
		byID[vs.ID] = vs
	}

	// plan registers the fleet with one vehicle replaced (nil: none),
	// optional extra donors, start overrides and donor-only IDs.
	type variant struct {
		replace   *timeseries.VehicleSeries
		donors    []*timeseries.VehicleSeries
		starts    map[string]time.Time
		donorOnly map[string]bool
	}
	plan := func(v variant) *TrainPlan {
		fp, err := NewFleetPredictor(donorTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, vs := range fleet {
			if v.replace != nil && v.replace.ID == vs.ID {
				vs = v.replace
			}
			st, ok := v.starts[vs.ID]
			if !ok {
				st = start
			}
			if v.donorOnly[vs.ID] {
				err = fp.AddDonor(vs, st)
			} else {
				err = fp.AddVehicle(vs, st)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, vs := range v.donors {
			if err := fp.AddDonor(vs, start); err != nil {
				t.Fatal(err)
			}
		}
		p, err := fp.PlanTrainingWithReuse(nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	appendDays := func(vs *timeseries.VehicleSeries, n int, daily float64) *timeseries.VehicleSeries {
		u := vs.U.Clone()
		for i := 0; i < n; i++ {
			u = append(u, daily)
		}
		return rederive(t, vs, u, vs.Allowance)
	}
	base := plan(variant{})

	v01End := byID["v01"].Cycles[0].End
	if len(byID["v01"].U) <= v01End {
		t.Fatalf("v01 has no days after its first cycle")
	}
	pastFirst := appendDays(byID["v01"], 1, 17500)
	if p := plan(variant{replace: pastFirst}); p.PoolHash == base.PoolHash {
		t.Fatal("appending a day left the pool hash unchanged; the case tests nothing")
	}

	same := []struct {
		name string
		v    variant
	}{
		{"day appended after v01's first cycle", variant{replace: pastFirst}},
		{"semi-new v04 gains a day", variant{replace: appendDays(byID["v04"], 1, 9000)}},
		{"new v05 gains a day", variant{replace: appendDays(byID["v05"], 1, 9000)}},
		{"v01 start date moves", variant{starts: map[string]time.Time{"v01": start.AddDate(0, 0, 3)}}},
		{"v05 start date moves", variant{starts: map[string]time.Time{"v05": start.AddDate(1, 0, 0)}}},
		{"v01 and v02 registered donor-only", variant{donorOnly: map[string]bool{"v01": true, "v02": true}}},
	}
	for _, tc := range same {
		if tc.v.replace != nil {
			if want, got := Categorize(byID[tc.v.replace.ID]), Categorize(tc.v.replace); got != want {
				t.Fatalf("%s: category moved %s -> %s", tc.name, want, got)
			}
		}
		if got := plan(tc.v).DonorHash; got != base.DonorHash {
			t.Errorf("%s: donor hash %x, want unchanged %x", tc.name, got, base.DonorHash)
		}
	}

	editU := byID["v01"].U.Clone()
	editU[v01End/2] += 500
	v06 := rederive(t, byID["v02"], byID["v02"].U, byID["v02"].Allowance)
	v06.ID = "v06"
	grown := byID["v04"]
	for Categorize(grown) != Old {
		grown = appendDays(grown, 5, 20000)
	}
	changed := []struct {
		name string
		v    variant
	}{
		{"edit inside v01's first cycle", variant{replace: rederive(t, byID["v01"], editU, byID["v01"].Allowance)}},
		{"v02 allowance changes", variant{replace: rederive(t, byID["v02"], byID["v02"].U, byID["v02"].Allowance*0.95)}},
		{"donor-only old v06 joins", variant{donors: []*timeseries.VehicleSeries{v06}}},
		{"semi-new v04 completes its first cycle", variant{replace: grown}},
	}
	for _, tc := range changed {
		if tc.v.replace != nil && Categorize(tc.v.replace) != Old {
			t.Fatalf("%s: replacement is %s, want old", tc.name, Categorize(tc.v.replace))
		}
		if got := plan(tc.v).DonorHash; got == base.DonorHash {
			t.Errorf("%s: donor hash unchanged at %x", tc.name, got)
		}
	}
}

// TestPriorUnifiedModelPick pins which prior model planning carries
// forward as the unified model: the lowest-ID vehicle whose status is
// a healthy unified one with a model. The pick is deterministic
// whatever the map iteration order, and happens only under unchanged
// donors.
func TestPriorUnifiedModelPick(t *testing.T) {
	model := func() ml.Regressor {
		m, err := Build(LR, DefaultParams(LR), 1)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	want := model()
	prior := &PriorGeneration{
		Statuses: map[string]VehicleStatus{
			"v00": {ID: "v00", Strategy: "similarity"},
			"v01": {ID: "v01", Strategy: "unified"}, // no model
			"v02": {ID: "v02", Strategy: "unified", Err: "boom"},
			"v03": {ID: "v03", Strategy: "unified"},
			"v07": {ID: "v07", Strategy: "unified"},
			"v09": {ID: "v09", Strategy: "per-vehicle"},
		},
		Models: map[string]ml.Regressor{
			"v00": model(), "v02": model(), "v03": want, "v07": model(), "v09": model(),
		},
	}
	for i := 0; i < 20; i++ {
		if got := prior.unifiedModel(); got != want {
			t.Fatalf("pick %d: got a model other than v03's", i)
		}
	}
	if got := (&PriorGeneration{Statuses: map[string]VehicleStatus{"v00": {Strategy: "similarity"}}}).unifiedModel(); got != nil {
		t.Fatal("picked a unified model from a generation without one")
	}

	// Planning seeds the shared context from the pick only when the
	// donors match.
	fleet, start := donorFleet(t)
	fp, err := NewFleetPredictor(donorTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, vs := range fleet {
		if err := fp.AddVehicle(vs, start); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := fp.PlanTrainingWithReuse(nil)
	if err != nil {
		t.Fatal(err)
	}
	prior.DonorHash = fresh.DonorHash
	seeded, err := fp.PlanTrainingWithReuse(prior)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := seeded.Shared.Unified(); err != nil || got != want {
		t.Fatalf("unified under unchanged donors: %v, %v; want the prior pick", got, err)
	}
	prior.DonorHash++
	unseeded, err := fp.PlanTrainingWithReuse(prior)
	if err != nil {
		t.Fatal(err)
	}
	if unseeded.Shared.unified != nil {
		t.Fatal("changed donors still carried the prior unified model forward")
	}
	// A prior without a DonorHash (an older spill) falls back on the
	// pool hash.
	prior.DonorHash = 0
	prior.PoolHash = fresh.PoolHash
	legacy, err := fp.PlanTrainingWithReuse(prior)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := legacy.Shared.Unified(); got != want {
		t.Fatal("pool-hash fallback did not carry the prior unified model forward")
	}
}
