package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dataprep"
	"repro/internal/ingest"
	"repro/internal/rng"
	"repro/internal/telematics"
	"repro/internal/timeseries"
)

// Fleet shape. The old cohort is the paper fleet (24 vehicles, 1735
// days, corrupted input, as in experiments.FullScale); the young cohort
// starts later so that semi-new and new vehicles are present and the
// cold-start layer (donor pool, unified and similarity models) trains.
const (
	oldVehicles   = 24
	oldDays       = 1735
	youngVehicles = 8
	youngSpan     = 1000
	// reserveDays of future telemetry are generated per vehicle beyond
	// its seeded history; workloads report them one day at a time.
	reserveDays = 120
	// liveHoldback is how many of each vehicle's seeded days the live
	// workload holds back and reports over the wire instead.
	liveHoldback = 8
)

// benchVehicle is one generated vehicle: its cleaned daily usage,
// including the reserve days the workloads report later.
type benchVehicle struct {
	id    string
	start time.Time
	raw   timeseries.Series // as collected, possibly corrupted
	clean timeseries.Series // raw after the §3 cleaning step
	// seedDays is how many leading days the retrain workload seeds.
	seedDays int
	// want is the category the generator aimed for at the live cut
	// (seedDays - liveHoldback).
	want core.Category
}

// benchFleet is the generated fleet, sorted by vehicle ID.
type benchFleet struct {
	vehicles []*benchVehicle
	byID     map[string]*benchVehicle
}

// fleetSeed generates the fleet's content: the paper fleet as in
// experiments.FullScale (seed 42), and the young cohort from a seed
// split off it. Training cost differs by tens of percent between
// generated fleets, which would swamp the benchmark's bounds, so the
// fleet is fixed and --seed varies everything sent to it: which
// vehicle reports when, and the read and poll schedules.
const fleetSeed = 42

// genFleet generates the mixed-age fleet.
func genFleet() (*benchFleet, error) {
	base := telematics.DefaultFleetConfig()
	base.Seed = fleetSeed
	base.Corrupt = true

	oldCfg := base
	oldCfg.Vehicles = oldVehicles
	oldCfg.Days = oldDays + reserveDays
	old, err := telematics.GenerateFleet(oldCfg)
	if err != nil {
		return nil, fmt.Errorf("generating old cohort: %w", err)
	}
	f := &benchFleet{byID: make(map[string]*benchVehicle)}
	for _, v := range old.Vehicles {
		clean, _ := dataprep.Clean(v.RawU)
		f.add(&benchVehicle{id: v.Profile.ID, start: v.Start, raw: v.RawU, clean: clean, seedDays: oldDays, want: core.Old})
	}

	youngCfg := base
	youngCfg.Vehicles = youngVehicles
	youngCfg.Seed = rng.New(fleetSeed).Split().Uint64()
	youngCfg.Start = base.Start.AddDate(0, 0, oldDays-youngSpan)
	youngCfg.Days = youngSpan + reserveDays
	young, err := telematics.GenerateFleet(youngCfg)
	if err != nil {
		return nil, fmt.Errorf("generating young cohort: %w", err)
	}
	ages := rng.New(youngCfg.Seed ^ 0x9e3779b97f4a7c15)
	for i, v := range young.Vehicles {
		clean, _ := dataprep.Clean(v.RawU)
		// Alternate semi-new and new targets, as a share of the
		// allowance T_v reached at the live cut. The margins keep the
		// category through the liveHoldback days the retrain cut adds
		// (a semi-new vehicle stays below T_v, a new one below T_v/2).
		want, lo, hi := core.SemiNew, 0.55, 0.65
		if i%2 == 1 {
			want, lo, hi = core.New, 0.15, 0.25
		}
		target := ages.Range(lo, hi) * base.Allowance
		cut, sum := 0, 0.0
		for cut < youngSpan && (sum < target || cut < 10) {
			sum += clean[cut]
			cut++
		}
		if sum < target {
			return nil, fmt.Errorf("young vehicle %d never reaches %.0f s of usage in %d days", i, target, youngSpan)
		}
		f.add(&benchVehicle{
			id:       fmt.Sprintf("y%02d", i+1),
			start:    v.Start,
			raw:      v.RawU,
			clean:    clean,
			seedDays: cut + liveHoldback,
			want:     want,
		})
	}
	sort.Slice(f.vehicles, func(i, j int) bool { return f.vehicles[i].id < f.vehicles[j].id })
	return f, nil
}

func (f *benchFleet) add(v *benchVehicle) {
	f.vehicles = append(f.vehicles, v)
	f.byID[v.id] = v
}

// seedFleet is the fleet truncated to days(v) leading days per vehicle,
// as the raw telematics export the store seeds from.
func (f *benchFleet) seedFleet(days func(*benchVehicle) int) *telematics.Fleet {
	out := &telematics.Fleet{}
	for _, v := range f.vehicles {
		out.Vehicles = append(out.Vehicles, telematics.VehicleData{
			Profile: telematics.Profile{ID: v.id},
			Start:   v.start,
			RawU:    v.raw[:days(v)].Clone(),
		})
	}
	return out
}

// report is vehicle v's report for day index t.
func (v *benchVehicle) report(t int) ingest.Report {
	return ingest.Report{VehicleID: v.id, Date: v.start.AddDate(0, 0, t), Seconds: v.clean[t]}
}

// rotation is the order in which workloads pick the next vehicle to
// report: old and young vehicles, each cohort in a seeded order, merged
// in a fixed pattern (one young vehicle after every three old ones).
// The pattern keeps the category mix of any run of consecutive reports
// the same for every seed, so which retrains coalesce, and what they
// cost, does not swing with the seed.
func (f *benchFleet) rotation(seed uint64) []*benchVehicle {
	var old, young []*benchVehicle
	for _, v := range f.vehicles {
		if v.want == core.Old {
			old = append(old, v)
		} else {
			young = append(young, v)
		}
	}
	r := rng.New(seed ^ 0x5bd1e995)
	r.Shuffle(len(old), func(i, j int) { old[i], old[j] = old[j], old[i] })
	r.Shuffle(len(young), func(i, j int) { young[i], young[j] = young[j], young[i] })
	out := make([]*benchVehicle, 0, len(f.vehicles))
	for len(old) > 0 || len(young) > 0 {
		for k := 0; k < 3 && len(old) > 0; k++ {
			out, old = append(out, old[0]), old[1:]
		}
		if len(young) > 0 {
			out, young = append(out, young[0]), young[1:]
		}
	}
	return out
}
