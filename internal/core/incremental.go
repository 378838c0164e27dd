package core

import (
	"math"
	"sort"
	"time"

	"repro/internal/ml"
	"repro/internal/rng"
	"repro/internal/timeseries"
)

// FNV-1a constants (64-bit). The repo hashes series content with FNV-1a
// because it is fast, dependency-free and stable across platforms —
// exactly what a cross-generation reuse key needs.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime64
}

func fnvUint64(h uint64, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v>>(8*i)))
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	h = fnvUint64(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// Fingerprint is the FNV-1a content hash of one prepared vehicle: its
// identity, acquisition start, allowance and the full daily utilization
// series. Every other per-vehicle series (C, L, D, the cycle
// segmentation) is a pure function of these inputs, so two vehicles
// with equal fingerprints train — and forecast — bit-identically under
// the same configuration. Incremental builds use the fingerprint to
// decide whether the previous generation's model can be carried
// forward.
func Fingerprint(vs *timeseries.VehicleSeries, start time.Time) uint64 {
	h := uint64(fnvOffset64)
	h = fnvString(h, vs.ID)
	h = fnvUint64(h, uint64(start.Unix()))
	h = fnvUint64(h, math.Float64bits(vs.Allowance))
	h = fnvUint64(h, uint64(len(vs.U)))
	for _, v := range vs.U {
		h = fnvUint64(h, math.Float64bits(v))
	}
	return h
}

// Hash fingerprints everything about a predictor configuration that
// changes what a trained model looks like. A persisted snapshot
// records it (engine.Snapshot.ConfigHash) so a reboot under a changed
// configuration — different window, candidates, seed, ... — refuses to
// reuse the old models instead of silently serving a mixed-config
// fleet: the series fingerprints alone cannot see a config change.
func (c PredictorConfig) Hash() uint64 {
	h := uint64(fnvOffset64)
	h = fnvUint64(h, uint64(c.Window))
	if c.Normalize {
		h = fnvByte(h, 1)
	} else {
		h = fnvByte(h, 0)
	}
	h = fnvUint64(h, uint64(len(c.Candidates)))
	for _, alg := range c.Candidates {
		h = fnvString(h, string(alg))
	}
	h = fnvString(h, string(c.ColdStartAlgorithm))
	h = fnvUint64(h, math.Float64bits(c.ValidationFraction))
	h = fnvUint64(h, c.Seed)
	// This slot held the removed fleet-level Bins knob, which was 0 in
	// every shipped configuration. Hashing a constant 0 keeps the hash
	// byte-stable, so snapshots spilled before the knob went still
	// restore instead of forcing a full retrain.
	h = fnvUint64(h, 0)
	// Normalize the evaluation set the same way NewFleetPredictor does
	// (nil means the default D̃), then fold it in sorted order so two
	// equal sets hash equally.
	eval := c.Eval
	if eval == nil {
		eval = DefaultDTilde()
	}
	days := make([]int, 0, len(eval))
	for d, ok := range eval {
		if ok {
			days = append(days, d)
		}
	}
	sort.Ints(days)
	h = fnvUint64(h, uint64(len(days)))
	for _, d := range days {
		h = fnvUint64(h, uint64(d))
	}
	return h
}

// Seed-derivation domains. Tagging the domain byte first makes a
// vehicle seed and the shared unified-model seed collide-proof even if
// a vehicle were named like the reserved shared key.
const (
	seedDomainVehicle = 'V'
	seedDomainShared  = 'U'
)

// deriveSeed maps (root seed, domain, id) to a task seed through FNV-1a
// and one SplitMix/xoshiro expansion for avalanche. Unlike a sequential
// rng split, the result does not depend on which other vehicles are in
// the fleet — the property that makes incremental reuse sound: a
// vehicle's seed (and therefore its model) is unchanged when neighbours
// join or leave the fleet.
func deriveSeed(root uint64, domain byte, id string) uint64 {
	h := uint64(fnvOffset64)
	h = fnvByte(h, domain)
	h = fnvUint64(h, root)
	h = fnvString(h, id)
	return rng.New(h).Uint64()
}

// PriorGeneration carries the reusable outputs of a previous build:
// per-vehicle fingerprints, statuses and trained models, plus the hashes
// of the cold-start inputs those models were trained against.
// internal/engine materializes one from its current Snapshot.
type PriorGeneration struct {
	// Fingerprints are the per-vehicle series content hashes at the
	// previous build.
	Fingerprints map[string]uint64
	// DonorHash identifies the cold-start training inputs of the
	// previous build (see TrainPlan.DonorHash); 0 when the generation
	// predates it.
	DonorHash uint64
	// PoolHash identifies the previous build's donor pool by the full
	// series of every old vehicle. It is only consulted as the reuse
	// key of generations that carry no DonorHash (older spills): an
	// unchanged pool implies unchanged donor first cycles.
	PoolHash uint64
	// Statuses are the previous per-vehicle outcomes, including failed
	// vehicles (Err != "").
	Statuses map[string]VehicleStatus
	// Models are the previous trained models; failed vehicles have no
	// entry.
	Models map[string]ml.Regressor
}

// donorsUnchanged reports whether cold-start training would read the
// same inputs now as it did for the prior generation. Equal pool
// hashes imply equal donor hashes, so either match is sound; the pool
// hash matters only for a prior without a DonorHash.
func (p *PriorGeneration) donorsUnchanged(donorHash, poolHash uint64) bool {
	return p != nil && (p.DonorHash == donorHash || p.PoolHash == poolHash)
}

// unifiedModel returns the prior generation's unified cold-start model:
// the model of the lowest-ID vehicle served by the unified strategy.
// Every such vehicle holds the same shared model, so the pick only has
// to be deterministic. It returns nil when no vehicle used it.
func (p *PriorGeneration) unifiedModel() ml.Regressor {
	var (
		bestID string
		best   ml.Regressor
	)
	for id, st := range p.Statuses {
		if st.Strategy != "unified" || st.Err != "" || p.Models[id] == nil {
			continue
		}
		if best == nil || id < bestID {
			bestID, best = id, p.Models[id]
		}
	}
	return best
}

// TrainPlan is the outcome of planning one build: the vehicles that
// must (re)train, the shared training context, and the prior results
// carried forward unchanged.
type TrainPlan struct {
	// Tasks are the vehicles to train this build, in ID order.
	Tasks []TrainTask
	// Shared is the read-only context for executing Tasks. When the
	// donors are unchanged since the prior generation it already holds
	// the prior unified model, so new vehicles cost a forecast, not a
	// refit.
	Shared *TrainShared
	// Reused are the carried-forward statuses, in ID order.
	Reused []VehicleStatus
	// ReusedModels are the carried-forward models (reused vehicles with
	// Err == "" only).
	ReusedModels map[string]ml.Regressor
	// Fingerprints covers every registered vehicle at this build.
	Fingerprints map[string]uint64
	// DonorHash hashes exactly what cold-start training reads: for each
	// old vehicle in ID order, its ID, allowance, first-cycle end and
	// the utilization up to that end. Semi-new and new vehicles are
	// reused, and the unified model carried forward, while it is
	// unchanged — so a day appended after an old vehicle's first cycle
	// retrains only that vehicle.
	DonorHash uint64
	// PoolHash identifies this build's old-vehicle donor pool by full
	// series content. It is kept so a generation can be compared with
	// older spills that predate DonorHash.
	PoolHash uint64
}

// PlanTrainingWithReuse plans one build against a prior generation.
// With prior == nil every vehicle trains (a full build). Otherwise a
// vehicle is carried forward — status and model untouched — when its
// series fingerprint matches the prior build's, and, for vehicles that
// train on the donor pool rather than their own history (semi-new and
// new), when the donors' first cycles are also unchanged (DonorHash).
// Old vehicles train on their own series only, so their reuse needs
// only their own fingerprint to match. Under unchanged donors the
// shared context also carries the prior unified model forward.
//
// Reuse is exact by construction, not approximation: a task seed is a
// pure function of (config seed, vehicle ID), and TrainVehicle is a
// pure function of (series, category, seed, config, donor first
// cycles), so a reused model is bit-identical to the model a full
// rebuild would train. Callers needing the escape hatch (changed
// config or seed — which a FleetPredictor cannot observe) pass
// prior == nil.
func (fp *FleetPredictor) PlanTrainingWithReuse(prior *PriorGeneration) (*TrainPlan, error) {
	if len(fp.vehicles) == 0 {
		return nil, errNoVehicles()
	}
	plan := &TrainPlan{
		Shared: &TrainShared{
			olds: fp.oldVehicles(),
			cfg:  fp.cfg,
			seed: deriveSeed(fp.cfg.Seed, seedDomainShared, ""),
		},
		ReusedModels: make(map[string]ml.Regressor),
		Fingerprints: make(map[string]uint64, len(fp.vehicles)),
	}

	// Fingerprint and hash the donors over *every* registered vehicle,
	// donor-only ones included: both hashes must be pure functions of
	// the fleet-wide old-vehicle contents so a shard (own partition +
	// donors) and an unsharded build (everything owned) agree on them.
	ids := fp.VehicleIDs()
	categories := make(map[string]Category, len(ids))
	poolHash := uint64(fnvOffset64)
	donorHash := uint64(fnvOffset64)
	for _, id := range ids {
		vs := fp.vehicles[id]
		cat := Categorize(vs)
		categories[id] = cat
		fpHash := Fingerprint(vs, fp.starts[id])
		if !fp.donorOnly[id] {
			plan.Fingerprints[id] = fpHash
		}
		if cat == Old {
			poolHash = fnvString(poolHash, id)
			poolHash = fnvUint64(poolHash, fpHash)
			donorHash = hashFirstCycle(donorHash, vs)
		}
	}
	plan.PoolHash = poolHash
	plan.DonorHash = donorHash
	donorsSame := prior.donorsUnchanged(donorHash, poolHash)
	if donorsSame {
		plan.Shared.unified = prior.unifiedModel()
	}

	// Only owned vehicles are planned (trained or carried forward);
	// donor-only ones exist solely for the shared context above.
	for _, id := range ids {
		if fp.donorOnly[id] {
			continue
		}
		vs := fp.vehicles[id]
		if reusable(prior, id, plan.Fingerprints[id], categories[id], donorsSame) {
			st := prior.Statuses[id]
			plan.Reused = append(plan.Reused, st)
			if st.Err == "" {
				plan.ReusedModels[id] = prior.Models[id]
			}
			continue
		}
		plan.Tasks = append(plan.Tasks, TrainTask{
			Vehicle:  vs,
			Category: categories[id],
			Seed:     deriveSeed(fp.cfg.Seed, seedDomainVehicle, id),
		})
	}
	return plan, nil
}

// hashFirstCycle folds one old vehicle's cold-start inputs into h: its
// ID, allowance, first-cycle end and U[:End]. Derive makes L, D and the
// cycle bounds inside a complete first cycle a pure function of
// U[:End] and the allowance, and the cold-start strategies
// (halfCycleDay, the similarity distance over U[:half],
// FirstCycleRecords, TrainUnified) read nothing else of a donor.
func hashFirstCycle(h uint64, vs *timeseries.VehicleSeries) uint64 {
	end := vs.Cycles[0].End // an Old vehicle's first cycle is complete
	h = fnvString(h, vs.ID)
	h = fnvUint64(h, math.Float64bits(vs.Allowance))
	h = fnvUint64(h, uint64(end))
	for _, v := range vs.U[:end] {
		h = fnvUint64(h, math.Float64bits(v))
	}
	return h
}

// reusable decides whether one vehicle's prior result can be carried
// forward unchanged.
func reusable(prior *PriorGeneration, id string, fpHash uint64, cat Category, donorsSame bool) bool {
	if prior == nil {
		return false
	}
	prev, ok := prior.Fingerprints[id]
	if !ok || prev != fpHash {
		return false
	}
	st, ok := prior.Statuses[id]
	if !ok {
		return false
	}
	// A matching fingerprint implies an identical series, hence an
	// identical category; re-deriving it above keeps this robust even
	// against a (vanishingly unlikely) hash collision on membership.
	if cat != Old && !donorsSame {
		// Semi-new and new vehicles train on the donors' first cycles:
		// changed donors mean a retrain could pick a different donor or
		// unified model, so carrying the old one forward would break
		// the bit-identical contract.
		return false
	}
	if st.Err == "" && prior.Models[id] == nil {
		return false
	}
	return true
}
