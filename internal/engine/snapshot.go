package engine

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ml"
)

// FleetArtifact names one whole-fleet response body cached per
// snapshot. Artifacts are built lazily on first read and live for the
// snapshot's lifetime, so every fleet-wide GET after the first serves
// pre-marshaled bytes.
type FleetArtifact int

const (
	// ArtifactFleetForecast is the GET /fleet/forecast response body.
	ArtifactFleetForecast FleetArtifact = iota
	// ArtifactVehicles is the GET /vehicles response body.
	ArtifactVehicles

	numFleetArtifacts
)

// maxPlanCacheEntries bounds the per-snapshot plan cache. Plan query
// parameters are client-controlled cache keys, so an unbounded map
// would let a scanning client grow memory without limit; past the cap
// plans are built per request, uncached.
const maxPlanCacheEntries = 128

// Snapshot is one immutable, fully materialized training result. All
// fields are written before the snapshot is published and never
// mutated afterwards, so readers may use it without synchronization for
// as long as they like — even across a retrain, which only swaps the
// engine's pointer to a new snapshot.
type Snapshot struct {
	// Statuses are the per-vehicle training outcomes in ID order,
	// including vehicles whose training failed (Err != "").
	Statuses []core.VehicleStatus
	// StatusByID indexes Statuses.
	StatusByID map[string]core.VehicleStatus
	// Forecasts are the precomputed fleet forecasts in ID order,
	// excluding vehicles whose forecast failed (see ForecastErrors).
	// Hot read paths serve these without touching a model.
	Forecasts []core.Forecast
	// ForecastByID indexes Forecasts.
	ForecastByID map[string]core.Forecast
	// ForecastErrors records, per vehicle, why a forecast could not be
	// precomputed (e.g. a brand-new vehicle with less history than the
	// feature window, or a vehicle whose training failed).
	ForecastErrors map[string]string
	// FailedVehicles maps each vehicle whose training failed to its
	// error. The rest of the fleet trained and serves normally.
	FailedVehicles map[string]string
	// Models retains the trained per-vehicle models so the next
	// incremental build can carry clean vehicles forward without
	// retraining them. Reused models are shared pointers across
	// generations, so the steady-state memory cost is one live model
	// set — a swapped-out generation's exclusive models are released as
	// soon as its readers drain.
	Models map[string]ml.Regressor
	// Fingerprints are the per-vehicle series content hashes this
	// build trained against (core.Fingerprint); the next build compares
	// against them to decide which vehicles are dirty.
	Fingerprints map[string]uint64
	// DonorHash identifies the cold-start training inputs of this
	// build — the old vehicles' first cycles (core.TrainPlan.DonorHash).
	// The next build reuses semi-new and new vehicles, and the unified
	// model, while it is unchanged. Spills written before the field
	// existed decode it as 0.
	DonorHash uint64
	// PoolHash identifies the old-vehicle donor pool of this build by
	// full series content. It survives only as the reuse key for spills
	// that predate DonorHash.
	PoolHash uint64
	// ConfigHash fingerprints the predictor configuration this build
	// trained under (core.PredictorConfig.Hash). Restore refuses a
	// snapshot whose hash differs from the engine's — fingerprints
	// alone cannot see a config change, so reusing across one would
	// silently serve stale-config models.
	ConfigHash uint64
	// Reused counts the vehicles carried forward from the previous
	// generation; Retrained counts the vehicles trained (or failed)
	// this build. Reused+Retrained == len(Statuses).
	Reused, Retrained int
	// Generation counts successful builds, starting at 1.
	Generation uint64
	// BuiltAt is when the build finished; TrainDuration how long it
	// took.
	BuiltAt       time.Time
	TrainDuration time.Duration

	// respCache lazily memoizes marshaled per-vehicle response bytes
	// (vehicle ID → []byte). Living on the snapshot, every entry is
	// implicitly keyed by (generation, vehicle): the atomic snapshot
	// swap that publishes a retrain replaces the whole cache at once, so
	// stale bytes can never outlive their generation. The field is
	// unexported on purpose — gob-based persistence (internal/snapstore)
	// skips it, so a restored snapshot simply starts with a cold cache.
	respCache sync.Map

	// etag is the lazily formatted generation identifier (see ETag).
	// Lazy because Generation is stamped by the engine after the build,
	// and because gob restores skip unexported fields — a zero-value
	// Once simply reformats on first use.
	etagOnce sync.Once
	etag     string
	genID    string

	// fleetArtifacts holds the lazily built whole-fleet response bodies,
	// one atomic slot per FleetArtifact. Like respCache, the slots live
	// on the snapshot so the publish swap invalidates them wholesale.
	fleetArtifacts [numFleetArtifacts]atomic.Pointer[[]byte]

	// plans memoizes marshaled /fleet/plan bodies keyed by
	// (day, capacity, horizon, maxlead) — the generation key is implicit
	// in living on the snapshot. Guarded by planMu and bounded by
	// maxPlanCacheEntries.
	planMu sync.Mutex
	plans  map[string][]byte
}

// GenerationID returns a cheap identifier that is unique per published
// snapshot: the generation counter plus the build timestamp. The
// timestamp disambiguates generations across process restarts and
// cold retrains, where bare counters could repeat.
func (s *Snapshot) GenerationID() string {
	s.etagOnce.Do(func() {
		s.genID = "g" + strconv.FormatUint(s.Generation, 10) +
			"-" + strconv.FormatUint(uint64(s.BuiltAt.UnixNano()), 16)
		s.etag = `"` + s.genID + `"`
	})
	return s.genID
}

// ETag is GenerationID quoted as a strong HTTP entity tag.
func (s *Snapshot) ETag() string {
	s.GenerationID()
	return s.etag
}

// CachedFleetArtifact returns the memoized whole-fleet response body,
// if a serving path has built it under this snapshot already. The
// returned slice is shared and must not be mutated.
func (s *Snapshot) CachedFleetArtifact(a FleetArtifact) ([]byte, bool) {
	if p := s.fleetArtifacts[a].Load(); p != nil {
		return *p, true
	}
	return nil, false
}

// StoreFleetArtifact memoizes one whole-fleet response body and
// returns the canonical copy. First store wins: concurrent builders
// marshal the same immutable snapshot, so the losers' bytes are
// identical and simply dropped.
func (s *Snapshot) StoreFleetArtifact(a FleetArtifact, body []byte) []byte {
	if s.fleetArtifacts[a].CompareAndSwap(nil, &body) {
		return body
	}
	return *s.fleetArtifacts[a].Load()
}

// CachedPlan returns the memoized plan body for one parameter key.
func (s *Snapshot) CachedPlan(key string) ([]byte, bool) {
	s.planMu.Lock()
	defer s.planMu.Unlock()
	b, ok := s.plans[key]
	return b, ok
}

// StorePlan memoizes one plan body. Past maxPlanCacheEntries new keys
// are silently dropped — the caller already has the bytes to serve.
func (s *Snapshot) StorePlan(key string, body []byte) {
	s.planMu.Lock()
	defer s.planMu.Unlock()
	if s.plans == nil {
		s.plans = make(map[string][]byte)
	}
	if _, ok := s.plans[key]; !ok && len(s.plans) >= maxPlanCacheEntries {
		return
	}
	s.plans[key] = body
}

// CachedResponse returns the memoized response bytes for one vehicle,
// if a serving path has marshaled them under this snapshot already.
// The returned slice is shared and must not be mutated.
func (s *Snapshot) CachedResponse(id string) ([]byte, bool) {
	if v, ok := s.respCache.Load(id); ok {
		return v.([]byte), true
	}
	return nil, false
}

// StoreCachedResponse memoizes one vehicle's marshaled response bytes
// for the lifetime of this snapshot. Concurrent stores for the same
// vehicle are benign: every writer marshals the same immutable forecast,
// so whichever entry wins is byte-identical to the losers.
func (s *Snapshot) StoreCachedResponse(id string, body []byte) {
	s.respCache.Store(id, body)
}

// prior packages the snapshot's reusable outputs for the next
// incremental plan.
func (s *Snapshot) prior() *core.PriorGeneration {
	return &core.PriorGeneration{
		Fingerprints: s.Fingerprints,
		DonorHash:    s.DonorHash,
		PoolHash:     s.PoolHash,
		Statuses:     s.StatusByID,
		Models:       s.Models,
	}
}

// newSnapshot freezes a trained predictor: it precomputes every
// vehicle's forecast once so serving does no model math. Forecasts are
// recomputed even for reused vehicles — a model prediction per vehicle
// is trivial next to training — which keeps the bit-identical contract
// trivially true for the served payloads.
func newSnapshot(fp *core.FleetPredictor, statuses []core.VehicleStatus, models map[string]ml.Regressor, plan *core.TrainPlan, cfgHash uint64, trainDur time.Duration) *Snapshot {
	s := &Snapshot{
		Statuses:       statuses,
		StatusByID:     make(map[string]core.VehicleStatus, len(statuses)),
		ForecastByID:   make(map[string]core.Forecast, len(statuses)),
		ForecastErrors: make(map[string]string),
		FailedVehicles: make(map[string]string),
		Models:         models,
		Fingerprints:   plan.Fingerprints,
		DonorHash:      plan.DonorHash,
		PoolHash:       plan.PoolHash,
		ConfigHash:     cfgHash,
		Reused:         len(plan.Reused),
		Retrained:      len(plan.Tasks),
		BuiltAt:        time.Now(),
		TrainDuration:  trainDur,
	}
	for _, st := range statuses {
		s.StatusByID[st.ID] = st
		if st.Err != "" {
			s.FailedVehicles[st.ID] = st.Err
			s.ForecastErrors[st.ID] = "training failed: " + st.Err
			continue
		}
		f, err := fp.Predict(st.ID)
		if err != nil {
			s.ForecastErrors[st.ID] = err.Error()
			continue
		}
		s.Forecasts = append(s.Forecasts, f)
		s.ForecastByID[st.ID] = f
	}
	return s
}
