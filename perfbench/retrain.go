package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/ml"
	"repro/internal/obs"
)

// incrPerFull is how many incremental retrains follow each full one.
const incrPerFull = 8

// retrainEnv is the retrain workload's system: the mixed-age fleet in
// an in-memory store and an engine trained on it. Nothing serves.
type retrainEnv struct {
	fleet *benchFleet
	store *ingest.Store
	eng   *engine.Engine
	snap  *engine.Snapshot
	// full is the engine's RetrainFull; tests swap in a failing one.
	full func(context.Context, []engine.Vehicle) (*engine.Snapshot, error)
}

func setupRetrain(r *run) (*retrainEnv, error) {
	f, err := genFleet()
	if err != nil {
		return nil, err
	}
	store := ingest.New(0)
	if _, err := store.SeedFromFleet(f.seedFleet(func(v *benchVehicle) int { return v.seedDays })); err != nil {
		return nil, err
	}
	eng, err := engine.New(r.engineConfig())
	if err != nil {
		return nil, err
	}
	vehicles, err := store.Fleet(r.ctx)
	if err != nil {
		return nil, err
	}
	snap, err := eng.RetrainFull(r.ctx, vehicles)
	if err != nil {
		return nil, err
	}
	if err := checkCategories(snap); err != nil {
		return nil, err
	}
	return &retrainEnv{fleet: f, store: store, eng: eng, snap: snap, full: eng.RetrainFull}, nil
}

// checkCategories asserts the set-up fleet has old, semi-new and new
// vehicles, so the cold-start layer is exercised.
func checkCategories(snap *engine.Snapshot) error {
	seen := map[core.Category]int{}
	for _, st := range snap.Statuses {
		seen[st.Category]++
	}
	for _, c := range []core.Category{core.Old, core.SemiNew, core.New} {
		if seen[c] == 0 {
			return fmt.Errorf("fleet has no %s vehicle (categories %v)", c, seen)
		}
	}
	return nil
}

// engineScrape renders the engine's training metrics (stage and model
// histograms plus the ml histogram-engine counters) for deltas.
func engineScrape(eng *engine.Engine) scrape {
	var w obs.TextWriter
	eng.Metrics().Write(&w)
	s, err := parseScrape(w.String())
	if err != nil {
		panic("perfbench: engine metrics do not parse: " + err.Error())
	}
	return s
}

// fleetTimer is a Store.Fleet call made by the benchmark, timed and
// traced while the traced phase runs.
type fleetTimer struct {
	total time.Duration
	calls int
}

func (ft *fleetTimer) fetch(ctx context.Context, st *spanStack, store *ingest.Store) ([]engine.Vehicle, error) {
	t0 := time.Now()
	tr := st.begin("ingest", "Store.Fleet", 0)
	vs, err := store.Fleet(ctx)
	if tr {
		st.end()
		ft.total += time.Since(t0)
		ft.calls++
	}
	return vs, err
}

// report records ingest.fleet_s, the mean traced call.
func (ft *fleetTimer) report(r *run) {
	if ft.calls > 0 {
		r.rep.set("ingest.fleet_s", ft.total.Seconds()/float64(ft.calls), "s", ft.calls)
	}
}

func runRetrain(r *run) error {
	env, err := medianSetup(r, func() (*retrainEnv, error) { return setupRetrain(r) }, func(*retrainEnv) {})
	if err != nil {
		return err
	}
	return measureRetrain(r, env)
}

// measureRetrain runs the measured phase of the retrain workload on a
// set-up environment.
func measureRetrain(r *run, env *retrainEnv) error {
	r.startMeasured()
	st := r.tr.stack()
	rot := env.fleet.rotation(r.opts.seed)
	next := make(map[string]int, len(rot))
	for _, v := range rot {
		next[v.id] = v.seedDays
	}

	untracedFor, tracedFor := r.phases()
	var (
		full, incr       samples // untraced phase
		fullTr, incrTr   samples // traced phase
		lastIncr         *engine.Snapshot
		prev             = env.snap
		turn             int
		req              uint64
		before           phaseBaseline
		fullStageSum     float64
		fullWallTraced   float64
		retrainedByCat   = map[string]int{}
		retrains, reused int
		retrainedTotal   int
		fleet            fleetTimer
	)
	start := time.Now()
	deadline := start.Add(untracedFor + tracedFor)
	observe := func(snap *engine.Snapshot) {
		if !r.tr.enabled() {
			prev = snap
			return
		}
		retrains++
		reused += snap.Reused
		retrainedTotal += snap.Retrained
		for cat, n := range modelChanges(prev, snap) {
			retrainedByCat[cat] += n
		}
		prev = snap
	}

	// maybeTrace starts the traced phase once the untraced one is over.
	maybeTrace := func() {
		if r.opts.trace && !r.tr.enabled() && time.Since(start) >= untracedFor {
			before = takeBaseline(env.eng, env.store)
			before.ops = r.attempted.Load()
			r.tr.on.Store(true)
		}
	}
	for time.Now().Before(deadline) || lastIncr != nil {
		maybeTrace()
		tracing := r.tr.enabled()
		req++

		// One full retrain; it closes the previous incremental series.
		root := st.begin("bench", "full-cycle", req)
		vehicles, err := fleet.fetch(r.ctx, st, env.store)
		if err != nil {
			return err
		}
		var s0 scrape
		if tracing {
			s0 = engineScrape(env.eng)
		}
		tr := st.begin("engine", "RetrainFull", 0)
		t0 := time.Now()
		snap, err := env.full(r.ctx, vehicles)
		d := time.Since(t0)
		if tr {
			st.end()
		}
		r.op(err == nil)
		if err != nil {
			// The run has failed; later full retrains would fail the
			// same way, and gate (a) has nothing to compare against.
			r.gate(fmt.Errorf("RetrainFull: %w", err))
			if root {
				st.end()
			}
			break
		}
		if tracing {
			s1 := engineScrape(env.eng)
			sum := 0.0
			for _, stg := range stages {
				sum += delta(s0, s1, "fleet_train_stage_seconds_sum", "stage", stg)
			}
			fullStageSum += sum
			fullWallTraced += d.Seconds()
			fullTr = append(fullTr, d)
		} else {
			full = append(full, d)
		}
		if lastIncr != nil {
			r.gate(sameOutputs(lastIncr, snap))
			lastIncr = nil
		}
		observe(snap)
		env.snap = snap
		if root {
			st.end()
		}
		if !time.Now().Before(deadline) {
			break
		}

		// A series of incremental retrains, each after one vehicle's
		// next day lands in the store.
		for k := 0; k < incrPerFull && time.Now().Before(deadline); k++ {
			maybeTrace()
			v := rot[turn%len(rot)]
			turn++
			day := next[v.id]
			next[v.id]++
			req++
			root := st.begin("bench", "incremental", req)
			tr := st.begin("ingest", "Store.UpsertBatch", 0)
			res, err := env.store.UpsertBatch([]ingest.Report{v.report(day)})
			if tr {
				st.end()
			}
			if err != nil || res.Accepted != 1 {
				r.op(false)
				if root {
					st.end()
				}
				continue
			}
			t0 := time.Now()
			vehicles, err := fleet.fetch(r.ctx, st, env.store)
			if err != nil {
				return err
			}
			tr = st.begin("engine", "Retrain", 0)
			snap, err := env.eng.Retrain(r.ctx, vehicles)
			if tr {
				st.end()
			}
			d := time.Since(t0)
			ok := err == nil && snap.ForecastByID[v.id].AsOfDay == day
			r.op(ok)
			if err == nil {
				if r.tr.enabled() {
					incrTr = append(incrTr, d)
				} else {
					incr = append(incr, d)
				}
				observe(snap)
				lastIncr = snap
				env.snap = snap
			}
			if root {
				st.end()
			}
		}
	}
	st.flush()
	if err := r.endMeasured(); err != nil {
		return err
	}

	if len(full) == 0 && len(r.gateErrs) > 0 {
		return r.gateErrs[0]
	}
	if r.opts.trace && !r.tr.enabled() {
		return fmt.Errorf("run too short: the traced half never started")
	}
	if r.opts.trace {
		retrainLayerMetrics(r, env, before)
		r.rep.set("engine.retrains", float64(retrains), "count", retrains)
		r.rep.set("engine.retrained", float64(retrainedTotal), "count", retrains)
		r.rep.set("engine.reused", float64(reused), "count", retrains)
		for _, c := range categories {
			r.rep.set("core.retrained."+c, float64(retrainedByCat[c]), "count", retrains)
		}
		fleet.report(r)
		if n := len(fullTr); n > 0 {
			r.rep.set("engine.full_stage_sum_s", fullStageSum/float64(n), "s", n)
			r.rep.set("engine.full_residual_s", (fullWallTraced-fullStageSum)/float64(n), "s", n)
		}
		overhead(r, incr, incrTr)
		full, incr = append(full, fullTr...), append(incr, incrTr...)
	}
	if len(full) == 0 || len(incr) == 0 {
		return fmt.Errorf("run too short: %d full and %d incremental retrains", len(full), len(incr))
	}
	mre, n := meanOldMRE(env.snap)
	r.rep.set("core.validation_mre", mre, "ratio", n)
	r.rep.set("core.failed_vehicles", float64(len(env.snap.FailedVehicles)), "count", len(env.snap.Statuses))
	r.rep.set("validation_mre", mre, "ratio", n)
	r.rep.latency("full_retrain_s", full, 0.5, "s")
	r.rep.latency("incr_retrain_s", incr, 0.5, "s")
	// About 55 incremental retrains fit a 20 s run: the p80 is the
	// highest percentile with ten samples beyond it.
	r.rep.latency("incr_retrain_p80_s", incr, 0.8, "s")

	r.rep.latency("primary_ms", incr, 0.5, "ms")
	r.rep.latency("secondary_ms", full, 0.5, "ms")
	return nil
}

// meanOldMRE is the mean validation MRE over the old vehicles of a
// snapshot, the model-quality check on the final full train.
func meanOldMRE(snap *engine.Snapshot) (float64, int) {
	sum, n := 0.0, 0
	for _, st := range snap.Statuses {
		if st.Category == core.Old && st.Err == "" && !math.IsNaN(st.ValidationMRE) {
			sum += st.ValidationMRE
			n++
		}
	}
	if n == 0 {
		return math.NaN(), 0
	}
	return sum / float64(n), n
}

// modelChanges counts, per category, the vehicles whose model pointer
// differs between two snapshots: the vehicles the later build trained.
func modelChanges(prev, next *engine.Snapshot) map[string]int {
	out := map[string]int{}
	for id, m := range next.Models {
		if prev != nil && prev.Models[id] == m {
			continue
		}
		out[next.StatusByID[id].Category.String()]++
	}
	return out
}

// phaseBaseline is the process state a traced phase's deltas start
// from.
type phaseBaseline struct {
	eng     scrape
	hist    ml.HistStats
	store   ingest.Stats
	runtime runtimeSample
	peak    *peakSampler // the traced phase's peak heap
	ops     int64
}

func takeBaseline(eng *engine.Engine, store *ingest.Store) phaseBaseline {
	b := phaseBaseline{hist: ml.HistStatsSnapshot(), runtime: readRuntime(), peak: startPeakSampler()}
	if eng != nil {
		b.eng = engineScrape(eng)
	}
	if store != nil {
		b.store = store.Stats()
	}
	return b
}

// retrainLayerMetrics reports the training-side per-layer deltas over
// the traced phase: engine stages, core model families, ml histogram
// work, prepared-series cache and runtime.
func retrainLayerMetrics(r *run, env *retrainEnv, b phaseBaseline) {
	trainingLayerMetrics(r, env.eng, b)
	if env.store != nil {
		after := env.store.Stats()
		r.rep.set("ingest.prep_hits", float64(after.PrepCacheHits-b.store.PrepCacheHits), "count", 1)
		r.rep.set("ingest.prep_misses", float64(after.PrepCacheMisses-b.store.PrepCacheMisses), "count", 1)
	}
	runtimeLayerMetrics(r, b, r.attempted.Load()-b.ops)
}

// trainingLayerMetrics reports the engine stage, core family and ml
// histogram deltas since the baseline.
func trainingLayerMetrics(r *run, eng *engine.Engine, b phaseBaseline) {
	after := engineScrape(eng)
	for _, stg := range stages {
		v := delta(b.eng, after, "fleet_train_stage_seconds_sum", "stage", stg)
		n := delta(b.eng, after, "fleet_train_stage_seconds_count", "stage", stg)
		r.rep.set("engine.stage."+stg+"_s", v, "s", int(n))
	}
	for _, a := range algorithms {
		for _, kind := range []string{"search", "fit"} {
			v := delta(b.eng, after, "fleet_train_model_seconds_sum", "family", a, "stage", kind)
			n := delta(b.eng, after, "fleet_train_model_seconds_count", "family", a, "stage", kind)
			r.rep.set("core."+kind+"_s."+a, v, "s", int(n))
		}
	}
	h := ml.HistStatsSnapshot()
	r.rep.set("ml.hist_fill_rows", float64(h.FillRows-b.hist.FillRows), "count", 1)
	r.rep.set("ml.hist_sweep_cells", float64(h.SweepCells-b.hist.SweepCells), "count", 1)
	r.rep.set("ml.hist_subtract_cells", float64(h.SubtractCells-b.hist.SubtractCells), "count", 1)
	r.rep.set("ml.hist_direct_nodes", float64(h.DirectNodes-b.hist.DirectNodes), "count", 1)
	r.rep.set("ml.hist_derived_nodes", float64(h.DerivedNodes-b.hist.DerivedNodes), "count", 1)
}

// runtimeLayerMetrics reports allocations per op, GC pause and the
// peak live heap over the traced phase.
func runtimeLayerMetrics(r *run, b phaseBaseline, ops int64) {
	rt := readRuntime()
	// A failed RSS read fails the run through its own sampler.
	_, heap, _ := b.peak.finish()
	if ops < 1 {
		ops = 1
	}
	r.rep.set("runtime.allocs_per_op", float64(rt.allocs-b.runtime.allocs)/float64(ops), "count", int(ops))
	r.rep.set("runtime.gc_pause_s", float64(rt.pauseNs-b.runtime.pauseNs)/1e9, "s", 1)
	r.rep.set("runtime.heap_peak_mb", heap, "MB", 1)
}

// overhead reports how much slower the traced phase ran the headline
// operation than the untraced phase, by medians.
func overhead(r *run, untraced, traced samples) {
	if len(untraced) == 0 || len(traced) == 0 {
		return
	}
	u, t := untraced.quantile(0.5), traced.quantile(0.5)
	r.rep.set("bench.trace_overhead_pct", 100*(float64(t)-float64(u))/float64(u), "%", len(traced))
}
