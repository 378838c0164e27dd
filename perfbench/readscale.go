package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/serve"
)

// Read-scale shape: a 10k-vehicle fleet on 3 in-process shards behind a
// router, read by a closed loop of 2 clients.
const (
	readVehicles = 10_000
	readShards   = 3
	readClients  = 2
	// readFailedShare of the synthetic vehicles carry a training
	// failure, so fleet-wide reads serve an errors map as production
	// does. Per-vehicle reads never ask for them.
	readFailedShare = 0.002
	// scheduleLen is the length of each client's request sequence; a
	// client that gets through it starts over. It is a power of two.
	scheduleLen = 1 << 20
	// planZipf skews plan parameters (an assumption, see README.md):
	// about a tenth of plan requests fall outside the 128 most popular
	// keys.
	planZipf = 1.3
	// checkPerKind responses per client and request kind are kept, by
	// reservoir sampling over the run, for gate (b). Captured requests
	// are left out of the latency samples.
	checkPerKind = 24
	// latencyCap latencies per client, request kind and phase are kept,
	// by reservoir sampling over the run, so the harness's memory does
	// not grow with the throughput it measures.
	latencyCap = 1 << 16
)

// Request kinds of the read mix, with their shares.
const (
	kindForecast = iota
	kindFleetForecast
	kindVehicles
	kindPlan
	numKinds
)

var kindNames = [numKinds]string{"forecast", "fleet_forecast", "vehicles", "plan"}

// readSpans names each kind's root span, built once so an untraced
// request allocates nothing for tracing.
var readSpans = [numKinds]string{"read.forecast", "read.fleet_forecast", "read.vehicles", "read.plan"}

// mixShare is the share of each kind in the read mix: the 80/15/5
// per-vehicle/fleet/plan default of `fleetgen soak -read`, with the
// fleet-wide share split evenly between the two fleet-wide routes.
var mixShare = [numKinds]float64{0.80, 0.075, 0.075, 0.05}

// conditionalShare of per-vehicle and fleet-wide reads are If-None-Match
// polls, 47.5% of the mix. Plans are never conditional: a planner asks
// for a fresh schedule.
const conditionalShare = 0.5

// readEnv is the read-scale system: 3 shard servers behind a router,
// each holding its ring-owned slice of one synthetic generation.
type readEnv struct {
	ring    *cluster.Ring
	router  *serve.Router
	shards  []*serve.Server
	owned   map[string]int
	ids     []string
	healthy []string
	tags    map[string]string // route path → ETag a polling client holds
}

// readFleet is the synthetic generation every shard and the reference
// server restore: same generation number and build time everywhere, so
// per-vehicle entity tags agree across them.
type readFleet struct {
	ids      []string
	statuses map[string]core.VehicleStatus
	fc       map[string]core.Forecast
	failed   map[string]string
	builtAt  time.Time
}

// genReadFleet derives the synthetic generation from the seed. Due
// dates are placed relative to the current UTC day, so /fleet/plan
// (which schedules from today) sees the same shape on any date.
func genReadFleet(seed uint64) *readFleet {
	r := rng.New(seed ^ 0xa0761d6478bd642f)
	today := time.Now().UTC().Truncate(24 * time.Hour)
	f := &readFleet{
		statuses: make(map[string]core.VehicleStatus, readVehicles),
		fc:       make(map[string]core.Forecast, readVehicles),
		failed:   make(map[string]string),
		builtAt:  time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(r.Intn(1<<30)) * time.Millisecond),
	}
	algs := core.TrainedAlgorithms()
	for i := 0; i < readVehicles; i++ {
		id := fmt.Sprintf("r%05d", i+1)
		f.ids = append(f.ids, id)
		st := core.VehicleStatus{ID: id, Category: core.Old, Strategy: "per-vehicle", Algorithm: algs[r.Intn(len(algs))], ValidationMRE: r.Range(0.05, 0.6)}
		switch u := r.Float64(); {
		case u < 0.1:
			st.Category, st.Strategy, st.Algorithm, st.ValidationMRE = core.New, "unified", core.XGB, math.NaN()
		case u < 0.25:
			st.Category, st.Strategy, st.Algorithm, st.ValidationMRE = core.SemiNew, "similarity", core.XGB, math.NaN()
			st.Donor = fmt.Sprintf("r%05d", 1+r.Intn(readVehicles))
		}
		if r.Float64() < readFailedShare {
			st.Err = "synthetic training failure"
			f.failed[id] = st.Err
		}
		f.statuses[id] = st
		days := r.Range(0, 400)
		f.fc[id] = core.Forecast{
			VehicleID: id,
			AsOfDay:   30 + r.Intn(1700),
			DaysLeft:  days,
			DueDate:   today.AddDate(0, 0, int(math.Round(days))-30),
			Category:  st.Category,
			Strategy:  st.Strategy,
		}
	}
	return f
}

// snapshot builds one shard's (or the whole fleet's) snapshot of the
// synthetic generation over the given IDs, which must be sorted.
func (f *readFleet) snapshot(cfg engine.Config, ids []string) *engine.Snapshot {
	s := &engine.Snapshot{
		StatusByID:     make(map[string]core.VehicleStatus, len(ids)),
		ForecastByID:   make(map[string]core.Forecast, len(ids)),
		ForecastErrors: make(map[string]string),
		FailedVehicles: make(map[string]string),
		Generation:     1,
		BuiltAt:        f.builtAt,
		ConfigHash:     cfg.Predictor.Hash(),
		Retrained:      len(ids),
	}
	for _, id := range ids {
		st := f.statuses[id]
		s.Statuses = append(s.Statuses, st)
		s.StatusByID[id] = st
		if st.Err != "" {
			s.FailedVehicles[id] = st.Err
			s.ForecastErrors[id] = "training failed: " + st.Err
			continue
		}
		s.Forecasts = append(s.Forecasts, f.fc[id])
		s.ForecastByID[id] = f.fc[id]
	}
	return s
}

// restoredServer wraps a snapshot in a fresh engine and server.
func restoredServer(r *run, snap *engine.Snapshot) (*serve.Server, error) {
	eng, err := engine.New(r.engineConfig())
	if err != nil {
		return nil, err
	}
	if err := eng.Restore(snap); err != nil {
		return nil, err
	}
	return serve.NewWithOptions(eng, serve.Options{Logger: r.logger})
}

func setupReadScale(r *run, f *readFleet) (*readEnv, error) {
	names := cluster.ShardNames(readShards)
	ring, err := cluster.NewRingOf(0, names...)
	if err != nil {
		return nil, err
	}
	env := &readEnv{ring: ring, owned: make(map[string]int), ids: f.ids, tags: make(map[string]string)}
	byShard := make(map[string][]string)
	for _, id := range f.ids {
		owner := ring.Owner(id)
		byShard[owner] = append(byShard[owner], id)
		env.owned[owner]++
		if f.statuses[id].Err == "" {
			env.healthy = append(env.healthy, id)
		}
	}
	cfg := r.engineConfig()
	var backends []serve.ShardBackend
	for _, name := range names {
		srv, err := restoredServer(r, f.snapshot(cfg, byShard[name]))
		if err != nil {
			return nil, err
		}
		env.shards = append(env.shards, srv)
		backends = append(backends, serve.ShardBackend{Name: name, Handler: srv})
	}
	env.router, err = serve.NewRouter(ring, backends, serve.RouterOptions{DisableIngest: true, Logger: r.logger})
	if err != nil {
		return nil, err
	}
	// Warm-up: every per-vehicle response and both fleet-wide bodies
	// are built once, as a serving cluster's would be.
	w := newRespWriter()
	for _, id := range env.healthy {
		if err := env.warm(w, "/vehicles/"+id+"/forecast"); err != nil {
			return nil, err
		}
	}
	for _, path := range []string{"/fleet/forecast", "/vehicles"} {
		if err := env.warm(w, path); err != nil {
			return nil, err
		}
	}
	return env, nil
}

// warm issues one GET through the router and remembers its entity tag.
func (e *readEnv) warm(w *respWriter, path string) error {
	req, err := http.NewRequest(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	w.reset(false)
	e.router.ServeHTTP(w, req)
	if w.status != http.StatusOK {
		return fmt.Errorf("warm-up GET %s: status %d", path, w.status)
	}
	key := path
	if strings.HasPrefix(path, "/vehicles/") {
		key = "vehicle"
	}
	e.tags[key] = w.header.Get("ETag")
	return nil
}

// zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	total := 0.0
	for i := range z.cdf {
		total += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = total
	}
	for i := range z.cdf {
		z.cdf[i] /= total
	}
	return z
}

func (z *zipf) draw(r *rng.Source) int {
	return sort.SearchFloat64s(z.cdf, r.Float64())
}

// planKeys is the plan parameter space clients draw from, most popular
// first: 8 capacities × 12 horizons × 8 lead limits = 768 keys, six
// times the 128-entry plan caches, so misses show. The popularity order
// is part of the workload, not of the seed, so every seed asks for
// equally costly plans.
func planKeys() []string {
	var out []string
	for c := 1; c <= 8; c++ {
		for h := 30; h <= 360; h += 30 {
			for l := 0; l < 8; l++ {
				out = append(out, "capacity="+strconv.Itoa(c)+"&horizon="+strconv.Itoa(h)+"&maxlead="+strconv.Itoa(l))
			}
		}
	}
	rng.New(0x27d4eb2f165667c5).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// readPool is one client's requests. Each kind reuses one
// *http.Request whose path or query and header set are swapped in
// before each send, so the harness keeps no per-vehicle request objects
// for the garbage collector to trace while the server is measured.
type readPool struct {
	paths []string // forecast path of each healthy vehicle
	keys  []string // plan query strings, most popular first
	reqs  [numKinds]*http.Request
	plain http.Header
	cond  [numKinds]http.Header // If-None-Match with the tag the client holds
}

func (e *readEnv) buildPool() (*readPool, error) {
	p := &readPool{keys: planKeys(), plain: http.Header{}}
	for _, id := range e.healthy {
		p.paths = append(p.paths, "/vehicles/"+id+"/forecast")
	}
	for kind, path := range [numKinds]string{p.paths[0], "/fleet/forecast", "/vehicles", "/fleet/plan?" + p.keys[0]} {
		req, err := http.NewRequest(http.MethodGet, path, nil)
		if err != nil {
			return nil, err
		}
		p.reqs[kind] = req
	}
	for kind, tag := range [numKinds]string{e.tags["vehicle"], e.tags["/fleet/forecast"], e.tags["/vehicles"], ""} {
		if tag != "" {
			p.cond[kind] = http.Header{"If-None-Match": {tag}}
		}
	}
	return p, nil
}

// A schedule entry packs the request kind (2 bits), whether it is
// conditional (1 bit) and the vehicle or plan-key index.
const (
	entryKindShift = 30
	entryCond      = 1 << 29
	entryIndex     = entryCond - 1
)

// prepare readies the kind's request for one schedule entry.
func (p *readPool) prepare(entry uint32) (*http.Request, int, bool) {
	kind, cond, idx := int(entry>>entryKindShift), entry&entryCond != 0, entry&entryIndex
	req := p.reqs[kind]
	switch kind {
	case kindForecast:
		req.URL.Path = p.paths[idx]
	case kindPlan:
		req.URL.RawQuery = p.keys[idx]
	}
	req.Header = p.plain
	if cond {
		req.Header = p.cond[kind]
	}
	return req, kind, cond
}

// buildSchedule draws one client's request sequence from the seed:
// vehicles uniformly, as `fleetgen soak -read` spreads its reads over
// the fleet, skewed plan parameters, and half the non-plan reads
// conditional on the tag the client already holds.
func (e *readEnv) buildSchedule(p *readPool, seed uint64, client int) []uint32 {
	r := rng.New(seed ^ uint64(client+1)*0x9e3779b97f4a7c15)
	pz := newZipf(len(p.keys), planZipf)

	out := make([]uint32, scheduleLen)
	for i := range out {
		u, kind := r.Float64(), 0
		for kind < numKinds-1 && u >= mixShare[kind] {
			u -= mixShare[kind]
			kind++
		}
		entry := uint32(kind) << entryKindShift
		if kind != kindPlan && r.Float64() < conditionalShare {
			entry |= entryCond
		}
		switch kind {
		case kindForecast:
			entry |= uint32(r.Intn(len(p.paths)))
		case kindPlan:
			entry |= uint32(pz.draw(r))
		}
		out[i] = entry
	}
	return out
}

// readSample is one captured router response, checked against the
// reference server after the run (gate b). The body is kept as its
// digest, so the captures do not hold fleet-wide bodies in memory.
type readSample struct {
	path        string
	conditional bool
	sentTag     string
	status      int
	etag        string
	body        bodyDigest
	day         string
}

// bodyDigest identifies a response body by length and SHA-256.
type bodyDigest struct {
	size int
	sum  [sha256.Size]byte
}

func digest(b []byte) bodyDigest { return bodyDigest{size: len(b), sum: sha256.Sum256(b)} }

// clientResult is one client's measurements.
type clientResult struct {
	lat      [numKinds]*latencies
	latTr    [numKinds]*latencies
	ops      int64
	failed   int64
	checks   [numKinds]reservoir
	mismatch []error
}

func newClientResult() *clientResult {
	res := &clientResult{}
	for k := range res.lat {
		res.lat[k], res.latTr[k] = newLatencies(), newLatencies()
	}
	return res
}

// latencies is a uniform sample (reservoir sampling) of up to
// latencyCap values of one latency series. Its storage is written when
// it is made, before the measured phase.
type latencies struct {
	buf  samples
	seen int
}

func newLatencies() *latencies {
	l := &latencies{buf: make(samples, latencyCap)}
	for i := range l.buf {
		l.buf[i] = -1 // touch every page now
	}
	return l
}

func (l *latencies) add(d time.Duration, r *rng.Source) {
	if l.seen < len(l.buf) {
		l.buf[l.seen] = d
	} else if j := r.Intn(l.seen + 1); j < len(l.buf) {
		l.buf[j] = d
	}
	l.seen++
}

// kept is the sample.
func (l *latencies) kept() samples { return l.buf[:min(l.seen, len(l.buf))] }

// reservoir keeps a uniform sample of up to checkPerKind responses.
type reservoir struct {
	seen  int
	items []readSample
}

// slot decides whether the next response is captured and where it
// goes.
func (v *reservoir) slot(r *rng.Source) (int, bool) {
	v.seen++
	if len(v.items) < checkPerKind {
		v.items = append(v.items, readSample{})
		return len(v.items) - 1, true
	}
	if j := r.Intn(v.seen); j < checkPerKind {
		return j, true
	}
	return 0, false
}

// runClient drives one closed-loop client until the deadline. Tracing
// turns on at traceAt (zero: never).
func (e *readEnv) runClient(r *run, pool *readPool, sched []uint32, res *clientResult, traceAt, deadline time.Time) {
	st := r.tr.stack()
	w := newRespWriter()
	pick := rng.New(r.opts.seed ^ uint64(len(sched)))
	var req uint64
	for i := 0; ; i++ {
		hreq, kind, conditional := pool.prepare(sched[i&(scheduleLen-1)])
		slot, capture := res.checks[kind].slot(pick)
		w.reset(capture)
		req++
		t0 := time.Now()
		root := st.begin("bench", readSpans[kind], req)
		inner := st.begin("router", "Router.ServeHTTP", 0)
		e.router.ServeHTTP(w, hreq)
		if inner {
			st.end()
		}
		if root {
			st.end()
		}
		d := time.Since(t0)
		res.ops++
		want := http.StatusOK
		if conditional {
			want = http.StatusNotModified
		}
		if !w.ok() {
			res.failed++
		} else if w.status != want {
			res.mismatch = append(res.mismatch, fmt.Errorf("gate (b): %s (conditional=%v) answered %d, want %d", hreq.URL, conditional, w.status, want))
		}
		switch {
		case capture:
			_, day := planDayNow()
			res.checks[kind].items[slot] = readSample{
				path: hreq.URL.String(), conditional: conditional, sentTag: hreq.Header.Get("If-None-Match"),
				status: w.status, etag: w.header.Get("ETag"), body: digest(w.body.Bytes()), day: day,
			}
		case root:
			res.latTr[kind].add(d, pick)
		default:
			res.lat[kind].add(d, pick)
		}
		now := t0.Add(d)
		if !traceAt.IsZero() && !r.tr.enabled() && !now.Before(traceAt) {
			// Both clients race to flip the flag; either is fine.
			r.tr.on.Store(true)
		}
		if !now.Before(deadline) {
			break
		}
	}
	st.flush()
}

// planDayNow is the UTC day plan responses are scheduled from.
func planDayNow() (time.Time, string) {
	now := time.Now().UTC().Truncate(24 * time.Hour)
	return now, now.Format("2006-01-02")
}

func runReadScale(r *run) error {
	f := genReadFleet(r.opts.seed)
	env, err := medianSetup(r, func() (*readEnv, error) { return setupReadScale(r, f) }, func(*readEnv) {})
	if err != nil {
		return err
	}
	// The reference for gate (b): one unsharded server over the same
	// generation. Built after set-up, it is the checker, not the system;
	// built before the measured phase, its memory is in the baseline.
	ref, err := restoredServer(r, f.snapshot(r.engineConfig(), f.ids))
	if err != nil {
		return err
	}
	pools := make([]*readPool, readClients)
	scheds := make([][]uint32, readClients)
	results := make([]*clientResult, readClients)
	for c := range scheds {
		if pools[c], err = env.buildPool(); err != nil {
			return err
		}
		scheds[c] = env.buildSchedule(pools[c], r.opts.seed, c)
		results[c] = newClientResult()
	}
	// Plan warm-up in popularity order: the bounded plan caches hold
	// the most asked-for keys, as a long-running cluster's would.
	w := newRespWriter()
	for i := uint32(0); i < 128; i++ {
		req, _, _ := pools[0].prepare(kindPlan<<entryKindShift | i)
		w.reset(false)
		env.router.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			return fmt.Errorf("plan warm-up %s: status %d", req.URL, w.status)
		}
	}

	r.startMeasured()
	untracedFor, tracedFor := r.phases()
	start := time.Now()
	deadline := start.Add(untracedFor + tracedFor)
	var traceAt time.Time
	var before readBaseline
	if r.opts.trace {
		traceAt = start.Add(untracedFor)
	}
	var wg sync.WaitGroup
	if r.opts.trace {
		// The baseline for the traced phase's deltas is taken by a
		// helper at traceAt, so neither client pauses for it.
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Until(traceAt))
			before = takeReadBaseline(env)
		}()
	}
	for c := 0; c < readClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			env.runClient(r, pools[c], scheds[c], results[c], traceAt, deadline)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := r.endMeasured(); err != nil {
		return err
	}

	var lat, latTr [numKinds]samples
	var ops, tracedOps int64
	for _, res := range results {
		for k := 0; k < numKinds; k++ {
			lat[k] = append(lat[k], res.lat[k].kept()...)
			latTr[k] = append(latTr[k], res.latTr[k].kept()...)
			tracedOps += int64(res.latTr[k].seen)
		}
		ops += res.ops
		r.attempted.Add(res.ops)
		r.failed.Add(res.failed)
		for _, e := range res.mismatch {
			r.gate(e)
		}
		for k := range res.checks {
			for _, s := range res.checks[k].items {
				r.gate(checkReadSample(env, ref, s))
			}
		}
	}

	if r.opts.trace {
		readLayerMetrics(r, env, before, tracedOps)
		overhead(r, lat[kindForecast], latTr[kindForecast])
		for k := 0; k < numKinds; k++ {
			lat[k] = append(lat[k], latTr[k]...)
		}
	}
	fleet := append(append(samples(nil), lat[kindFleetForecast]...), lat[kindVehicles]...)
	r.rep.latency("forecast_p50_us", lat[kindForecast], 0.5, "us")
	r.rep.latency("forecast_p95_us", lat[kindForecast], 0.95, "us")
	r.rep.latency("forecast_p99_us", lat[kindForecast], 0.99, "us")
	r.rep.latency("fleet_read_p50_us", fleet, 0.5, "us")
	r.rep.latency("fleet_read_p99_us", fleet, 0.99, "us")
	r.rep.latency("plan_p99_us", lat[kindPlan], 0.99, "us")
	r.rep.set("reads_per_s", float64(ops)/elapsed.Seconds(), "req/s", int(ops))
	r.rep.set("core.failed_vehicles", float64(len(f.failed)), "count", len(f.ids))

	// The p95 is the bounded one: the p99 sits in the tail that
	// collections and the other client's plan builds set, and moved
	// several times as much between runs of the same code.
	r.rep.latency("primary_ms", lat[kindForecast], 0.95, "ms")
	r.rep.latency("secondary_ms", lat[kindPlan], 0.99, "ms")
	for k := 0; k < numKinds; k++ {
		if lat[k].beyond(0.99) < 10 {
			r.note("%d %s reads leave fewer than 10 beyond the p99", len(lat[k]), kindNames[k])
		}
	}
	return nil
}

// readBaseline is the state the traced phase's read-path deltas start
// from: each shard's and the router's own /metrics.
type readBaseline struct {
	phaseBaseline
	shards []scrape
	router scrape
}

func takeReadBaseline(env *readEnv) readBaseline {
	b := readBaseline{phaseBaseline: takeBaseline(nil, nil)}
	for _, s := range env.shards {
		sc, err := scrapeHandler(s)
		if err != nil {
			panic("perfbench: shard /metrics: " + err.Error())
		}
		b.shards = append(b.shards, sc)
	}
	sc, err := scrapeHandler(env.router)
	if err != nil {
		panic("perfbench: router /metrics: " + err.Error())
	}
	b.router = sc
	return b
}

// serveCounters are the per-server read-path counters, summed over
// servers, as per-layer metric name → /metrics series names.
var serveCounters = map[string][]string{
	"serve.response_cache_hits":   {"fleet_response_cache_hits"},
	"serve.response_cache_misses": {"fleet_response_cache_misses"},
	"serve.fleet_cache_hits":      {"fleet_fleet_forecast_cache_hits", "fleet_vehicles_cache_hits"},
	"serve.fleet_cache_misses":    {"fleet_fleet_forecast_cache_misses", "fleet_vehicles_cache_misses"},
	"serve.plan_cache_hits":       {"fleet_plan_cache_hits"},
	"serve.plan_cache_misses":     {"fleet_plan_cache_misses"},
	"serve.not_modified":          {"fleet_http_not_modified_total"},
}

// routerCounters are the router's own read-path counters.
var routerCounters = map[string]string{
	"router.merge_cache_hits":          "fleet_router_merge_cache_hits",
	"router.merge_cache_misses":        "fleet_router_merge_cache_misses",
	"router.merge_cache_invalidations": "fleet_router_merge_cache_invalidations",
	"router.merge_cache_torn":          "fleet_router_merge_cache_torn",
	"router.plan_cache_hits":           "fleet_router_plan_cache_hits",
	"router.plan_cache_misses":         "fleet_router_plan_cache_misses",
	"router.plan_decode_misses":        "fleet_router_plan_decode_misses",
	"router.shard_not_modified":        "fleet_router_shard_not_modified_total",
	"router.shard_errors":              "fleet_shard_call_errors_total",
}

// serveLayerMetrics reports the serve-layer deltas of a set of servers
// between two scrapes each.
func serveLayerMetrics(r *run, before, after []scrape) {
	for name, series := range serveCounters {
		v := 0.0
		for i := range after {
			for _, s := range series {
				v += delta(before[i], after[i], s)
			}
		}
		r.rep.set(name, v, "count", len(after))
	}
	for _, rt := range serveRoutes {
		sum, n := 0.0, 0.0
		for i := range after {
			sum += delta(before[i], after[i], "fleet_http_request_seconds_sum", "route", routePatterns[rt])
			n += delta(before[i], after[i], "fleet_http_request_seconds_count", "route", routePatterns[rt])
		}
		mean := 0.0
		if n > 0 {
			mean = sum / n
		}
		r.rep.set("serve.route_s."+rt, mean, "s", int(n))
	}
}

func readLayerMetrics(r *run, env *readEnv, b readBaseline, tracedOps int64) {
	var after []scrape
	for _, s := range env.shards {
		sc, err := scrapeHandler(s)
		if err != nil {
			panic("perfbench: shard /metrics: " + err.Error())
		}
		after = append(after, sc)
	}
	serveLayerMetrics(r, b.shards, after)
	ra, err := scrapeHandler(env.router)
	if err != nil {
		panic("perfbench: router /metrics: " + err.Error())
	}
	for name, series := range routerCounters {
		// Shard expositions relayed by the router carry a shard label;
		// the router's own series do not.
		r.rep.set(name, delta(b.router, ra, series, "shard", ""), "count", 1)
	}
	for _, rt := range routerRoutes {
		mean, n := meanDelta(b.router, ra, "fleet_http_request_seconds", "route", routePatterns[rt], "shard", "")
		r.rep.set("router.route_s."+rt, mean, "s", n)
	}
	mean, n := meanDelta(b.router, ra, "fleet_shard_call_seconds")
	r.rep.set("router.shard_call_s", mean, "s", n)

	// cluster: ring lookups over the vehicle IDs, and how evenly the
	// ring spread the fleet.
	const rounds = 20
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		for _, id := range env.ids {
			sinkOwner = env.ring.Owner(id)
		}
	}
	r.rep.set("cluster.owner_ns", float64(time.Since(t0).Nanoseconds())/float64(rounds*len(env.ids)), "ns", rounds*len(env.ids))
	most := 0
	for _, n := range env.owned {
		most = max(most, n)
	}
	r.rep.set("cluster.shard_skew", float64(most)/(float64(len(env.ids))/float64(len(env.owned))), "ratio", len(env.owned))

	runtimeLayerMetrics(r, b.phaseBaseline, tracedOps)
}

// sinkOwner keeps the timed ring lookups from being optimized away.
var sinkOwner string

// checkReadSample is gate (b) for one captured router response: the
// router must answer exactly as one unsharded server over the same
// generation would. Bodies are byte-identical; a per-vehicle tag is
// the server's own; a fleet-wide tag is the router's merged one and
// must validate (304) at the router, as the server's validates at the
// server.
func checkReadSample(env *readEnv, ref *serve.Server, s readSample) error {
	get := func(h http.Handler, tag string) (*respWriter, error) {
		req, err := http.NewRequest(http.MethodGet, s.path, nil)
		if err != nil {
			return nil, err
		}
		if tag != "" {
			req.Header.Set("If-None-Match", tag)
		}
		w := newRespWriter()
		w.reset(true)
		h.ServeHTTP(w, req)
		return w, nil
	}
	if _, day := planDayNow(); day != s.day {
		return nil // plans scheduled across a UTC midnight cannot agree
	}
	want, err := get(ref, "")
	if err != nil {
		return err
	}
	body, etag := s.body, s.etag
	if s.conditional {
		if s.status != http.StatusNotModified || s.body.size != 0 {
			return fmt.Errorf("gate (b): conditional %s with the current tag answered %d with %d body bytes", s.path, s.status, s.body.size)
		}
		// The poll carried no body; fetch the router's body now.
		full, err := get(env.router, "")
		if err != nil {
			return err
		}
		body, etag = digest(full.body.Bytes()), full.header.Get("ETag")
		if etag != s.sentTag {
			return fmt.Errorf("gate (b): %s tag moved from %s to %s on an unchanged generation", s.path, s.sentTag, etag)
		}
	} else if s.status != want.status {
		return fmt.Errorf("gate (b): %s answered %d at the router, %d at a single server", s.path, s.status, want.status)
	}
	if body != digest(want.body.Bytes()) {
		return fmt.Errorf("gate (b): %s body differs between router (%d bytes) and single server (%d bytes)", s.path, body.size, want.body.Len())
	}
	refTag := want.header.Get("ETag")
	if etag == "" || refTag == "" {
		return fmt.Errorf("gate (b): %s carries no ETag (router %q, server %q)", s.path, etag, refTag)
	}
	if strings.HasPrefix(s.path, "/vehicles/") && etag != refTag {
		return fmt.Errorf("gate (b): %s tag %s at the router, %s at a single server", s.path, etag, refTag)
	}
	for _, c := range []struct {
		h   http.Handler
		tag string
		who string
	}{{env.router, etag, "router"}, {ref, refTag, "single server"}} {
		w, err := get(c.h, c.tag)
		if err != nil {
			return err
		}
		if w.status != http.StatusNotModified {
			return fmt.Errorf("gate (b): %s with its own tag %s answered %d at the %s, want 304", s.path, c.tag, w.status, c.who)
		}
	}
	return nil
}
