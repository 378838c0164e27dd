package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/snapstore"
	"repro/internal/wal"
)

// Live shape: one vehicle's next day is posted per tick, and forecasts
// are polled on their own schedule; both loops are open.
const (
	postsPerSecond = 10
	// liveRetrainDirty is the server's dirty-vehicle retrain threshold:
	// a build is kicked once 16 vehicles changed since the last kick,
	// so each build covers 16 reports (12 old, 4 young) and, at 10
	// posts/s, starts every 1.6 s; build and spill take about 0.5 s, so
	// the engine idles between builds even when the host's disk is slow.
	// With a threshold of 1 the engine runs back to back, and which
	// reports each build happens to cover swings freshness by a fifth
	// between runs of the same code.
	liveRetrainDirty = 16
	pollsPerSecond   = 200
	// pollConditional share of polls carry the tag the poller last saw.
	pollConditional = 0.5
	// drainTimeout bounds how long acked reports may take to show up
	// in a published snapshot after the generators stop.
	drainTimeout = 60 * time.Second
	// shardName is the snapshot spill name a single server uses.
	shardName = "default"
)

// publishEvent is one snapshot the engine published during the run,
// observed in the OnSnapshot hook.
type publishEvent struct {
	at        time.Time
	asOf      map[string]int // vehicle → ForecastByID[v].AsOfDay
	train     time.Duration
	retrained int
	reused    int
	changes   map[string]int // category → models retrained
	traced    bool
}

// liveHook is the benchmark side of the engine's Source and OnSnapshot
// hooks: it spills each generation through snapstore and checkpoints
// the WAL (as fleetserver -snapshot-dir -wal-dir wires it) and records
// when each generation went live. Builds are serialized by the engine,
// so the span stack is only ever used by one build at a time.
type liveHook struct {
	env *liveEnv
	st  *spanStack

	mu        sync.Mutex
	events    []publishEvent
	prev      *engine.Snapshot
	saves     samples
	saveBytes int64
	errs      []error

	fleet fleetTimer
}

// liveEnv is the live system: a durable store with WAL fsync=always,
// one server with a dirty-vehicle retrain threshold, snapshot spills.
type liveEnv struct {
	fleet   *benchFleet
	dir     string
	walDir  string
	snapDir string
	store   *ingest.Store
	snaps   *snapstore.Store
	eng     *engine.Engine
	srv     *serve.Server
	hook    *liveHook
}

func (h *liveHook) source() engine.Source {
	return func(ctx context.Context) ([]engine.Vehicle, error) {
		return h.fleet.fetch(ctx, h.st, h.env.store)
	}
}

func (h *liveHook) onSnapshot(snap *engine.Snapshot) {
	at := time.Now()
	traced := h.st.t.enabled()
	ev := publishEvent{at: at, asOf: make(map[string]int, len(snap.ForecastByID)), train: snap.TrainDuration,
		retrained: snap.Retrained, reused: snap.Reused, traced: traced}
	for id, f := range snap.ForecastByID {
		ev.asOf[id] = f.AsOfDay
	}
	h.st.record("engine", "build", 0, snap.BuiltAt.Add(-snap.TrainDuration), snap.BuiltAt)
	ev.changes = modelChanges(h.prev, snap)
	h.prev = snap

	tr := h.st.begin("snapstore", "Store.Save", 0)
	t0 := time.Now()
	err := h.env.snaps.Save(shardName, snap)
	d := time.Since(t0)
	h.env.eng.Metrics().ObserveStage("encode", t0)
	if tr {
		h.st.end()
	}
	var size int64
	if fi, serr := os.Stat(filepath.Join(h.env.snapDir, shardName+".snap")); serr == nil {
		size = fi.Size()
	}
	var cerr error
	if err == nil {
		tr = h.st.begin("ingest", "Store.CheckpointAndCompact", 0)
		_, cerr = h.env.store.CheckpointAndCompact()
		if tr {
			h.st.end()
		}
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	h.events = append(h.events, ev)
	if traced {
		h.saves = append(h.saves, d)
		h.saveBytes += size
	}
	if err != nil {
		h.errs = append(h.errs, fmt.Errorf("snapshot spill: %w", err))
	}
	if cerr != nil {
		h.errs = append(h.errs, fmt.Errorf("checkpoint after spill: %w", cerr))
	}
}

func setupLive(r *run) (*liveEnv, error) {
	f, err := genFleet()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(r.opts.out, "tmp"), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(r.opts.out, "tmp"), "live-")
	if err != nil {
		return nil, err
	}
	env := &liveEnv{fleet: f, dir: dir, walDir: filepath.Join(dir, "wal"), snapDir: filepath.Join(dir, "snap")}
	env.hook = &liveHook{env: env, st: r.tr.stack()}
	fail := func(err error) (*liveEnv, error) {
		env.close()
		return nil, err
	}
	if env.store, err = ingest.OpenDurable(0, ingest.DurableOptions{Dir: env.walDir, Fsync: wal.FsyncAlways}); err != nil {
		return fail(err)
	}
	if _, err := env.store.SeedFromFleet(f.seedFleet(func(v *benchVehicle) int { return v.seedDays - liveHoldback })); err != nil {
		return fail(err)
	}
	if env.snaps, err = snapstore.New(env.snapDir); err != nil {
		return fail(err)
	}
	cfg := r.engineConfig()
	cfg.Source = env.hook.source()
	cfg.OnSnapshot = env.hook.onSnapshot
	if env.eng, err = engine.New(cfg); err != nil {
		return fail(err)
	}
	snap, err := env.eng.RetrainFromSource(r.ctx)
	if err != nil {
		return fail(err)
	}
	if err := checkCategories(snap); err != nil {
		return fail(err)
	}
	if env.srv, err = serve.NewWithOptions(env.eng, serve.Options{Ingest: env.store, RetrainDirty: liveRetrainDirty, Logger: r.logger}); err != nil {
		return fail(err)
	}
	w := newRespWriter()
	for _, v := range f.vehicles {
		req, err := http.NewRequest(http.MethodGet, "/vehicles/"+v.id+"/forecast", nil)
		if err != nil {
			return fail(err)
		}
		w.reset(false)
		env.srv.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			return fail(fmt.Errorf("warm-up GET forecast of %s: status %d", v.id, w.status))
		}
	}
	return env, nil
}

// close releases the store and removes the run's scratch directory.
func (e *liveEnv) close() {
	if e.store != nil {
		e.store.Close()
	}
	os.RemoveAll(e.dir)
}

// ackedReport is one report the server acknowledged.
type ackedReport struct {
	vehicle string
	day     int
	date    time.Time
	seconds float64
	at      time.Time
	traced  bool
}

// postResult is the report generator's record.
type postResult struct {
	acks    []ackedReport
	ack     samples // from due time to ack
	ackTr   samples
	ackSent samples // from send to ack, both phases: the server's share
	late    samples
	// refused counts posts (traced phase) that reached the dirty
	// threshold but were answered retrain_started=false because a build
	// was in flight. Consecutive posts name distinct vehicles, so the
	// threshold is reached once liveRetrainDirty posts followed the
	// last kick.
	refused  int
	attempts int64
	failed   int64
}

// postLoop posts one vehicle's next day per tick, rotating over the
// fleet, on a fixed schedule from start; each ack is timed from when
// the post was due.
func (e *liveEnv) postLoop(r *run, start, deadline time.Time) *postResult {
	res := &postResult{}
	st := r.tr.stack()
	rot := e.fleet.rotation(r.opts.seed)
	next := make(map[string]int, len(rot))
	for _, v := range rot {
		next[v.id] = v.seedDays - liveHoldback
	}
	w := newRespWriter()
	sinceKick := 0
	interval := time.Second / postsPerSecond
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(deadline) {
			break
		}
		v := rot[i%len(rot)]
		day := next[v.id]
		next[v.id]++
		rep := v.report(day)
		frame, err := ingest.EncodeWireFrame([]ingest.Report{rep})
		if err != nil {
			panic("perfbench: encoding a telemetry frame: " + err.Error())
		}
		req, err := http.NewRequest(http.MethodPost, "/telemetry", bytes.NewReader(frame))
		if err != nil {
			panic("perfbench: building a telemetry request: " + err.Error())
		}
		req.Header.Set("Content-Type", ingest.ContentTypeBinary)
		time.Sleep(time.Until(due))

		w.reset(true)
		sent := time.Now()
		res.late = append(res.late, sent.Sub(due))
		root := st.begin("bench", "post", uint64(i+1))
		inner := st.begin("serve", "Server.ServeHTTP", 0)
		e.srv.ServeHTTP(w, req)
		done := time.Now()
		if inner {
			st.end()
		}
		if root {
			st.end()
		}
		res.attempts++
		var ack serve.TelemetryResponse
		if w.status != http.StatusOK || json.Unmarshal(w.body.Bytes(), &ack) != nil || ack.Accepted != 1 {
			res.failed++
			continue
		}
		res.ackSent = append(res.ackSent, done.Sub(sent))
		sinceKick++
		if root {
			res.ackTr = append(res.ackTr, done.Sub(due))
			if !ack.RetrainStarted && sinceKick >= liveRetrainDirty {
				res.refused++
			}
		} else {
			res.ack = append(res.ack, done.Sub(due))
		}
		res.acks = append(res.acks, ackedReport{vehicle: v.id, day: day, date: rep.Date, seconds: rep.Seconds, at: done, traced: root})
		if ack.RetrainStarted {
			sinceKick = 0
		}
	}
	st.flush()
	return res
}

// pollResult is the forecast poller's record.
type pollResult struct {
	lat      samples
	latTr    samples
	late     samples
	attempts int64
	failed   int64
}

// pollLoop polls per-vehicle forecasts on a fixed schedule; about half
// the polls are conditional on the tag last seen for the vehicle.
func (e *liveEnv) pollLoop(r *run, start, deadline time.Time) *pollResult {
	res := &pollResult{}
	st := r.tr.stack()
	pick := rng.New(r.opts.seed ^ 0xe7037ed1a0b428db)
	tags := make(map[string]string)
	w := newRespWriter()
	interval := time.Second / pollsPerSecond
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(deadline) {
			break
		}
		v := e.fleet.vehicles[pick.Intn(len(e.fleet.vehicles))]
		req, err := http.NewRequest(http.MethodGet, "/vehicles/"+v.id+"/forecast", nil)
		if err != nil {
			panic("perfbench: building a poll: " + err.Error())
		}
		if tag := tags[v.id]; tag != "" && pick.Float64() < pollConditional {
			req.Header.Set("If-None-Match", tag)
		}
		time.Sleep(time.Until(due))

		w.reset(false)
		res.late = append(res.late, time.Since(due))
		root := st.begin("bench", "poll", uint64(i+1))
		inner := st.begin("serve", "Server.ServeHTTP", 0)
		e.srv.ServeHTTP(w, req)
		done := time.Now()
		if inner {
			st.end()
		}
		if root {
			st.end()
			res.latTr = append(res.latTr, done.Sub(due))
		} else {
			res.lat = append(res.lat, done.Sub(due))
		}
		res.attempts++
		if !w.ok() {
			res.failed++
			continue
		}
		if w.status == http.StatusOK {
			tags[v.id] = w.header.Get("ETag")
		}
	}
	st.flush()
	return res
}

// covered reports whether a publish event's snapshot covers a report.
func (ev *publishEvent) covers(a ackedReport) bool {
	d, ok := ev.asOf[a.vehicle]
	return ok && d >= a.day
}

func runLive(r *run) error {
	env, err := medianSetup(r, func() (*liveEnv, error) { return setupLive(r) }, func(e *liveEnv) { e.close() })
	if err != nil {
		return err
	}
	defer env.close()
	r.startMeasured()

	untracedFor, tracedFor := r.phases()
	start := time.Now().Add(10 * time.Millisecond)
	deadline := start.Add(untracedFor + tracedFor)
	var (
		wg     sync.WaitGroup
		posts  *postResult
		polls  *pollResult
		before liveBaseline
	)
	if r.opts.trace {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Until(start.Add(untracedFor)))
			before = takeLiveBaseline(env)
			r.tr.on.Store(true)
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		posts = env.postLoop(r, start, deadline)
	}()
	go func() {
		defer wg.Done()
		polls = env.pollLoop(r, start, deadline)
	}()
	wg.Wait()

	// Drain: with the generators stopped no post kicks a build, so the
	// benchmark retrains from the store, as fleetserver's periodic
	// retrain loop would, until every acked report is published.
	drainBy := time.Now().Add(drainTimeout)
	for !env.allCovered(posts.acks) && time.Now().Before(drainBy) {
		if _, err := env.eng.TryRetrainFromSource(r.ctx, false); err != nil && !errors.Is(err, engine.ErrRetrainInFlight) {
			return fmt.Errorf("drain retrain: %w", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for env.eng.Status().Retraining {
		time.Sleep(10 * time.Millisecond)
	}
	env.hook.st.flush()
	if err := r.endMeasured(); err != nil {
		return err
	}

	r.attempted.Add(posts.attempts + polls.attempts)
	r.failed.Add(posts.failed + polls.failed)
	if st := env.eng.Status(); st.LastError != "" {
		r.failed.Add(1)
		r.gate(fmt.Errorf("a retrain failed: %s", st.LastError))
	}
	env.hook.mu.Lock()
	for _, e := range env.hook.errs {
		r.gate(e)
	}
	events := env.hook.events
	env.hook.mu.Unlock()

	// Freshness: from each ack to the first published snapshot whose
	// forecast for the vehicle covers the reported day.
	var fresh, freshTr, kickWait samples
	for _, a := range posts.acks {
		var ev *publishEvent
		for i := range events {
			if events[i].covers(a) {
				ev = &events[i]
				break
			}
		}
		if ev == nil {
			r.failed.Add(1)
			continue
		}
		d := ev.at.Sub(a.at)
		if a.traced {
			freshTr = append(freshTr, d)
			kickWait = append(kickWait, d-ev.train)
		} else {
			fresh = append(fresh, d)
		}
	}

	if r.opts.trace {
		liveLayerMetrics(r, env, before, events, posts, polls, kickWait)
		overhead(r, posts.ack, posts.ackTr)
		fresh = append(fresh, freshTr...)
		posts.ack = append(posts.ack, posts.ackTr...)
		polls.lat = append(polls.lat, polls.latTr...)
	}

	// Gates (c) and (d): every acked report is in the final forecasts
	// and the store, and the store reopened from its WAL matches.
	r.gate(checkAcked("gate (c)", env.store, env.eng.Snapshot(), posts.acks))
	hashes := storeHashes(env.store)
	if err := env.store.Close(); err != nil {
		return fmt.Errorf("closing the store: %w", err)
	}
	reopened, err := ingest.OpenDurable(0, ingest.DurableOptions{Dir: env.walDir, Fsync: wal.FsyncAlways})
	if err != nil {
		return fmt.Errorf("reopening the store from its WAL: %w", err)
	}
	env.store = reopened
	r.gate(checkReopened(hashes, reopened, posts.acks))

	late := append(append(samples(nil), posts.late...), polls.late...)
	r.rep.latency("bench.late_p95_ms", late, 0.95, "ms")
	r.rep.latency("ingest_ack_p50_ms", posts.ack, 0.5, "ms")
	r.rep.latency("ingest_ack_p95_ms", posts.ack, 0.95, "ms")
	r.rep.latency("ingest_ack_sent_p50_ms", posts.ackSent, 0.5, "ms")
	r.rep.latency("freshness_p50_s", fresh, 0.5, "s")
	r.rep.latency("freshness_p95_s", fresh, 0.95, "s")
	r.rep.latency("forecast_p50_us", polls.lat, 0.5, "us")
	r.rep.latency("forecast_p99_us", polls.lat, 0.99, "us")
	mre, n := meanOldMRE(env.eng.Snapshot())
	r.rep.set("core.validation_mre", mre, "ratio", n)
	r.rep.set("core.failed_vehicles", float64(len(env.eng.Snapshot().FailedVehicles)), "count", len(env.fleet.vehicles))

	r.rep.latency("primary_ms", fresh, 0.5, "ms")
	r.rep.latency("secondary_ms", polls.lat, 0.5, "ms")
	for name, s := range map[string]samples{"freshness": fresh, "ingest ack": posts.ack} {
		if s.beyond(0.95) < 10 {
			r.note("%d %s samples leave fewer than 10 beyond the p95", len(s), name)
		}
	}
	return nil
}

// allCovered reports whether the latest published snapshot covers
// every acked report.
func (e *liveEnv) allCovered(acks []ackedReport) bool {
	e.hook.mu.Lock()
	defer e.hook.mu.Unlock()
	if len(e.hook.events) == 0 {
		return false
	}
	last := &e.hook.events[len(e.hook.events)-1]
	for _, a := range acks {
		if !last.covers(a) {
			return false
		}
	}
	return true
}

// storeHashes is every stored vehicle's content hash.
func storeHashes(s *ingest.Store) map[string]uint64 {
	out := make(map[string]uint64)
	for _, id := range s.Vehicles() {
		h, _ := s.Hash(id)
		out[id] = h
	}
	return out
}

// liveBaseline is the state the traced phase's deltas start from.
type liveBaseline struct {
	phaseBaseline
	server scrape
}

func takeLiveBaseline(env *liveEnv) liveBaseline {
	b := liveBaseline{phaseBaseline: takeBaseline(env.eng, env.store)}
	sc, err := scrapeHandler(env.srv)
	if err != nil {
		panic("perfbench: server /metrics: " + err.Error())
	}
	b.server = sc
	return b
}

// liveLayerMetrics reports the traced phase's per-layer numbers: ingest
// and WAL, engine builds and their kicks, core, snapstore and serve.
func liveLayerMetrics(r *run, env *liveEnv, b liveBaseline, events []publishEvent, posts *postResult, polls *pollResult, kickWait samples) {
	trainingLayerMetrics(r, env.eng, b.phaseBaseline)
	after := env.store.Stats()
	r.rep.set("ingest.prep_hits", float64(after.PrepCacheHits-b.store.PrepCacheHits), "count", 1)
	r.rep.set("ingest.prep_misses", float64(after.PrepCacheMisses-b.store.PrepCacheMisses), "count", 1)
	env.hook.fleet.report(r)
	if after.WAL != nil && b.store.WAL != nil {
		r.rep.set("wal.appends", float64(after.WAL.Appends-b.store.WAL.Appends), "count", 1)
		r.rep.set("wal.fsyncs", float64(after.WAL.Fsyncs-b.store.WAL.Fsyncs), "count", 1)
		r.rep.set("wal.bytes", float64(after.WAL.Bytes-b.store.WAL.Bytes), "bytes", 1)
	}
	srv, err := scrapeHandler(env.srv)
	if err != nil {
		panic("perfbench: server /metrics: " + err.Error())
	}
	mean, n := meanDelta(b.server, srv, "fleet_wal_append_seconds")
	r.rep.set("wal.append_s", mean, "s", n)
	mean, n = meanDelta(b.server, srv, "fleet_wal_fsync_seconds")
	r.rep.set("wal.fsync_s", mean, "s", n)
	serveLayerMetrics(r, []scrape{b.server}, []scrape{srv})
	mean, n = meanDelta(b.server, srv, "fleet_http_request_seconds", "route", routePatterns["telemetry"])
	r.rep.set("ingest.handler_s", mean, "s", n)

	retrains, retrained, reused := 0, 0, 0
	byCat := map[string]int{}
	for _, ev := range events {
		if !ev.traced {
			continue
		}
		retrains++
		retrained += ev.retrained
		reused += ev.reused
		for c, k := range ev.changes {
			byCat[c] += k
		}
	}
	r.rep.set("engine.retrains", float64(retrains), "count", retrains)
	r.rep.set("engine.retrained", float64(retrained), "count", retrains)
	r.rep.set("engine.reused", float64(reused), "count", retrains)
	for _, c := range categories {
		r.rep.set("core.retrained."+c, float64(byCat[c]), "count", retrains)
	}
	r.rep.latency("engine.kick_wait_s", kickWait, 0.5, "s")
	r.rep.set("engine.kicks_refused", float64(posts.refused), "count", len(posts.ackTr))

	env.hook.mu.Lock()
	saves, bytes := env.hook.saves, env.hook.saveBytes
	env.hook.mu.Unlock()
	if len(saves) > 0 {
		r.rep.latency("snapstore.save_s", saves, 0.5, "s")
		r.rep.set("snapstore.bytes", float64(bytes)/float64(len(saves)), "bytes", len(saves))
	}
	runtimeLayerMetrics(r, b.phaseBaseline, int64(len(posts.ackTr)+len(polls.latTr)))
}
