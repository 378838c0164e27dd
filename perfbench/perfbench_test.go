package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/timeseries"
	"repro/internal/wal"
)

// namedMetrics are the end-to-end numbers each workload prints in its
// table, by the names the workload definitions use.
var namedMetrics = map[string][]string{
	"retrain":    {"setup_s", "full_retrain_s", "incr_retrain_s", "validation_mre", "peak_rss_mb"},
	"read-scale": {"setup_s", "forecast_p50_us", "forecast_p99_us", "fleet_read_p99_us", "plan_p99_us", "reads_per_s", "peak_rss_mb"},
	"live":       {"setup_s", "forecast_p50_us", "forecast_p99_us", "ingest_ack_p50_ms", "ingest_ack_p95_ms", "freshness_p50_s", "freshness_p95_s", "peak_rss_mb"},
}

// shortRun runs one workload briefly and returns its output lines and
// the parsed result line.
func shortRun(t *testing.T, workload string, trace bool) ([]string, result) {
	t.Helper()
	var out bytes.Buffer
	err := mainErr(options{workload: workload, seed: 3, seconds: 3, trace: trace, out: t.TempDir()}, &out)
	if err != nil {
		t.Fatalf("%s (trace=%v): %v\n%s", workload, trace, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d\n%s", workload, res.Correct, res.Attempted, res.Failed, out.String())
	}
	return lines, res
}

// TestWorkloadsPrintEveryMetric runs each workload briefly, untraced
// and traced, and checks every named metric is printed with its unit
// and sample count, and that the result line carries exactly the
// contract's metrics.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range []string{"retrain", "read-scale", "live"} {
		t.Run(wl, func(t *testing.T) {
			lines, res := shortRun(t, wl, false)
			table := strings.Join(lines, "\n")
			for _, name := range append(namedMetrics[wl], endToEnd...) {
				re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `\s+\S+\s+\S+\s+n=[1-9][0-9]*$`)
				if !re.MatchString(table) {
					t.Errorf("%s: no %q line with value, unit and sample count", wl, name)
				}
			}
			checkResultMetrics(t, res, endToEnd)

			_, res = shortRun(t, wl, true)
			checkResultMetrics(t, res, perLayer)
		})
	}
}

func checkResultMetrics(t *testing.T, res result, names []string) {
	t.Helper()
	if len(res.Metrics) != len(names) {
		t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(names))
	}
	for _, name := range names {
		m, ok := res.Metrics[name]
		if !ok {
			t.Errorf("result lacks %s", name)
			continue
		}
		if m.Unit != unitOf(name) {
			t.Errorf("%s has unit %q, want %q", name, m.Unit, unitOf(name))
		}
	}
}

// TestGateRouterBody: gate (b) passes on real router responses and
// fails on a tampered body or a foreign per-vehicle tag.
func TestGateRouterBody(t *testing.T) {
	r := newRun(options{seed: 5})
	f := genReadFleet(5)
	env, err := setupReadScale(r, f)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := restoredServer(r, f.snapshot(r.engineConfig(), f.ids))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/vehicles/" + env.healthy[7] + "/forecast", "/fleet/forecast", "/vehicles", "/fleet/plan?capacity=3&horizon=90&maxlead=2"} {
		req, _ := http.NewRequest(http.MethodGet, path, nil)
		w := newRespWriter()
		w.reset(true)
		env.router.ServeHTTP(w, req)
		_, day := planDayNow()
		body := w.body.Bytes()
		s := readSample{path: path, status: w.status, etag: w.header.Get("ETag"), body: digest(body), day: day}
		if err := checkReadSample(env, ref, s); err != nil {
			t.Fatalf("untampered %s: %v", path, err)
		}
		tampered := s
		body[len(body)/2] ^= 1
		tampered.body = digest(body)
		if err := checkReadSample(env, ref, tampered); err == nil || !strings.Contains(err.Error(), "gate (b)") {
			t.Errorf("tampered %s body passed gate (b): %v", path, err)
		}
	}
	path := "/vehicles/" + env.healthy[3] + "/forecast"
	req, _ := http.NewRequest(http.MethodGet, path, nil)
	w := newRespWriter()
	w.reset(true)
	env.router.ServeHTTP(w, req)
	_, day := planDayNow()
	s := readSample{path: path, status: w.status, etag: `"g9-0"`, body: digest(w.body.Bytes()), day: day}
	if err := checkReadSample(env, ref, s); err == nil {
		t.Error("a per-vehicle tag differing from the single server's passed gate (b)")
	}
}

// TestGateIncrementalMatchesFull: gate (a) passes on a real
// incremental/full pair and fails when one forecast or the failed set
// is perturbed.
func TestGateIncrementalMatchesFull(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the fleet")
	}
	r := newRun(options{seed: 9})
	env, err := setupRetrain(r)
	if err != nil {
		t.Fatal(err)
	}
	v := env.fleet.vehicles[0]
	if _, err := env.store.UpsertBatch([]ingest.Report{v.report(v.seedDays)}); err != nil {
		t.Fatal(err)
	}
	vehicles, err := env.store.Fleet(r.ctx)
	if err != nil {
		t.Fatal(err)
	}
	incr, err := env.eng.Retrain(r.ctx, vehicles)
	if err != nil {
		t.Fatal(err)
	}
	full, err := env.eng.RetrainFull(r.ctx, vehicles)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameOutputs(incr, full); err != nil {
		t.Fatalf("real incremental and full retrains disagree: %v", err)
	}

	perturbed := copyOutputs(incr)
	f := perturbed.ForecastByID[v.id]
	f.DaysLeft += 1e-9
	perturbed.ForecastByID[v.id] = f
	if err := sameOutputs(perturbed, full); err == nil {
		t.Error("a perturbed incremental forecast passed gate (a)")
	}

	perturbed = copyOutputs(incr)
	perturbed.FailedVehicles[v.id] = "injected"
	if err := sameOutputs(perturbed, full); err == nil {
		t.Error("an incremental snapshot with an extra failed vehicle passed gate (a)")
	}
}

// TestRetrainFullErrorEndsRun: a RetrainFull that fails after an
// incremental series fails the run and ends it; the loop must not keep
// retrying past the deadline.
func TestRetrainFullErrorEndsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the fleet")
	}
	r := newRun(options{workload: "retrain", seed: 4, seconds: 6})
	env, err := setupRetrain(r)
	if err != nil {
		t.Fatal(err)
	}
	calls, full := 0, env.full
	env.full = func(ctx context.Context, vs []engine.Vehicle) (*engine.Snapshot, error) {
		calls++
		if calls > 1 {
			return nil, errors.New("injected RetrainFull failure")
		}
		return full(ctx, vs)
	}
	done := make(chan error, 1)
	go func() { done <- measureRetrain(r, env) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("measureRetrain: %v", err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("the run did not end after RetrainFull failed")
	}
	if calls != 2 {
		t.Fatalf("RetrainFull called %d times, want 2 (one success, one failure)", calls)
	}
	if len(r.gateErrs) == 0 || r.failed.Load() == 0 {
		t.Errorf("a failed RetrainFull left %d gate errors and %d failed ops", len(r.gateErrs), r.failed.Load())
	}
}

// copyOutputs copies the parts of a snapshot gate (a) compares.
func copyOutputs(s *engine.Snapshot) *engine.Snapshot {
	out := &engine.Snapshot{
		ForecastByID:   make(map[string]core.Forecast),
		StatusByID:     make(map[string]core.VehicleStatus),
		FailedVehicles: make(map[string]string),
		ForecastErrors: make(map[string]string),
	}
	for k, v := range s.ForecastByID {
		out.ForecastByID[k] = v
	}
	for k, v := range s.StatusByID {
		out.StatusByID[k] = v
	}
	for k, v := range s.FailedVehicles {
		out.FailedVehicles[k] = v
	}
	for k, v := range s.ForecastErrors {
		out.ForecastErrors[k] = v
	}
	return out
}

// TestGateDroppedAckedReport: gates (c) and (d) pass when every acked
// report is durable and fail when one acked report never reached the
// store or its WAL.
func TestGateDroppedAckedReport(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	store, err := ingest.OpenDurable(0, ingest.DurableOptions{Dir: dir, Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)
	var acks []ackedReport
	for d := 0; d < 12; d++ {
		rep := ingest.Report{VehicleID: "v01", Date: start.AddDate(0, 0, d), Seconds: float64(1000 + d)}
		if _, err := store.UpsertBatch([]ingest.Report{rep}); err != nil {
			t.Fatal(err)
		}
		acks = append(acks, ackedReport{vehicle: rep.VehicleID, day: d, date: rep.Date, seconds: rep.Seconds})
	}
	snap := &engine.Snapshot{ForecastByID: map[string]core.Forecast{"v01": {VehicleID: "v01", AsOfDay: 11}}}
	if err := checkAcked("gate (c)", store, snap, acks); err != nil {
		t.Fatalf("complete store failed gate (c): %v", err)
	}
	hashes := storeHashes(store)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := ingest.OpenDurable(0, ingest.DurableOptions{Dir: dir, Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if err := checkReopened(hashes, reopened, acks); err != nil {
		t.Fatalf("complete WAL failed gate (d): %v", err)
	}

	// An acknowledged report the system dropped: the client holds the
	// ack, the store and its WAL do not hold the report.
	dropped := ackedReport{vehicle: "v01", day: 12, date: start.AddDate(0, 0, 12), seconds: 4242}
	withDrop := append(append([]ackedReport(nil), acks...), dropped)
	if err := checkAcked("gate (c)", reopened, snap, withDrop); err == nil {
		t.Error("a dropped acked report passed gate (c)")
	}
	if err := checkReopened(hashes, reopened, withDrop); err == nil {
		t.Error("a dropped acked report passed gate (d)")
	}
	// The running store held it but the WAL lost it: hashes disagree.
	mem := ingest.New(0)
	for _, a := range withDrop {
		if _, err := mem.UpsertBatch([]ingest.Report{{VehicleID: a.vehicle, Date: a.date, Seconds: a.seconds}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkReopened(storeHashes(mem), reopened, acks); err == nil {
		t.Error("a report missing from the WAL passed gate (d)")
	}
	// A snapshot whose forecast predates an acked day fails gate (c).
	stale := &engine.Snapshot{ForecastByID: map[string]core.Forecast{"v01": {VehicleID: "v01", AsOfDay: 10}}}
	if err := checkAcked("gate (c)", reopened, stale, acks); err == nil {
		t.Error("a forecast that does not cover an acked day passed gate (c)")
	}
}

// TestFleetCoversEveryCategory: the generated fleet has old, semi-new
// and new vehicles at both the retrain and the live cut.
func TestFleetCoversEveryCategory(t *testing.T) {
	f, err := genFleet()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range f.vehicles {
		for _, days := range []int{v.seedDays, v.seedDays - liveHoldback} {
			if got := categoryAt(t, v, days); got != v.want {
				t.Errorf("%s is %s after %d days, want %s", v.id, got, days, v.want)
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	s := samples{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	if got := s.quantile(0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := s.quantile(0.9); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := s.beyond(0.8); got != 2 {
		t.Errorf("beyond p80 = %d, want 2", got)
	}
}

// categoryAt categorizes a vehicle's first days as training would.
func categoryAt(t *testing.T, v *benchVehicle, days int) core.Category {
	t.Helper()
	vs, err := timeseries.Derive(v.id, v.clean[:days], timeseries.DefaultAllowance)
	if err != nil {
		t.Fatal(err)
	}
	return core.Categorize(vs)
}
