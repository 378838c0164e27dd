// Command perfbench is the repository's end-to-end fleet benchmark. It
// builds the system in-process from its public APIs (ingest, engine,
// snapstore, cluster, serve.Server and serve.Router), generates every
// input from --seed, checks the outputs, and prints its metrics: a
// table of every measured number with its unit and sample count, then
// one JSON line with the contract's metrics.
//
//	go run . --workload retrain --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	retrain     full and incremental retrains of a mixed-age fleet
//	read-scale  closed-loop reads of a 10k-vehicle, 3-shard cluster
//	live        open-loop durable ingest beside forecast polls
//
// With --trace 1 the second half of the run records spans around every
// call into a layer and reports per-layer metrics instead; the first
// half runs untraced so the tracing overhead is measured in the same
// process.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
)

// setupRepeats is how many times a run builds its set-up; setup_s is
// their median, so a single slow build cannot move it.
const setupRepeats = 3

// endToEnd lists the contract's end-to-end metrics. Every workload
// reports all of them; each workload maps two of its own numbers, the
// ones that spread least from run to run on a shared 2-core host, onto
// the primary/secondary names (see README.md). Its table prints the
// rest, unbounded.
var endToEnd = []string{"setup_s", "peak_rss_mb", "primary_ms", "secondary_ms"}

// perLayer lists the contract's per-layer metrics, reported by traced
// runs. A metric a workload does not exercise reads 0.
var perLayer = func() []string {
	out := []string{
		"ingest.fleet_s", "ingest.prep_hits", "ingest.prep_misses", "ingest.handler_s",
		"wal.appends", "wal.fsyncs", "wal.bytes", "wal.append_s", "wal.fsync_s",
		"engine.retrains", "engine.retrained", "engine.reused",
	}
	for _, st := range stages {
		out = append(out, "engine.stage."+st+"_s")
	}
	out = append(out, "engine.full_stage_sum_s", "engine.full_residual_s", "engine.kick_wait_s", "engine.kicks_refused")
	for _, a := range algorithms {
		out = append(out, "core.search_s."+a)
	}
	for _, a := range algorithms {
		out = append(out, "core.fit_s."+a)
	}
	for _, c := range categories {
		out = append(out, "core.retrained."+c)
	}
	out = append(out, "core.failed_vehicles", "core.validation_mre",
		"ml.hist_fill_rows", "ml.hist_sweep_cells", "ml.hist_subtract_cells", "ml.hist_direct_nodes", "ml.hist_derived_nodes",
		"snapstore.save_s", "snapstore.bytes")
	for _, rt := range serveRoutes {
		out = append(out, "serve.route_s."+rt)
	}
	out = append(out, "serve.response_cache_hits", "serve.response_cache_misses",
		"serve.fleet_cache_hits", "serve.fleet_cache_misses",
		"serve.plan_cache_hits", "serve.plan_cache_misses", "serve.not_modified")
	for _, rt := range routerRoutes {
		out = append(out, "router.route_s."+rt)
	}
	out = append(out, "router.shard_call_s", "router.shard_errors",
		"router.merge_cache_hits", "router.merge_cache_misses", "router.merge_cache_invalidations", "router.merge_cache_torn",
		"router.plan_cache_hits", "router.plan_cache_misses", "router.plan_decode_misses", "router.shard_not_modified",
		"cluster.owner_ns", "cluster.shard_skew",
		"runtime.allocs_per_op", "runtime.gc_pause_s", "runtime.heap_peak_mb",
		"bench.late_p95_ms", "bench.trace_overhead_pct")
	for _, l := range layers {
		out = append(out, l+".self_s")
	}
	return out
}()

var (
	stages       = []string{"prep", "plan", "fit", "snapshot", "encode"}
	algorithms   = []string{"BL", "LR", "LSVR", "RF", "XGB"}
	categories   = []string{"old", "semi-new", "new"}
	serveRoutes  = []string{"forecast", "fleet_forecast", "vehicles", "plan", "telemetry"}
	routerRoutes = []string{"forecast", "fleet_forecast", "vehicles", "plan"}
)

// routePatterns maps the short route names to the mux patterns the
// fleet_http_request_seconds histogram is labeled with.
var routePatterns = map[string]string{
	"forecast":       "GET /vehicles/{id}/forecast",
	"fleet_forecast": "GET /fleet/forecast",
	"vehicles":       "GET /vehicles",
	"plan":           "GET /fleet/plan",
	"telemetry":      "POST /telemetry",
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	out      string
}

// run is one benchmark invocation's shared state.
type run struct {
	opts   options
	rep    *report
	tr     *tracer
	ctx    context.Context
	logger *slog.Logger

	attempted atomic.Int64
	failed    atomic.Int64

	// peak samples the resident set over the measured phase.
	peak *peakSampler

	gateMu   sync.Mutex
	gateErrs []error

	notes []string
}

func newRun(o options) *run {
	return &run{
		opts: o,
		rep:  newReport(),
		tr:   newTracer(),
		ctx:  context.Background(),
		// The product's default logger (JSON at info), output discarded:
		// request and retrain log lines are formatted as in production
		// without the benchmark measuring a terminal.
		logger: obs.NewLogger(io.Discard, slog.LevelInfo, "json"),
	}
}

// op records one attempted operation and whether it failed.
func (r *run) op(ok bool) {
	r.attempted.Add(1)
	if !ok {
		r.failed.Add(1)
	}
}

// note records a remark printed with the run's table.
func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// gate records a failed correctness gate; any one fails the run.
func (r *run) gate(err error) {
	if err == nil {
		return
	}
	r.gateMu.Lock()
	r.gateErrs = append(r.gateErrs, err)
	r.gateMu.Unlock()
}

// engineConfig is the product's default predictor on an nproc-wide
// training pool.
func (r *run) engineConfig() engine.Config {
	return engine.Config{Predictor: core.DefaultPredictorConfig(), Workers: runtime.NumCPU(), Logger: r.logger}
}

// phases splits the measured time: untraced runs measure it whole;
// traced runs measure the first half untraced and trace the second.
func (r *run) phases() (untraced, traced time.Duration) {
	total := time.Duration(r.opts.seconds) * time.Second
	if !r.opts.trace {
		return total, 0
	}
	return total / 2, total - total/2
}

// medianSetup runs build setupRepeats times, records the median as
// setup_s and returns the last build's environment. Earlier builds are
// closed before the next starts.
func medianSetup[E any](r *run, build func() (E, error), closeEnv func(E)) (E, error) {
	var env E
	var times samples
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			closeEnv(env)
		}
		t0 := time.Now()
		e, err := build()
		if err != nil {
			return env, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0))
		env = e
	}
	r.rep.latency("setup_s", times, 0.5, "s")
	return env, nil
}

// startMeasured opens the measured phase. A workload calls it once its
// harness (clients, schedules, checkers) is built, so peak_rss_mb
// counts the system under load, not the harness's set-up. The
// discarded set-ups are collected and their pages handed back to the
// OS first.
func (r *run) startMeasured() {
	debug.FreeOSMemory()
	r.peak = startPeakSampler()
}

// endMeasured closes the measured phase: it records peak_rss_mb.
// Correctness checks after it are not part of the workload's memory.
func (r *run) endMeasured() error {
	rss, _, err := r.peak.finish()
	if err != nil {
		return err
	}
	r.rep.set("peak_rss_mb", rss, "MB", 1)
	return nil
}

var workloads = map[string]func(*run) error{
	"retrain":    runRetrain,
	"read-scale": runReadScale,
	"live":       runLive,
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: retrain, read-scale or live")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every input derives from")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for scratch files and trace output")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = *trace == 1
	if err := mainErr(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run whose result was printed but failed a
// correctness gate.
var errIncorrect = errors.New("correctness gate failed")

func mainErr(o options, stdout io.Writer) error {
	fn, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	r := newRun(o)
	if err := fn(r); err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	if o.trace {
		r.tr.addSelfTimes(r.rep)
		path := filepath.Join(o.out, "traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := r.tr.writeFile(path); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(stdout, "# spans written to %s\n", path)
	}

	names := endToEnd
	if o.trace {
		names = perLayer
		for _, n := range names {
			if _, ok := r.rep.get(n); !ok {
				r.rep.set(n, 0, unitOf(n), 0)
			}
		}
	}
	sort.SliceStable(r.rep.metrics, func(i, j int) bool { return r.rep.metrics[i].Name < r.rep.metrics[j].Name })
	for i, m := range r.rep.metrics {
		r.rep.index[m.Name] = i
	}
	printTable(stdout, fmt.Sprintf("workload=%s seed=%d seconds=%d trace=%v nproc=%d GOMAXPROCS=%d",
		o.workload, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0)), r.rep)
	for _, n := range r.notes {
		fmt.Fprintln(stdout, "# note:", n)
	}
	for _, e := range r.gateErrs {
		fmt.Fprintln(stdout, "# GATE FAILED:", e)
	}
	correct := len(r.gateErrs) == 0
	if err := printResult(stdout, correct, r.attempted.Load(), r.failed.Load(), r.rep, names); err != nil {
		return err
	}
	if !correct {
		return errIncorrect
	}
	return nil
}

// unitOf is a contract metric's unit, read off its name.
func unitOf(name string) string {
	switch {
	case strings.Contains(name, "_s."): // e.g. core.fit_s.XGB
		return "s"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_mre"), strings.HasSuffix(name, "_skew"):
		return "ratio"
	case strings.HasSuffix(name, "bytes"):
		return "bytes"
	}
	return "count"
}
