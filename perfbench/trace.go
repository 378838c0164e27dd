package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Layers the benchmark attributes self time to. Spans are recorded in
// the benchmark's own code, around each call it makes into a layer's
// public functions; time a span spends outside its child spans is the
// layer's self time.
var layers = []string{"bench", "ingest", "engine", "snapstore", "serve", "router", "cluster"}

// maxKeptSpans caps the spans a run keeps for the trace file; self
// times are accumulated for every span regardless.
const maxKeptSpans = 50_000

// span is one recorded interval, in nanoseconds since the run started.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects spans when on. Off, every method is a flag check, so
// the untraced run measures the system without the tracing cost.
type tracer struct {
	on     atomic.Bool
	t0     time.Time
	nextID atomic.Uint64

	mu      sync.Mutex
	kept    []span
	dropped int
	self    map[string]time.Duration
	spans   int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), self: make(map[string]time.Duration)}
}

func (t *tracer) enabled() bool { return t.on.Load() }

// frame is an open span on one goroutine's stack.
type frame struct {
	sp       span
	start    time.Time
	children time.Duration
}

// spanStack is one goroutine's open spans. Calls the benchmark makes
// from one goroutine nest strictly, so a stack gives every span its
// parent and the time its children covered.
type spanStack struct {
	t      *tracer
	frames []frame
	// local buffers finished spans so concurrent generators take the
	// tracer lock once per flush, not once per span.
	local []span
	self  map[string]time.Duration
	n     int
}

func (t *tracer) stack() *spanStack {
	return &spanStack{t: t, self: make(map[string]time.Duration)}
}

// begin opens a span; with tracing off it returns false and records
// nothing.
func (s *spanStack) begin(layer, name string, req uint64) bool {
	if !s.t.enabled() {
		return false
	}
	now := time.Now()
	sp := span{ID: s.t.nextID.Add(1), Req: req, Layer: layer, Name: name, Start: int64(now.Sub(s.t.t0))}
	if n := len(s.frames); n > 0 {
		sp.Parent = s.frames[n-1].sp.ID
		if sp.Req == 0 {
			sp.Req = s.frames[n-1].sp.Req
		}
	}
	s.frames = append(s.frames, frame{sp: sp, start: now})
	return true
}

// end closes the innermost span opened by a begin that returned true.
func (s *spanStack) end() {
	now := time.Now()
	n := len(s.frames) - 1
	f := s.frames[n]
	s.frames = s.frames[:n]
	d := now.Sub(f.start)
	f.sp.End = int64(now.Sub(s.t.t0))
	s.self[f.sp.Layer] += d - f.children
	if n > 0 {
		s.frames[n-1].children += d
	}
	s.n++
	s.local = append(s.local, f.sp)
	if len(s.local) >= 1024 {
		s.flush()
	}
}

// record adds a span reconstructed from timestamps another goroutine
// observed (an engine build kicked inside the server, known from its
// snapshot), with no children.
func (s *spanStack) record(layer, name string, req uint64, start, end time.Time) {
	if !s.t.enabled() {
		return
	}
	sp := span{ID: s.t.nextID.Add(1), Req: req, Layer: layer, Name: name,
		Start: int64(start.Sub(s.t.t0)), End: int64(end.Sub(s.t.t0))}
	s.self[layer] += end.Sub(start)
	s.n++
	s.local = append(s.local, sp)
}

// flush hands the buffered spans and self times to the tracer.
func (s *spanStack) flush() {
	t := s.t
	t.mu.Lock()
	for _, sp := range s.local {
		if len(t.kept) < maxKeptSpans {
			t.kept = append(t.kept, sp)
		} else {
			t.dropped++
		}
	}
	for l, d := range s.self {
		t.self[l] += d
	}
	t.spans += s.n
	t.mu.Unlock()
	s.local = s.local[:0]
	clear(s.self)
	s.n = 0
}

// writeFile writes the kept spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	sort.Slice(t.kept, func(i, j int) bool { return t.kept[i].Start < t.kept[j].Start })
	for _, sp := range t.kept {
		if err := enc.Encode(sp); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// addSelfTimes reports each layer's self time over the traced phase.
func (t *tracer) addSelfTimes(r *report) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range layers {
		r.set(l+".self_s", t.self[l].Seconds(), "s", t.spans)
	}
	r.set("bench.spans", float64(t.spans), "count", t.spans)
	r.set("bench.spans_dropped", float64(t.dropped), "count", t.spans)
}

// scrape is one parsed Prometheus exposition, from GET /metrics of a
// server or router, or from a layer's own metrics writer.
type scrape []obs.Sample

func parseScrape(text string) (scrape, error) {
	s, err := obs.ParseText(text)
	return scrape(s), err
}

// scrapeHandler fetches GET /metrics from an in-process handler.
func scrapeHandler(h http.Handler) (scrape, error) {
	req, err := http.NewRequest(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	w := newRespWriter()
	w.reset(true)
	h.ServeHTTP(w, req)
	if w.status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", w.status)
	}
	return parseScrape(w.body.String())
}

// sum adds every sample of the named series whose labels include all
// of want (key, value pairs).
func (s scrape) sum(name string, want ...string) float64 {
	total := 0.0
	for _, smp := range s {
		if smp.Name != name {
			continue
		}
		ok := true
		for i := 0; i+1 < len(want); i += 2 {
			if smp.Label(want[i]) != want[i+1] {
				ok = false
				break
			}
		}
		if ok {
			total += smp.Value
		}
	}
	return total
}

// delta is after.sum - before.sum for one series.
func delta(before, after scrape, name string, want ...string) float64 {
	return after.sum(name, want...) - before.sum(name, want...)
}

// meanDelta is the per-observation mean of a histogram over the
// interval between two scrapes, and the observation count.
func meanDelta(before, after scrape, hist string, want ...string) (float64, int) {
	n := delta(before, after, hist+"_count", want...)
	if n <= 0 {
		return 0, 0
	}
	return delta(before, after, hist+"_sum", want...) / n, int(n)
}

// runtimeSample is the process-wide runtime state the per-layer
// runtime metrics are deltas of.
type runtimeSample struct {
	allocs  uint64
	pauseNs uint64
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSample{allocs: ms.Mallocs, pauseNs: ms.PauseTotalNs}
}
