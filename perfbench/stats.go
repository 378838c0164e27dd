package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// samples is one latency series of a run, kept raw so every quantile is
// read from measured values.
type samples []time.Duration

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1), or 0 for
// an empty series. It sorts the series in place.
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// beyond is how many samples lie strictly past quantile q's rank: the
// guide's rule is to report the highest percentile with at least ten.
func (s samples) beyond(q float64) int {
	return len(s) - int(math.Ceil(q*float64(len(s))))
}

// metric is one reported number with its unit and sample count.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// report accumulates a run's metrics in print order.
type report struct {
	metrics []metric
	index   map[string]int
}

func newReport() *report { return &report{index: make(map[string]int)} }

// set records (or replaces) one metric.
func (r *report) set(name string, value float64, unit string, n int) {
	m := metric{Name: name, Value: value, Unit: unit, N: n}
	if i, ok := r.index[name]; ok {
		r.metrics[i] = m
		return
	}
	r.index[name] = len(r.metrics)
	r.metrics = append(r.metrics, m)
}

func (r *report) get(name string) (metric, bool) {
	i, ok := r.index[name]
	if !ok {
		return metric{}, false
	}
	return r.metrics[i], true
}

// latency records one quantile of a latency series in the given unit.
func (r *report) latency(name string, s samples, q float64, unit string) {
	r.set(name, durIn(s.quantile(q), unit), unit, len(s))
}

// durIn converts a duration to the named unit.
func durIn(d time.Duration, unit string) float64 {
	switch unit {
	case "s":
		return d.Seconds()
	case "ms":
		return float64(d) / 1e6
	case "us":
		return float64(d) / 1e3
	}
	panic("perfbench: unknown time unit " + unit)
}

// result is the final JSON line the benchmark contract defines.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printTable writes every metric of the run as one human-readable line
// with its unit and sample count.
func printTable(w io.Writer, title string, r *report) {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", title)
	for _, m := range r.metrics {
		fmt.Fprintf(bw, "%-34s %16s %-6s n=%d\n", m.Name, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit, m.N)
	}
	bw.Flush()
}

// printResult writes the contract's last line: the selected metrics of
// the run plus the op accounting.
func printResult(w io.Writer, correct bool, attempted, failed int64, r *report, names []string) error {
	out := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricJSON, len(names))}
	for _, name := range names {
		m, ok := r.get(name)
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		out.Metrics[name] = metricJSON{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// peakSampler tracks the peak resident set size (from
// /proc/self/statm) and the peak live heap (from runtime/metrics) while
// part of a run executes.
type peakSampler struct {
	stop chan struct{}
	done chan struct{}
	// Read after done is closed.
	rss, heap uint64 // bytes
	err       error
}

func startPeakSampler() *peakSampler {
	s := &peakSampler{stop: make(chan struct{}), done: make(chan struct{})}
	page := uint64(os.Getpagesize())
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			b, err := os.ReadFile("/proc/self/statm")
			if err != nil {
				s.err = err
				return
			}
			fields := strings.Fields(string(b))
			if len(fields) < 2 {
				s.err = fmt.Errorf("unexpected /proc/self/statm %q", b)
				return
			}
			pages, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				s.err = fmt.Errorf("parsing /proc/self/statm: %w", err)
				return
			}
			s.rss = max(s.rss, pages*page)
			metrics.Read(heap)
			s.heap = max(s.heap, heap[0].Value.Uint64())
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it, and returns both peaks in MB.
func (s *peakSampler) finish() (rssMB, heapMB float64, err error) {
	close(s.stop)
	<-s.done
	return float64(s.rss) / (1 << 20), float64(s.heap) / (1 << 20), s.err
}
