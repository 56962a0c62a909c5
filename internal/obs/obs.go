// Package obs is the pipeline's observability layer: a concurrency-safe
// metrics registry (counters, gauges, windowed histograms with
// p50/p95/p99) plus a stage tracer that stamps each URL's journey through
// the pipeline (fetch → parse → classify → scan → aggregate) with
// monotonic timings.
//
// The crawler, the core analysis pipeline, the scanner fleet and the
// fault-injection transport all publish into one Registry, so a single
// METRICS dump answers where a multi-million-URL study spends its time,
// how effective the verdict cache is, and how hard the crawler fought the
// substrate.
//
// Determinism contract (relied on by the golden and invariance tests):
//
//   - Counters are count-valued and deterministic: for a fixed seed and
//     configuration their final values are identical across worker counts
//     and schedules, because every increment corresponds to a
//     schedule-independent pipeline event (a record classified, a cache
//     miss, a retry whose fault was a pure function of (seed, url,
//     attempt)).
//   - Gauges and histograms are timing- or schedule-dependent (worker
//     occupancy, stage latencies, heap size) and are never asserted
//     exactly; tests and the CI invariance check exclude them.
//   - Nothing in this package writes to any report unless explicitly
//     dumped, so instrumented binaries produce byte-identical output
//     unless -metrics is passed.
//
// Every method is nil-receiver-safe: a nil *Registry hands out nil
// instruments whose methods are no-ops, so instrumented code paths carry
// no `if metrics != nil` branches and zero overhead decisions beyond a
// predictable nil check.
//
// Naming scheme: dotted lowercase paths, `<subsystem>.<event>[.<detail>]`
// — e.g. `pipeline.cache.hits`, `crawl.retries.conn-reset`. Add a metric
// by calling Registry.Counter / Gauge / Histogram with a new name at the
// instrumentation site; instruments are created on first use and appear
// in every subsequent Snapshot, sorted by name.
package obs

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a concurrency-safe named-metric registry. The zero value is
// not usable; call NewRegistry. A nil *Registry is a valid no-op sink.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Nil
// registries return a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil registries
// return a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. Nil
// registries return a nil (no-op) histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// LazyCounter is a named counter resolved on its first increment and held
// from then on, so a per-record call site takes the registry's lock once
// per owner rather than once per event. As with a Registry.Counter call
// at the event itself, the counter appears in snapshots only once the
// event has fired. A LazyCounter belongs to one goroutine; on a nil
// registry it is a no-op.
type LazyCounter struct {
	r    *Registry
	name string
	c    *Counter
}

// Lazy returns a LazyCounter for the named counter.
func (r *Registry) Lazy(name string) LazyCounter { return LazyCounter{r: r, name: name} }

// Inc adds one.
func (l *LazyCounter) Inc() {
	if l.c == nil {
		if l.r == nil {
			return
		}
		l.c = l.r.Counter(l.name)
	}
	l.c.Add(1)
}

// Counter is a monotonically increasing event count. Counters are the
// deterministic class of metric: equal across worker counts for a fixed
// seed and configuration.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time value (pool occupancy, configured sizes,
// derived rates). Gauges may be schedule-dependent and are excluded from
// determinism assertions.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histWindow is the ring-buffer capacity: quantiles are computed over the
// most recent histWindow observations while count/sum/min/max cover the
// whole run.
const histWindow = 1024

// Histogram records float64 observations (by convention seconds, metric
// names suffixed `_seconds`) in a fixed-size ring window. Quantiles are
// windowed; Count, Sum, Min and Max span every observation. The zero
// value is ready to use (the window is grown on demand up to histWindow).
type Histogram struct {
	mu     sync.Mutex
	window []float64
	next   int // next write position once the window is full
	count  int64
	sum    float64
	min    float64
	max    float64
}

func newHistogram() *Histogram {
	return &Histogram{window: make([]float64, 0, histWindow)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	// Grow until the ring reaches histWindow, then overwrite the oldest
	// slot. The guard is against histWindow, not cap(): a zero-value
	// Histogram starts with a nil window (len == cap == 0), and comparing
	// against cap() sent it straight to the indexed write below — an
	// index-out-of-range panic on the first Observe.
	if len(h.window) < histWindow {
		h.window = append(h.window, v)
		return
	}
	h.window[h.next] = v
	h.next++
	if h.next == len(h.window) {
		h.next = 0
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// HistStats is a histogram summary: whole-run count/sum/min/max/mean and
// windowed p50/p95/p99.
type HistStats struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Stats summarizes the histogram (zero value on nil or empty histograms).
func (h *Histogram) Stats() HistStats {
	if h == nil {
		return HistStats{}
	}
	h.mu.Lock()
	win := make([]float64, len(h.window))
	copy(win, h.window)
	s := HistStats{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	h.mu.Unlock()
	if s.Count == 0 {
		return s
	}
	s.Mean = s.Sum / float64(s.Count)
	sort.Float64s(win)
	s.P50 = quantile(win, 0.50)
	s.P95 = quantile(win, 0.95)
	s.P99 = quantile(win, 0.99)
	return s
}

// quantile returns the q-th quantile of a sorted non-empty sample using
// the nearest-rank method.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// MetricValue is one named int64 metric in a snapshot.
type MetricValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistValue is one named histogram summary in a snapshot.
type HistValue struct {
	Name string `json:"name"`
	HistStats
}

// RuntimeStats is the Go runtime snapshot taken alongside the metrics.
type RuntimeStats struct {
	Goroutines     int    `json:"goroutines"`
	HeapAllocBytes uint64 `json:"heapAllocBytes"`
	HeapObjects    uint64 `json:"heapObjects"`
	NumGC          uint32 `json:"numGC"`
}

// Snapshot is a deterministic-ordered view of every registered metric
// plus a runtime (goroutine/heap) sample. Counters are the deterministic
// section; Gauges, Histograms and Runtime are timing-dependent.
type Snapshot struct {
	Counters   []MetricValue `json:"counters"`
	Gauges     []MetricValue `json:"gauges,omitempty"`
	Histograms []HistValue   `json:"histograms,omitempty"`
	Runtime    RuntimeStats  `json:"runtime"`
}

// Snapshot captures every metric, sorted by name, plus runtime stats.
// A nil registry yields a snapshot with runtime stats only.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	snap.Runtime = readRuntime()
	if r == nil {
		return snap
	}
	r.mu.Lock()
	for name, c := range r.counters {
		snap.Counters = append(snap.Counters, MetricValue{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		snap.Gauges = append(snap.Gauges, MetricValue{Name: name, Value: g.Value()})
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h
	}
	r.mu.Unlock()
	// Histogram summaries take the per-histogram lock; do it outside the
	// registry lock so concurrent Observe calls never stack both.
	for name, h := range hists {
		snap.Histograms = append(snap.Histograms, HistValue{Name: name, HistStats: h.Stats()})
	}
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	sort.Slice(snap.Histograms, func(i, j int) bool { return snap.Histograms[i].Name < snap.Histograms[j].Name })
	return snap
}

func readRuntime() RuntimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeStats{
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: ms.HeapAlloc,
		HeapObjects:    ms.HeapObjects,
		NumGC:          ms.NumGC,
	}
}
