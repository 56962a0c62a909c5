package obs

import (
	"sort"
	"sync"
	"time"
)

// Stage names one step of a URL's journey through the pipeline.
type Stage string

// The pipeline stages, in journey order.
const (
	StageFetch    Stage = "fetch"    // crawler: full fetch incl. redirects and retries
	StageParse    Stage = "parse"    // content parse (HTML title/category extraction)
	StageClassify Stage = "classify" // referral classification (self/popular/regular/failed)
	StageScan     Stage = "scan"     // detector stack over a regular record
)

// stageRank orders stages for deterministic table output.
var stageRank = map[Stage]int{
	StageFetch:    0,
	StageParse:    1,
	StageClassify: 2,
	StageScan:     3,
}

// Tracer aggregates per-(scope, stage) span counts and monotonic wall
// times. Scopes are exchange names in the study pipeline, so Table()
// yields the per-exchange stage-latency table. Safe for concurrent use;
// a nil *Tracer is a valid no-op sink.
type Tracer struct {
	mu   sync.Mutex
	aggs map[traceKey]*stageAgg
}

type traceKey struct {
	scope string
	stage Stage
}

type stageAgg struct {
	count int64
	total time.Duration
	hist  *Histogram
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{aggs: make(map[traceKey]*stageAgg)}
}

// Span is one in-flight stage timing, produced by Start and finished by
// End. The zero Span (from a nil tracer) is a no-op.
type Span struct {
	t     *Tracer
	scope string
	stage Stage
	start time.Time
}

// Start opens a span for one stage execution. time.Now carries the
// monotonic clock, so End records a monotonic duration regardless of wall
// clock adjustments.
func (t *Tracer) Start(scope string, stage Stage) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, scope: scope, stage: stage, start: time.Now()}
}

// End closes the span and records its duration.
func (s Span) End() {
	if s.t == nil {
		return
	}
	s.t.Observe(s.scope, s.stage, time.Since(s.start))
}

// Observe records one completed stage execution of duration d.
func (t *Tracer) Observe(scope string, stage Stage, d time.Duration) {
	if t == nil {
		return
	}
	key := traceKey{scope: scope, stage: stage}
	t.mu.Lock()
	agg, ok := t.aggs[key]
	if !ok {
		agg = &stageAgg{hist: newHistogram()}
		t.aggs[key] = agg
	}
	agg.count++
	agg.total += d
	t.mu.Unlock()
	// Histogram has its own lock; keep it out of the tracer's critical
	// section.
	agg.hist.Observe(d.Seconds())
}

// StageRow is one row of the per-scope stage-latency table. Count is
// deterministic (one increment per pipeline event); every duration field
// is wall-clock and excluded from determinism assertions.
type StageRow struct {
	Scope string `json:"scope"`
	Stage Stage  `json:"stage"`
	Count int64  `json:"count"`
	// TotalSeconds is cumulative wall time across all spans; the
	// quantiles are over the most recent window (see Histogram).
	TotalSeconds float64 `json:"totalSeconds"`
	MeanSeconds  float64 `json:"meanSeconds"`
	P50Seconds   float64 `json:"p50Seconds"`
	P95Seconds   float64 `json:"p95Seconds"`
	P99Seconds   float64 `json:"p99Seconds"`
}

// Table flattens the tracer into rows sorted by scope, then stage in
// journey order — a deterministic presentation order. A nil tracer
// returns nil.
func (t *Tracer) Table() []StageRow {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	keys := make([]traceKey, 0, len(t.aggs))
	for k := range t.aggs {
		keys = append(keys, k)
	}
	rows := make(map[traceKey]StageRow, len(keys))
	for k, agg := range t.aggs {
		rows[k] = StageRow{
			Scope:        k.scope,
			Stage:        k.stage,
			Count:        agg.count,
			TotalSeconds: agg.total.Seconds(),
		}
	}
	hists := make(map[traceKey]*Histogram, len(keys))
	for k, agg := range t.aggs {
		hists[k] = agg.hist
	}
	t.mu.Unlock()

	sort.Slice(keys, func(i, j int) bool {
		if keys[i].scope != keys[j].scope {
			return keys[i].scope < keys[j].scope
		}
		return stageRank[keys[i].stage] < stageRank[keys[j].stage]
	})
	out := make([]StageRow, 0, len(keys))
	for _, k := range keys {
		row := rows[k]
		st := hists[k].Stats()
		row.MeanSeconds = st.Mean
		row.P50Seconds = st.P50
		row.P95Seconds = st.P95
		row.P99Seconds = st.P99
		out = append(out, row)
	}
	return out
}
