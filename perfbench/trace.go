package main

import (
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/httpsim"
	"repro/internal/obs"
	"repro/internal/urlutil"
)

// The traced phase attaches the program's own obs.Registry and
// obs.Tracer (StudyConfig.Metrics/Tracer, serve.Config.Metrics) and
// wraps the injectable interfaces with timing decorators. Everything
// else is timed here, around public calls. Per-layer metrics a workload
// does not exercise are reported as 0.

// perLayerUnits is every per-layer metric with its unit; BENCHMARK.json
// lists the same set.
var perLayerUnits = map[string]string{
	"web.generate_s":              "s",
	"web.advance_s":               "s",
	"web.render.hit_ratio":        "ratio",
	"crawler.fetch_s":             "s",
	"crawler.fetch_attempts":      "count",
	"httpsim.subresource_fetches": "count",
	"httpsim.subresource_s":       "s",
	"core.classify_s":             "s",
	"core.scan_s":                 "s",
	"core.inspections":            "count",
	"core.cache.hit_ratio":        "ratio",
	"core.delta.bytes":            "B",
	"core.delta.load_s":           "s",
	"core.delta.preloaded":        "count",
	"core.unattributed_share":     "ratio",
	"scanner.multi_us":            "us",
	"scanner.heuristic_us":        "us",
	"blacklist.matches_us":        "us",
	"jsengine.sandbox_trips":      "count",
	"report.render_s":             "s",
	"serve.admit_us_p50":          "us",
	"serve.queue_wait_ms_p50":     "ms",
	"serve.queue_wait_ms_p95":     "ms",
	"serve.service_ms_p50":        "ms",
	"serve.service_ms_p95":        "ms",
	"serve.scan_us_hit":           "us",
	"serve.scan_us_miss":          "us",
	"serve.fetch_us":              "us",
	"serve.cache.hit_ratio":       "ratio",
	"serve.cache.evictions":       "count",
	"serve.shed":                  "count",
	"serve.latency_p99_ms":        "ms",
	"loadgen.late_p50_ms":         "ms",
	"loadgen.late_p99_ms":         "ms",
	"runtime.gc_cycles":           "count",
	"runtime.gc_cpu_fraction":     "ratio",
	"trace.overhead_pct":          "%",
	"trace.items":                 "count",
	"web.busy_share":              "ratio",
	"httpsim.busy_share":          "ratio",
	"crawler.busy_share":          "ratio",
	"core.busy_share":             "ratio",
	"report.busy_share":           "ratio",
	"serve.busy_share":            "ratio",
}

// callTimer counts calls and sums their wall time; safe for concurrent use.
type callTimer struct {
	calls atomic.Int64
	nanos atomic.Int64
}

func (c *callTimer) observe(start time.Time) {
	c.nanos.Add(int64(time.Since(start)))
	c.calls.Add(1)
}

// reset zeroes the timer; a call in flight still adds its whole time.
func (c *callTimer) reset() {
	c.calls.Store(0)
	c.nanos.Store(0)
}

func (c *callTimer) seconds() float64 { return time.Duration(c.nanos.Load()).Seconds() }

// meanMicros is the mean call time in microseconds.
func (c *callTimer) meanMicros() float64 {
	return ratio(float64(c.nanos.Load())/1e3, float64(c.calls.Load()))
}

// timedTransport decorates an httpsim.RoundTripper with a callTimer.
type timedTransport struct {
	inner httpsim.RoundTripper
	timer *callTimer
}

func (t timedTransport) RoundTrip(req *httpsim.Request) (*httpsim.Response, error) {
	defer t.timer.observe(time.Now())
	return t.inner.RoundTrip(req)
}

// tracing is the traced phase's instrumentation and what it measured.
type tracing struct {
	reg    *obs.Registry
	tracer *obs.Tracer
	// subresource times the detector's own network pulls (the
	// multi-engine URL fetcher and the heuristic resource fetcher).
	subresource callTimer
	// render is time spent in report.* calls (main goroutine only).
	render time.Duration
	// advance holds replayed per-epoch universe advances.
	advance []time.Duration
	// Epoch deltas written by the traced longitudinal studies, and the
	// universe advances their runner performed.
	deltaStudies   int
	epochsAdvanced int
	deltaBytes     int64
	deltaLoad      time.Duration
	// Detector-split replay: mean per regular record of each detector's
	// public call.
	multi, heuristic, blacklist callTimer
}

func newTracing() *tracing {
	return &tracing{reg: obs.NewRegistry(), tracer: obs.NewTracer()}
}

// decorateDetector times the detector's sub-resource fetches.
func (tr *tracing) decorateDetector(d *core.Detector) {
	d.Multi.Fetcher = timedTransport{d.Multi.Fetcher, &tr.subresource}
	d.Heur.ResourceFetcher = timedTransport{d.Heur.ResourceFetcher, &tr.subresource}
}

// timeRender calls one report section, timing it when tracing.
func (tr *tracing) timeRender(section func() string) string {
	if tr == nil {
		return section()
	}
	start := time.Now()
	s := section()
	tr.render += time.Since(start)
	return s
}

// measureDeltas sizes the epoch deltas one longitudinal study wrote and
// times loading and validating each as the next epoch's consumer would.
func (tr *tracing) measureDeltas(cfg core.StudyConfig, dir string) error {
	tr.deltaStudies++
	tr.epochsAdvanced += cfg.Epochs - 1
	for e := 0; e < cfg.Epochs; e++ {
		path := core.DeltaPath(dir, e)
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		tr.deltaBytes += fi.Size()
		if e+1 == cfg.Epochs {
			continue
		}
		next := cfg
		next.Epoch = e + 1
		start := time.Now()
		ck, err := core.LoadCheckpoint(path)
		if err == nil {
			_, err = ck.ValidateDelta(next)
		}
		tr.deltaLoad += time.Since(start)
		if err != nil {
			return err
		}
	}
	return nil
}

// replayAdvance rebuilds a longitudinal study's universe chain the way
// the runner does, timing each core.NewStudyFrom(cfg@e, prev).
func (tr *tracing) replayAdvance(cfg core.StudyConfig) error {
	cfg.Epoch = 0
	st, err := core.NewStudy(cfg)
	if err != nil {
		return err
	}
	for e := 1; e < cfg.Epochs; e++ {
		next := cfg
		next.Epoch = e
		start := time.Now()
		st, err = core.NewStudyFrom(next, st.Universe)
		tr.advance = append(tr.advance, time.Since(start))
		if err != nil {
			return err
		}
	}
	return nil
}

// replaySample is the number of regular records the detector-split replay
// times.
const replaySample = 1000

// replayDetectors runs one batch study outside the timed phase and times
// each detector's public call on a fixed sample of its regular records.
func (tr *tracing) replayDetectors(cfg core.StudyConfig) error {
	st, err := core.NewStudy(cfg)
	if err != nil {
		return err
	}
	if err := st.Run(); err != nil {
		return err
	}
	var regular []crawler.Record
	for _, c := range st.Crawls {
		for _, rec := range c.Records {
			if st.Analyzer.Classifier.Classify(rec) == core.Regular {
				regular = append(regular, rec)
			}
		}
	}
	step := max(1, len(regular)/replaySample)
	var sample []crawler.Record
	for i := 0; i < len(regular) && len(sample) < replaySample; i += step {
		sample = append(sample, regular[i])
	}
	tr.timeDetectors(st.Detector, sample)
	return nil
}

// timeDetectors makes the calls core.Detector.Inspect makes, one detector
// at a time, for each record.
func (tr *tracing) timeDetectors(d *core.Detector, recs []crawler.Record) {
	for _, rec := range recs {
		start := time.Now()
		if d.FileScan && len(rec.Body) > 0 {
			d.Multi.ScanFile(rec.FinalURL, rec.Body)
		} else {
			d.Multi.ScanURL(rec.EntryURL)
		}
		tr.multi.observe(start)

		start = time.Now()
		if len(rec.Body) > 0 {
			d.Heur.ScanPage(rec.FinalURL, rec.ContentType, rec.Body)
		}
		tr.heuristic.observe(start)

		entry, final := hostOf(rec.EntryURL), hostOf(rec.FinalURL)
		start = time.Now()
		d.Blacklists.Matches(entry)
		if final != "" && final != entry {
			d.Blacklists.Matches(final)
		}
		tr.blacklist.observe(start)
	}
}

func hostOf(rawURL string) string {
	p, err := urlutil.Parse(rawURL)
	if err != nil {
		return ""
	}
	return p.Host
}

// report fills the study and detector layers from the traced phase;
// generate holds the phase's core.NewStudy times. It returns the busy
// seconds of the layers timed inside the phase (see setShares).
func (tr *tracing) report(l metrics, generate []time.Duration) map[string]float64 {
	counters := map[string]float64{}
	trips := 0.0
	for _, c := range tr.reg.Snapshot().Counters {
		counters[c.Name] = float64(c.Value)
		if strings.HasPrefix(c.Name, "jsengine.sandbox.") {
			trips += float64(c.Value)
		}
	}
	stage := map[obs.Stage]float64{}
	for _, row := range tr.tracer.Table() {
		stage[row.Stage] += row.TotalSeconds
	}
	hits, misses := counters["web.render.hits"], counters["web.render.misses"]
	cacheHits, cacheMisses := counters["pipeline.cache.hits"], counters["pipeline.cache.misses"]

	l.set("web.generate_s", percentile(seconds(generate), 0.5), "s")
	l.set("web.advance_s", percentile(seconds(tr.advance), 0.5), "s")
	l.set("web.render.hit_ratio", ratio(hits, hits+misses), "ratio")
	l.set("crawler.fetch_s", stage[obs.StageFetch], "s")
	l.set("crawler.fetch_attempts", counters["crawl.fetch_attempts"], "count")
	l.set("httpsim.subresource_fetches", float64(tr.subresource.calls.Load()), "count")
	l.set("httpsim.subresource_s", tr.subresource.seconds(), "s")
	l.set("core.classify_s", stage[obs.StageClassify], "s")
	l.set("core.scan_s", stage[obs.StageScan], "s")
	l.set("core.inspections", counters["pipeline.inspections"], "count")
	l.set("core.cache.hit_ratio", ratio(cacheHits, cacheHits+cacheMisses), "ratio")
	l.set("core.delta.bytes", ratio(float64(tr.deltaBytes), float64(tr.deltaStudies)), "B")
	l.set("core.delta.load_s", ratio(tr.deltaLoad.Seconds(), float64(tr.deltaStudies)), "s")
	l.set("core.delta.preloaded", counters["stream.delta.preloaded"], "count")
	l.set("scanner.multi_us", tr.multi.meanMicros(), "us")
	l.set("scanner.heuristic_us", tr.heuristic.meanMicros(), "us")
	l.set("blacklist.matches_us", tr.blacklist.meanMicros(), "us")
	l.set("jsengine.sandbox_trips", trips, "count")
	l.set("report.render_s", tr.render.Seconds(), "s")

	// A fetch span covers the transport and the page render it serves; a
	// scan span covers the detectors and their sub-resource pulls.
	return map[string]float64{
		"web":     percentile(seconds(tr.advance), 0.5) * float64(tr.epochsAdvanced),
		"crawler": stage[obs.StageFetch],
		"httpsim": tr.subresource.seconds(),
		"core":    stage[obs.StageClassify] + stage[obs.StageScan] - tr.subresource.seconds(),
		"report":  tr.render.Seconds(),
	}
}

// shareLayers are the layers with a busy share, in report order.
var shareLayers = []string{"web", "crawler", "httpsim", "core", "report", "serve"}

// setShares reports each layer's busy time in the traced phase as a share
// of wall x GOMAXPROCS, and what no timed layer accounts for (the fold,
// stream orchestration, the harness, GC and idle processors) as
// core.unattributed_share, so the shares sum to 1. Busy times are self
// times of timed calls, nested calls subtracted, so they do not overlap.
// A timed call also counts time its goroutine waited for a processor, so
// when runnable goroutines outnumber processors the shares overstate CPU
// use. (A sampled CPU profile would not, but on a 2-vCPU VM it missed
// most short bursts of work on otherwise idle threads.) The universe
// advances of a longitudinal study are not timed in place: their busy time
// is the replayed median times the advances the runner performed.
func setShares(l metrics, busy map[string]float64, wall time.Duration) {
	capacity := wall.Seconds() * procs()
	rest := 1.0
	for _, layer := range shareLayers {
		share := ratio(busy[layer], capacity)
		l.set(layer+".busy_share", share, "ratio")
		rest -= share
	}
	l.set("core.unattributed_share", rest, "ratio")
}

// fillIdleLayers reports every per-layer metric the workload did not set
// as 0: that layer did no work here.
func fillIdleLayers(l metrics) {
	for name, unit := range perLayerUnits {
		if _, ok := l[name]; !ok {
			l.set(name, 0, unit)
		}
	}
}
