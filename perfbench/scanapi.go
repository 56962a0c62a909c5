package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/obs"
	"repro/internal/serve"
)

// scan-api: open-loop traffic through serve.APIHandler, in process. One
// generator goroutine sends batches at a fixed rate; each job's latency
// runs from its scheduled send time to the Job.Finished the server
// stamped, read back through GET /api/v1/jobs/{id} after the phase. The
// verdict cache is warmed during set-up from the same URL stream.

const (
	// scanScale gives a universe with comfortably more pages than the pool.
	scanScale = 8
	// scanCacheCapacity is slumserve's default -cache-capacity; the pool
	// is twice that, so the cache serves from a bounded, evicting set.
	scanCacheCapacity = 4096
	scanPoolSize      = 2 * scanCacheCapacity
	// scanSkew is the Zipf exponent of URL popularity, chosen for a
	// steady-state hit ratio near 0.7.
	scanSkew  = 0.65
	scanBatch = 8
	// scanRate (jobs/s) is light enough that latency_p95_ms is steady.
	scanRate = 250
	// scanWarmJobs batches are scanned through the cache during set-up.
	scanWarmJobs = 3000
	// scanRampJobs open-loop jobs precede each timed phase, so it starts
	// from a server in steady state. They are checked, not timed.
	scanRampJobs = scanRate
	// scanSetups is how many times set-up runs; setup_s is the median.
	scanSetups = 3
)

// verdict is what every repeat of a URL must agree on.
type verdict struct {
	malicious bool
	category  string
}

// scanEnv is a scan service ready to take traffic.
type scanEnv struct {
	study    *core.Study
	pool     []string
	cache    *core.ShardedVerdictCache
	generate time.Duration // core.NewStudy's share of set-up
}

// newScanEnv builds the universe and detector, picks the pool and makes
// an empty verdict cache.
func newScanEnv(seed, studySeed uint64) (*scanEnv, error) {
	cfg := core.DefaultStudyConfig()
	cfg.Seed = studySeed
	cfg.Scale = scanScale
	cfg.DriveShortenerTraffic = false // as slumserve builds its study
	start := time.Now()
	st, err := core.NewStudy(cfg)
	if err != nil {
		return nil, err
	}
	env := &scanEnv{study: st, generate: time.Since(start)}
	if env.pool, err = scanPool(st.Universe, seed, scanPoolSize); err != nil {
		return nil, err
	}
	env.cache = core.NewShardedVerdictCache(core.ShardedCacheConfig{Capacity: scanCacheCapacity})
	return env, nil
}

// warm scans the warm-up batches through the cache. Their results seed
// the consistency check.
func (env *scanEnv) warm(batches [][]string, first map[string]verdict, out *outcome) {
	sc := serve.NewScanner(env.study.Universe.Internet, env.study.Detector, env.cache, nil)
	for _, batch := range batches {
		for _, u := range batch {
			checkResult(sc.Scan(u), first, out)
		}
	}
}

// checkResult reports whether a URL result is a clean verdict that agrees
// with the first result seen for its URL.
func checkResult(r serve.URLResult, first map[string]verdict, out *outcome) bool {
	if r.Error != "" {
		out.fail("scan %s: fetch error %s (%s)", r.URL, r.Error, r.ErrKind)
		return false
	}
	v := verdict{r.Malicious, r.Category}
	if f, ok := first[r.URL]; !ok {
		first[r.URL] = v
	} else if f != v {
		out.fail("scan %s: verdict %+v, first result was %+v", r.URL, v, f)
		return false
	}
	return true
}

// send is one scheduled submission as the generator saw it.
type send struct {
	due   time.Time
	late  time.Duration // actual send time - due
	admit time.Duration // POST handling time
	code  int
	body  []byte
}

// waitUntil sleeps to 1 ms before due, then yields until due: the sleep
// alone overshoots by the timer's slack, which would time the timer.
func waitUntil(due time.Time) {
	if d := time.Until(due) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// openLoop sends one pre-encoded batch per interval, whatever the server's
// state. Only building and sending the request runs on the send path.
// The measured window opens with the first job after the ramp: onMeasure
// runs then, and the returned start is that job's due time.
func openLoop(h http.Handler, bodies [][]byte, interval time.Duration, onMeasure func()) (time.Time, []send) {
	sends := make([]send, len(bodies))
	origin := time.Now().Add(2 * time.Millisecond)
	start := origin.Add(scanRampJobs * interval)
	for i, body := range bodies {
		due := origin.Add(time.Duration(i) * interval)
		waitUntil(due)
		if i == scanRampJobs {
			onMeasure()
		}
		t0 := time.Now()
		req := httptest.NewRequest(http.MethodPost, "/api/v1/scan", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		sends[i] = send{due: due, late: t0.Sub(due), admit: time.Since(t0), code: w.Code, body: w.Body.Bytes()}
	}
	return start, sends
}

// scanPhase is what one open-loop phase measured, in ms unless noted.
type scanPhase struct {
	latency, queueWait, service, late []float64
	admitUS                           []float64
	jobs, results                     int
	wall                              time.Duration // start to the last Finished
	runtime                           runtimeSample
	stats                             serve.Stats
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runScanPhase serves schedule through a fresh server over scanner, drains
// it, then reads every job back and checks it. The first scanRampJobs
// jobs are not measured; onMeasure runs when the measured window opens.
func runScanPhase(scanner serve.URLScanner, reg *obs.Registry, schedule [][]string, first map[string]verdict,
	onMeasure func(), out *outcome) (scanPhase, error) {
	bodies := make([][]byte, len(schedule))
	for i, batch := range schedule {
		b, err := json.Marshal(serve.ScanRequest{URLs: batch})
		if err != nil {
			return scanPhase{}, err
		}
		bodies[i] = b
	}
	srv := serve.NewServer(scanner, serve.Config{Metrics: reg})
	h := serve.APIHandler(srv)

	var rt0 runtimeSample
	start, sends := openLoop(h, bodies, time.Second/scanRate, func() {
		onMeasure()
		rt0 = readRuntime()
	})
	srv.Close() // drain: every admitted job finishes
	ph := scanPhase{runtime: readRuntime().sub(rt0), stats: srv.Stats(), jobs: len(sends) - scanRampJobs}

	var last time.Time
	for i, s := range sends {
		job, ok := readJob(h, s, out)
		good := ok
		for _, r := range job.Results {
			good = checkResult(r, first, out) && good
		}
		if !good {
			out.failed++
		}
		if i < scanRampJobs || !ok {
			continue
		}
		ph.late = append(ph.late, ms(s.late))
		ph.admitUS = append(ph.admitUS, float64(s.admit)/1e3)
		ph.results += len(job.Results)
		ph.latency = append(ph.latency, ms(job.Finished.Sub(s.due)))
		ph.queueWait = append(ph.queueWait, ms(job.Started.Sub(job.Submitted)))
		ph.service = append(ph.service, ms(job.Finished.Sub(job.Started)))
		if job.Finished.After(last) {
			last = job.Finished
		}
	}
	ph.wall = last.Sub(start)
	if st := ph.stats; st.Shed+st.Completed != int64(len(sends)) || st.Limited != 0 {
		out.fail("server stats: %d shed + %d completed (%d rate-limited) for %d jobs sent",
			st.Shed, st.Completed, st.Limited, len(sends))
	}
	return ph, nil
}

// readJob fetches a submitted job through the API and checks it finished
// with one result per URL.
func readJob(h http.Handler, s send, out *outcome) (serve.Job, bool) {
	if s.code != http.StatusAccepted {
		out.fail("submit: status %d: %s", s.code, s.body)
		return serve.Job{}, false
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(s.body, &acc); err != nil {
		out.fail("submit: %v", err)
		return serve.Job{}, false
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/v1/jobs/"+acc.ID, nil))
	var job serve.Job
	if err := json.Unmarshal(w.Body.Bytes(), &job); err != nil {
		out.fail("job %s: %v", acc.ID, err)
		return serve.Job{}, false
	}
	if job.State != serve.JobDone || len(job.Results) != scanBatch {
		out.fail("job %s: state %s with %d results", acc.ID, job.State, len(job.Results))
		return serve.Job{}, false
	}
	return job, true
}

// timedScanner decorates the service's URLScanner, timing cache hits and
// misses apart. It passes cache statistics through, so /api/v1/stats is
// unchanged.
type timedScanner struct {
	inner     *serve.Scanner
	hit, miss callTimer
}

func (s *timedScanner) Scan(rawURL string) serve.URLResult {
	start := time.Now()
	r := s.inner.Scan(rawURL)
	if r.Cached {
		s.hit.observe(start)
	} else {
		s.miss.observe(start)
	}
	return r
}

func (s *timedScanner) CacheStats() (core.ShardedCacheStats, bool) { return s.inner.CacheStats() }

func runScanAPI(o options) (*outcome, error) {
	out := &outcome{endToEnd: metrics{}, perLayer: metrics{}}
	perPhase := scanRampJobs + int(o.seconds.Seconds()*scanRate)
	phases := 1
	if o.trace {
		phases = 2
	}
	studySeed := inputRNG(o.seed, "scan-api/study").Uint64N(1000) + 1

	// Set-up (universe, detector, pool, cache warm-up) runs scanSetups
	// times; the last one serves. The schedule is drawn, untimed, over the
	// first one's pool: every set-up rebuilds the same universe.
	first := map[string]verdict{}
	var env *scanEnv
	var schedule [][]string
	var setups, generate []time.Duration
	for i := 0; i < scanSetups; i++ {
		start := time.Now()
		e, err := newScanEnv(o.seed, studySeed)
		if err != nil {
			return nil, err
		}
		setup := time.Since(start)
		if schedule == nil {
			schedule = scanSchedule(o.seed, e.pool, scanWarmJobs+phases*perPhase, scanBatch, scanSkew)
		}
		start = time.Now()
		e.warm(schedule[:scanWarmJobs], first, out)
		setups = append(setups, setup+time.Since(start))
		generate = append(generate, e.generate)
		env = e
	}
	st := env.study
	scanner := serve.NewScanner(st.Universe.Internet, st.Detector, env.cache, nil)
	next := schedule[scanWarmJobs:]
	var cache0 core.ShardedCacheStats
	ph, err := runScanPhase(scanner, nil, next[:perPhase], first, func() { cache0 = env.cache.Stats() }, out)
	if err != nil {
		return nil, err
	}
	out.attempted += perPhase
	p50 := percentile(ph.latency, 0.5)
	late50 := percentile(ph.late, 0.5)
	fmt.Fprintf(o.log, "scan-api: %d jobs, %d results in %.2fs; latency p50 %.3f ms, generator late p50 %.4f ms; cache hit ratio %.3f\n",
		ph.jobs, ph.results, ph.wall.Seconds(), p50, late50, hitRatio(cache0, env.cache.Stats()))
	if late50 > p50/10 {
		out.fail("invalid run: median generator lateness %.4f ms exceeds a tenth of latency p50 %.4f ms", late50, p50)
	}
	e := out.endToEnd
	e.set("setup_s", percentile(seconds(setups), 0.5), "s")
	e.set("records_per_s", float64(ph.results)/ph.wall.Seconds(), "records/s")
	e.set("latency_p50_ms", p50, "ms")
	e.set("latency_p95_ms", percentile(ph.latency, 0.95), "ms")
	e.set("alloc_b_per_item", ratio(ph.runtime.allocBytes, float64(ph.jobs)), "B")
	e.set("peak_rss_mb", peakRSSMB(), "MB")
	if !o.trace {
		return out, nil
	}

	// Traced phase: the same service with the registry attached and every
	// injectable interface decorated, on the warm cache, continuing the
	// URL stream.
	tr := newTracing()
	var fetch callTimer
	tr.decorateDetector(st.Detector)
	traced := &timedScanner{inner: serve.NewScanner(timedTransport{st.Universe.Internet, &fetch}, st.Detector, env.cache, tr.reg)}
	tph, err := runScanPhase(traced, tr.reg, next[perPhase:2*perPhase], first, func() {
		st.Universe.DrainRenderCounters()
		cache0 = env.cache.Stats()
		for _, t := range []*callTimer{&fetch, &tr.subresource, &traced.hit, &traced.miss} {
			t.reset()
		}
	}, out)
	if err != nil {
		return nil, err
	}
	out.attempted += perPhase
	renderHits, renderMisses, _, _ := st.Universe.DrainRenderCounters()
	cache := env.cache.Stats()

	recs := fetchRecords(st, env.pool[:replaySample])
	tr.timeDetectors(st.Detector, recs)

	l := out.perLayer
	busy := tr.report(l, generate)
	l.set("web.render.hit_ratio", ratio(float64(renderHits), float64(renderHits+renderMisses)), "ratio")
	l.set("serve.admit_us_p50", percentile(tph.admitUS, 0.5), "us")
	l.set("serve.queue_wait_ms_p50", percentile(tph.queueWait, 0.5), "ms")
	l.set("serve.queue_wait_ms_p95", percentile(tph.queueWait, 0.95), "ms")
	l.set("serve.service_ms_p50", percentile(tph.service, 0.5), "ms")
	l.set("serve.service_ms_p95", percentile(tph.service, 0.95), "ms")
	l.set("serve.scan_us_hit", traced.hit.meanMicros(), "us")
	l.set("serve.scan_us_miss", traced.miss.meanMicros(), "us")
	l.set("serve.fetch_us", fetch.meanMicros(), "us")
	l.set("serve.cache.hit_ratio", hitRatio(cache0, cache), "ratio")
	l.set("serve.cache.evictions", float64(cache.Evictions-cache0.Evictions), "count")
	l.set("serve.shed", float64(tph.stats.Shed), "count")
	l.set("serve.latency_p99_ms", percentile(ph.latency, 0.99), "ms")
	l.set("loadgen.late_p50_ms", late50, "ms")
	l.set("loadgen.late_p99_ms", percentile(ph.late, 0.99), "ms")
	l.set("trace.items", float64(tph.jobs), "count")
	l.set("trace.overhead_pct", 100*(percentile(tph.latency, 0.5)/p50-1), "%")
	setRuntimeLayer(l, ph.runtime)
	admit := 0.0
	for _, us := range tph.admitUS {
		admit += us / 1e6
	}
	nested := fetch.seconds() + tr.subresource.seconds()
	busy["httpsim"] = nested
	busy["core"] = 0 // the detector runs inside serve's misses here
	busy["serve"] = admit + traced.hit.seconds() + traced.miss.seconds() - nested
	setShares(l, busy, tph.wall)
	fillIdleLayers(l)
	return out, nil
}

// hitRatio is the verdict cache's hit ratio between two snapshots.
func hitRatio(before, after core.ShardedCacheStats) float64 {
	hits, misses := float64(after.Hits-before.Hits), float64(after.Misses-before.Misses)
	return ratio(hits, hits+misses)
}

// fetchRecords fetches urls the way serve.Scanner does on a miss, for the
// detector-split replay.
func fetchRecords(st *core.Study, urls []string) []crawler.Record {
	client := crawler.NewClient(st.Universe.Internet)
	var recs []crawler.Record
	for _, u := range urls {
		res, err := client.Do(u, crawler.BrowserUA, "", 1)
		if err != nil {
			continue
		}
		recs = append(recs, crawler.Record{
			EntryURL:    u,
			FinalURL:    res.FinalURL,
			Redirects:   res.Redirects(),
			Status:      res.Final.StatusCode,
			ContentType: res.Final.ContentType,
			Body:        res.Final.Body,
		})
	}
	return recs
}
