// Repository-level benchmarks: one per table and figure of the paper's
// evaluation, plus the validation experiments and the ablation studies
// DESIGN.md calls out. Each benchmark regenerates its artifact from a
// shared cached study (built once per `go test -bench` run) and reports
// the artifact's headline number as a custom metric, so a bench run
// doubles as a compact reproduction check:
//
//	go test -bench=. -benchmem
package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/exchange"
	"repro/internal/httpsim"
	"repro/internal/jsengine"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/scanner"
	"repro/internal/serve"
	"repro/internal/shortener"
	"repro/internal/simrand"
	"repro/internal/stats"
	"repro/internal/web"
)

// benchScale keeps the shared study fast (~2.5k URLs) while preserving
// the paper-calibrated percentages.
const benchScale = 400

var (
	studyOnce sync.Once
	study     *core.Study
	studyErr  error
)

// runStudy builds the study, then Runs it, keeping every record.
func runStudy(cfg core.StudyConfig) (*core.Study, error) {
	st, err := core.NewStudy(cfg)
	if err != nil {
		return nil, err
	}
	if err := st.Run(); err != nil {
		return nil, err
	}
	return st, nil
}

func benchStudy(b *testing.B) *core.Study {
	b.Helper()
	studyOnce.Do(func() {
		cfg := core.DefaultStudyConfig()
		cfg.Seed = 1
		cfg.Scale = benchScale
		cfg.MinMalPerPool = 14
		cfg.MinBenignPerPool = 25
		study, studyErr = runStudy(cfg)
	})
	if studyErr != nil {
		b.Fatal(studyErr)
	}
	return study
}

// BenchmarkTable1 regenerates the per-exchange URL statistics (Table I)
// by re-running classification + detection + aggregation over the cached
// crawl records.
func BenchmarkTable1(b *testing.B) {
	st := benchStudy(b)
	b.ReportAllocs()
	b.ResetTimer()
	var a *core.Analysis
	for i := 0; i < b.N; i++ {
		a = st.Analyzer.Analyze(st.Crawls)
		_ = report.Table1(a)
	}
	b.ReportMetric(a.OverallPctMalicious()*100, "%malicious")
}

// BenchmarkAnalyzeParallel measures the study engine over recorded
// crawls (Analyzer.Analyze) across worker counts with the verdict cache
// on and off. The cache hit rate is
// reported as a custom metric; rotation re-surfs the same entry URLs, so
// a healthy run shows a substantial %cache-hit.
func BenchmarkAnalyzeParallel(b *testing.B) {
	st := benchStudy(b)
	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		for _, cached := range []bool{false, true} {
			name := fmt.Sprintf("workers=%d/cache=%v", workers, cached)
			b.Run(name, func(b *testing.B) {
				an := &core.Analyzer{
					Classifier:   st.Analyzer.Classifier,
					Detector:     st.Detector,
					Workers:      workers,
					DisableCache: !cached,
				}
				b.ReportAllocs()
				b.ResetTimer()
				var a *core.Analysis
				for i := 0; i < b.N; i++ {
					a = an.Analyze(st.Crawls)
				}
				cs := a.CacheStats
				b.ReportMetric(stats.Ratio(cs.Hits, cs.Hits+cs.Misses)*100, "%cache-hit")
			})
		}
	}
}

// BenchmarkTable2 regenerates the per-exchange domain statistics.
func BenchmarkTable2(b *testing.B) {
	st := benchStudy(b)
	a := st.Analysis
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = report.Table2(a)
	}
	domains := 0
	for _, row := range a.PerExchange {
		domains += row.Domains
	}
	b.ReportMetric(float64(domains), "domains")
}

// BenchmarkTable3 regenerates the malware categorization.
func BenchmarkTable3(b *testing.B) {
	st := benchStudy(b)
	a := st.Analysis
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = report.Table3(a)
	}
	b.ReportMetric(a.CategoryCounts.Share(string(core.CatBlacklisted))*100, "%blacklisted")
}

// BenchmarkTable4 regenerates the shortened-URL hit statistics join.
func BenchmarkTable4(b *testing.B) {
	st := benchStudy(b)
	a := st.Analysis
	b.ReportAllocs()
	b.ResetTimer()
	var rows int
	for i := 0; i < b.N; i++ {
		s := a.ShortURLStats(st.Universe.Shorteners)
		_ = report.Table4(s)
		rows = len(s)
	}
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkFigure2 renders the malware-ratio bars.
func BenchmarkFigure2(b *testing.B) {
	st := benchStudy(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = report.Figure2(st.Analysis)
	}
}

// BenchmarkFigure3 renders the cumulative time series with burst
// detection across all nine exchanges.
func BenchmarkFigure3(b *testing.B) {
	st := benchStudy(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = report.Figure3(st.Analysis)
	}
	bursts := 0
	for _, row := range st.Analysis.PerExchange {
		s := st.Analysis.Series[row.Name]
		w := s.Len() / 20
		if w < 1 {
			w = 1
		}
		bursts += len(s.Bursts(w, 3))
	}
	b.ReportMetric(float64(bursts), "bursts")
}

// BenchmarkFigure4 walks the longest planted redirect chain (the Figure 4
// case study) end to end, including the meta-refresh hop.
func BenchmarkFigure4(b *testing.B) {
	st := benchStudy(b)
	var site *web.Site
	for _, s := range st.Universe.SitesOfKind(web.Redirector) {
		if site == nil || s.ChainLen > site.ChainLen {
			site = s
		}
	}
	client := crawler.NewClient(st.Universe.Internet)
	b.ReportAllocs()
	b.ResetTimer()
	var hops int
	for i := 0; i < b.N; i++ {
		res, err := client.Get(site.EntryURL, crawler.BrowserUA, "")
		if err != nil {
			b.Fatal(err)
		}
		hops = res.Redirects()
	}
	b.ReportMetric(float64(hops), "redirects")
}

// BenchmarkFigure5 regenerates the redirect-count distribution.
func BenchmarkFigure5(b *testing.B) {
	st := benchStudy(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = report.Figure5(st.Analysis)
	}
	if hb := st.Analysis.RedirectHist.Buckets(); len(hb) > 0 {
		b.ReportMetric(float64(hb[len(hb)-1].Value), "max-redirects")
	}
}

// BenchmarkFigure6 regenerates the TLD breakdown.
func BenchmarkFigure6(b *testing.B) {
	st := benchStudy(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = report.Figure6(st.Analysis)
	}
	b.ReportMetric(st.Analysis.TLDCounts.Share("com")*100, "%com")
}

// BenchmarkFigure7 regenerates the content-category breakdown.
func BenchmarkFigure7(b *testing.B) {
	st := benchStudy(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = report.Figure7(st.Analysis)
	}
	b.ReportMetric(st.Analysis.ContentCategories.Share("Business")*100, "%business")
}

// BenchmarkGoldStandard reproduces the §III-B tool vetting over a
// 20-sample gold set.
func BenchmarkGoldStandard(b *testing.B) {
	st := benchStudy(b)
	client := crawler.NewClient(st.Universe.Internet)
	var gold []scanner.GoldSample
	for _, kind := range []web.MaliceKind{web.MaliciousJS, web.Miscellaneous, web.Blacklisted} {
		for _, site := range st.Universe.SitesOfKind(kind) {
			if len(gold) >= 20 {
				break
			}
			res, err := client.Get(site.EntryURL, crawler.BrowserUA, "")
			if err != nil {
				b.Fatal(err)
			}
			gold = append(gold, scanner.GoldSample{URL: res.FinalURL, Content: res.Final.Body})
		}
	}
	tools := []scanner.Tool{scanner.AsTool(st.Detector.Multi, 2)}
	for name, coverage := range scanner.StandardToolCoverages {
		tools = append(tools, scanner.NewWeakTool(name, st.Universe.Feed, coverage, 77))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var top float64
	for i := 0; i < b.N; i++ {
		res := scanner.Vet(tools, gold)
		top = res[0].Accuracy()
	}
	b.ReportMetric(top*100, "%top-tool")
}

// BenchmarkCampaign reproduces the §IV paid-campaign validation purchase
// (2,500 visits) against a dummy site.
func BenchmarkCampaign(b *testing.B) {
	st := benchStudy(b)
	st.Universe.Internet.Register("bench-dummy.sim", func(req *httpsim.Request) *httpsim.Response {
		return httpsim.HTML("<html>dummy</html>")
	})
	var manual *exchange.Exchange
	for _, ex := range st.Exchanges {
		if ex.Config().Kind == exchange.ManualSurf {
			manual = ex
			break
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var rec *exchange.CampaignReceipt
	for i := 0; i < b.N; i++ {
		rec = manual.BuyCampaign(st.Universe.Internet, "http://bench-dummy.sim/", 2500, 5.00)
	}
	b.ReportMetric(float64(rec.DeliveredVisits), "visits")
	b.ReportMetric(float64(rec.UniqueIPs), "unique-ips")
}

// --- ablations (DESIGN.md "design choices worth ablating") ---

// BenchmarkAblationCloaking compares detection with the anti-cloaking
// local-file scan (the paper's mitigation) against URL-only scanning.
func BenchmarkAblationCloaking(b *testing.B) {
	st := benchStudy(b)
	for _, mode := range []struct {
		name     string
		fileScan bool
	}{
		{"file-scan", true},
		{"url-only", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			det := *st.Detector
			det.FileScan = mode.fileScan
			an := &core.Analyzer{Classifier: st.Analyzer.Classifier, Detector: &det}
			b.ResetTimer()
			var a *core.Analysis
			for i := 0; i < b.N; i++ {
				a = an.Analyze(st.Crawls)
			}
			b.ReportMetric(float64(a.TotalMalicious), "detected")
		})
	}
}

// BenchmarkAblationConsensus sweeps the blacklist consensus threshold
// (the paper uses >= 2 lists to suppress stale-list false positives).
func BenchmarkAblationConsensus(b *testing.B) {
	st := benchStudy(b)
	for _, threshold := range []int{1, 2, 3} {
		b.Run(map[int]string{1: "any-list", 2: "two-lists", 3: "three-lists"}[threshold], func(b *testing.B) {
			fp, hits := 0, 0
			benign := st.Universe.BenignSites()
			bad := st.Universe.SitesOfKind(web.Blacklisted)
			old := st.Universe.Blacklists.Threshold
			st.Universe.Blacklists.Threshold = threshold
			defer func() { st.Universe.Blacklists.Threshold = old }()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fp, hits = 0, 0
				for _, s := range benign {
					if st.Universe.Blacklists.Malicious(s.Host) {
						fp++
					}
				}
				for _, s := range bad {
					if st.Universe.Blacklists.Malicious(s.Host) {
						hits++
					}
				}
			}
			b.ReportMetric(float64(hits)/float64(len(bad))*100, "%recall")
			b.ReportMetric(float64(fp), "false-positives")
		})
	}
}

// BenchmarkAblationSandbox compares JS analysis with and without the
// sandbox on an obfuscated injector — the static-only configuration
// cannot see the injected iframe at all.
func BenchmarkAblationSandbox(b *testing.B) {
	payload := `document.write('<iframe src="http://hidden-payload.sim/x" width="1" height="1"></iframe>');`
	obf := payload
	for i := 0; i < 2; i++ {
		obf = `eval(unescape("` + jsengine.Escape(obf) + `"));`
	}
	page := []byte(`<html><script>` + obf + `</script></html>`)
	for _, mode := range []struct {
		name    string
		sandbox bool
	}{
		{"sandbox", true},
		{"static-only", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			h := scanner.NewHeuristic()
			h.Sandbox = mode.sandbox
			b.ReportAllocs()
			b.ResetTimer()
			found := 0
			for i := 0; i < b.N; i++ {
				f := h.ScanPage("http://site.sim/", "text/html", page)
				found = len(f.HiddenIframes)
			}
			b.ReportMetric(float64(found), "iframes-found")
		})
	}
}

// BenchmarkExecuteHostile runs the full bomb corpus through the budgeted
// sandbox. Every script trips a structured code; the benchmark guards the
// cost of the worst case the production path can hit — a page whose
// script burns its entire budget before the verdict lands.
func BenchmarkExecuteHostile(b *testing.B) {
	scripts := web.HostileScripts()
	budget := jsengine.DefaultBudget()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The whole corpus per op: B/op and allocs/op are then
		// independent of b.N, which is what lets benchguard hold them
		// to a fixed budget.
		for _, hs := range scripts {
			_, err := jsengine.ExecuteBudget(hs.Src, budget)
			if _, ok := jsengine.CodeOf(err); !ok {
				b.Fatalf("%s: no structured code (err %v)", hs.Name, err)
			}
		}
	}
}

// BenchmarkAblationNesting measures shortened-URL chain resolution as the
// nesting depth grows — the evasion §IV-A-5 describes.
func BenchmarkAblationNesting(b *testing.B) {
	in := httpsim.NewInternet()
	reg := shortener.NewRegistry()
	svcs := []*shortener.Service{reg.Add("goo.gl.sim", in), reg.Add("bit.ly.sim", in), reg.Add("tinyurl.sim", in)}
	target := "http://final-target.sim/payload"
	in.Register("final-target.sim", func(*httpsim.Request) *httpsim.Response { return httpsim.HTML("payload") })
	client := httpsim.NewClient(in)
	client.MaxHops = 16
	for _, depth := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "depth-1", 2: "depth-2", 4: "depth-4", 8: "depth-8"}[depth], func(b *testing.B) {
			alias := target
			for i := 0; i < depth; i++ {
				alias = svcs[i%len(svcs)].Shorten(alias)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := client.Get(alias, "UA", "")
				if err != nil || res.FinalURL != target || res.Redirects() != depth {
					b.Fatal("chain resolution failed")
				}
			}
		})
	}
}

// BenchmarkStreamingStudy measures the study engine over a live crawl
// (Study.RunStream) end to end as the crawl grows (scale 20 ≈ 50k URLs
// up to scale 5 ≈ 200k URLs). The custom alloc-B/record metric is the
// regression guard for the engine's memory model: it must stay roughly
// flat as the record count quadruples — allocation proportional to the
// stream, with no O(total-URLs) resident set. BenchmarkFullStudy
// measures the same pass with every record kept.
func BenchmarkStreamingStudy(b *testing.B) {
	for _, scale := range []int{20, 10, 5} {
		b.Run(fmt.Sprintf("scale-%d", scale), func(b *testing.B) {
			benchStudyRuns(b, scale, func(cfg core.StudyConfig) (*core.Study, error) {
				return core.RunStudyStream(cfg, core.RunOptions{})
			})
		})
	}
}

// benchStudyRuns runs one study per iteration (seeds 1..b.N) at scale,
// shortener traffic off, and reports allocation per crawled record.
func benchStudyRuns(b *testing.B, scale int, run func(core.StudyConfig) (*core.Study, error)) {
	cfg := core.DefaultStudyConfig()
	cfg.Scale = scale
	cfg.DriveShortenerTraffic = false
	b.ReportAllocs()
	records := 0
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i) + 1
		st, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		records += st.Analysis.TotalCrawled
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(records), "alloc-B/record")
	b.ReportMetric(float64(records)/float64(b.N), "records/op")
}

// BenchmarkLongitudinalStudy measures the flagship multi-epoch workload:
// 8 epochs at scale 20 with low churn and a lagged blacklist, in delta
// mode, on the production path — universes advanced epoch-to-epoch,
// cross-epoch render memoization, the next epoch prefetched while the
// current one streams. The sub-benchmark keeps its mode=incremental name
// so the BENCH_5.json key and the CI selector stay stable.
// alloc-B/record and ms/epoch are BENCH-guarded: with low churn an
// epoch's cost must track the churn diff, not the universe size.
func BenchmarkLongitudinalStudy(b *testing.B) {
	b.Run("mode=incremental", func(b *testing.B) {
		const epochs = 8
		cfg := core.DefaultStudyConfig()
		cfg.Seed = 1
		cfg.Scale = 20
		cfg.Epochs = epochs
		cfg.ChurnFrac = 0.05
		cfg.BlacklistLag = 1
		cfg.DriveShortenerTraffic = false
		b.ReportAllocs()
		records := 0
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := core.RunLongitudinalStudy(cfg, core.LongitudinalOptions{DeltaDir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range res.Epochs {
				records += e.Analysis.TotalCrawled
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(records), "alloc-B/record")
		b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(epochs*b.N), "ms/epoch")
	})
}

// BenchmarkShardMerge measures the shard-merge path end to end:
// decode every shard checkpoint of a multi-exchange study and fold them
// into one Analysis. The records/sec throughput is the BENCH-guarded
// number (a floor, via min_benchmarks) — merge cost is what bounds how
// cheaply a 100M-URL study can be stitched back together from shards, so
// it must stay far below crawl cost.
func BenchmarkShardMerge(b *testing.B) {
	cfg := core.DefaultStudyConfig()
	cfg.Seed = 1
	cfg.Scale = 300
	cfg.DriveShortenerTraffic = false
	cfg.Workers = 4
	dir := b.TempDir()
	st, err := core.RunStudyStream(cfg, core.RunOptions{CheckpointDir: dir, KeepShards: true})
	if err != nil {
		b.Fatal(err)
	}
	paths := make([]string, len(st.Exchanges))
	for i := range paths {
		paths[i] = core.ShardPath(dir, i)
	}
	records := st.Analysis.TotalCrawled
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.NewShardMerger()
		for _, p := range paths {
			ck, err := core.LoadCheckpoint(p)
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Add(ck); err != nil {
				b.Fatal(err)
			}
		}
		a, err := m.Analysis()
		if err != nil {
			b.Fatal(err)
		}
		if a.TotalCrawled != records {
			b.Fatalf("merged %d records, want %d", a.TotalCrawled, records)
		}
	}
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
}

// BenchmarkServeSoak drives the scan service end to end through its HTTP
// API: 32 concurrent clients across 2 tenants submit 5,000 two-URL scan
// jobs against a bounded queue of depth 64 and poll each job to
// completion. The BENCH-guarded numbers of the serve-soak CI job are qps
// (completed jobs per second, a min_benchmarks floor — deliberately loose
// like BenchmarkShardMerge's, because it is wall-clock-derived and CI
// machines vary) and p99-ms (windowed 99th-percentile job latency, a
// maximum). Sheds are retried until accepted, so every op completes
// exactly soakJobs jobs: qps measures sustained service throughput under
// backpressure, not admission luck.
func BenchmarkServeSoak(b *testing.B) {
	const (
		soakJobs    = 5000
		soakClients = 32
		soakTenants = 2
		soakBatch   = 2
	)
	cfg := core.DefaultStudyConfig()
	cfg.Seed = 1
	cfg.Scale = 900
	cfg.DriveShortenerTraffic = false
	st, err := core.NewStudy(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var urls []string
	for _, site := range st.Universe.Sites {
		urls = append(urls, site.EntryURL)
	}

	jobLat := obs.NewRegistry().Histogram("bench.job_seconds")
	completed := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := core.NewShardedVerdictCache(core.ShardedCacheConfig{Capacity: 4096})
		scanner := serve.NewScanner(st.Universe.Internet, st.Detector, cache, nil)
		srv := serve.NewServer(scanner, serve.Config{QueueDepth: 64})
		api := serve.APIHandler(srv)

		var ticket atomic.Int64
		var done atomic.Int64
		var fail atomic.Value
		var wg sync.WaitGroup
		for c := 0; c < soakClients; c++ {
			c := c
			wg.Add(1)
			go func() {
				defer wg.Done()
				tenant := fmt.Sprintf("tenant-%d", c%soakTenants)
				for {
					n := ticket.Add(1)
					if n > soakJobs {
						return
					}
					batch := make([]string, soakBatch)
					for j := range batch {
						batch[j] = urls[(int(n)*7+j*3)%len(urls)]
					}
					body, _ := json.Marshal(serve.ScanRequest{URLs: batch})

					var jobID string
					t0 := time.Now()
					for {
						req := httptest.NewRequest("POST", "/api/v1/scan", bytes.NewReader(body))
						req.Header.Set(serve.TenantHeader, tenant)
						w := httptest.NewRecorder()
						api.ServeHTTP(w, req)
						if w.Code == 429 { // queue full: back off and retry
							time.Sleep(100 * time.Microsecond)
							continue
						}
						if w.Code != 202 {
							fail.Store(fmt.Errorf("submit status %d: %s", w.Code, w.Body.String()))
							return
						}
						var acc struct {
							ID string `json:"id"`
						}
						if err := json.Unmarshal(w.Body.Bytes(), &acc); err != nil {
							fail.Store(err)
							return
						}
						jobID = acc.ID
						break
					}
					for {
						w := httptest.NewRecorder()
						api.ServeHTTP(w, httptest.NewRequest("GET", "/api/v1/jobs/"+jobID, nil))
						var job serve.Job
						if err := json.Unmarshal(w.Body.Bytes(), &job); err != nil {
							fail.Store(fmt.Errorf("poll %s: %w", jobID, err))
							return
						}
						if job.State == serve.JobDone {
							jobLat.ObserveDuration(time.Since(t0))
							done.Add(1)
							break
						}
						time.Sleep(200 * time.Microsecond)
					}
				}
			}()
		}
		wg.Wait()
		srv.Close()
		if err := fail.Load(); err != nil {
			b.Fatal(err)
		}
		if done.Load() != soakJobs {
			b.Fatalf("completed %d jobs, want %d", done.Load(), soakJobs)
		}
		completed += soakJobs
	}
	b.StopTimer()
	b.ReportMetric(float64(completed)/b.Elapsed().Seconds(), "qps")
	b.ReportMetric(jobLat.Stats().P99*1000, "p99-ms")
}

// BenchmarkFullStudy measures the complete end-to-end reproduction
// (universe + the one-pass Study.Run, which keeps every record) at bench
// scale 900 and at scale 20, paper-report's size. scale-20's
// alloc-B/record is the BENCH_5.json guard for the batch path: HAR
// capture or a second pass over the records shows up there.
func BenchmarkFullStudy(b *testing.B) {
	for _, scale := range []int{900, 20} {
		b.Run(fmt.Sprintf("scale-%d", scale), func(b *testing.B) {
			benchStudyRuns(b, scale, runStudy)
		})
	}
}

var _ = simrand.New // anchor shared import usage across build configs
