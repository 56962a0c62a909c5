package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/crawler"
	"repro/internal/exchange"
	"repro/internal/httpsim"
	"repro/internal/obs"
	"repro/internal/simrand"
	"repro/internal/testutil"
	"repro/internal/web"
)

// The hostile-corpus chaos matrix: exchanges whose entire malicious pool
// is the jsengine bomb corpus, crawled under fault profiles and analyzed
// at several worker counts. The sandbox contract under test: every bomb
// is classified (never hangs, never panics, never kills the pipeline),
// sandbox trip counters are schedule-independent, and the usual crawl
// accounting survives.

// hostileRun is one executed bomb-corpus mini-study.
type hostileRun struct {
	bombs    []*web.Site
	crawls   []*crawler.Crawl
	analysis *Analysis
	an       *Analyzer
	// trips holds the jsengine.sandbox.* counters the analysis itself
	// incremented.
	trips map[string]int64
}

// runHostileChaos builds a single-exchange rig whose malicious pool is
// exactly the bomb corpus and executes crawl + analysis through the named
// fault profile.
func runHostileChaos(t testing.TB, seed uint64, profileName string, workers int) *hostileRun {
	t.Helper()
	cfg := web.DefaultConfig()
	cfg.Seed = seed
	cfg.BenignSites = 45
	cfg.MaliciousSites = 10
	u := web.Generate(cfg)
	bombs := u.PlantHostileSites()

	rng := simrand.New(seed).Sub("hostile-chaos")
	pool := &web.Pool{
		Benign:    u.BenignSites()[:40],
		MalByKind: map[web.MaliceKind][]*web.Site{web.MaliciousJS: bombs},
	}
	ec := exchange.Config{Name: "BombSurf", Host: "bombsurf.sim", Kind: exchange.AutoSurf,
		MinSurfSeconds: 5, SelfFrac: 0.05, PopularFrac: 0.10, MalFrac: 0.40}
	ex := exchange.New(ec, pool, u.PopularURLs, rng.Sub("ex"))
	ex.RegisterHomepage(u.Internet)

	profile, ok := httpsim.ProfileByName(profileName)
	if !ok {
		t.Fatalf("unknown profile %q", profileName)
	}
	transport := httpsim.RoundTripper(u.Internet)
	if !profile.Zero() {
		transport = httpsim.NewFaultInjector(transport, profile, seed+0x5eed)
	}
	crawls, err := crawlExchanges([]*exchange.Exchange{ex}, transport, []int{120})
	if err != nil {
		t.Fatalf("hostile chaos crawl (seed %d, profile %s): %v", seed, profileName, err)
	}

	metrics := obs.NewRegistry()
	det := NewDetector(u.Feed, u.Blacklists, u.Shorteners, u.Internet, DetectorConfig{Seed: seed + 1})
	det.Heur.Metrics = metrics
	an := &Analyzer{
		Classifier: &Classifier{ExchangeHosts: map[string]string{ec.Name: ec.Host}, PopularHosts: u.PopularHosts},
		Detector:   det,
		Workers:    workers,
	}
	a := an.Analyze(crawls)
	return &hostileRun{bombs: bombs, crawls: crawls, analysis: a, an: an, trips: sandboxCounters(metrics)}
}

// sandboxCounters extracts the jsengine.sandbox.* counter values from a
// registry.
func sandboxCounters(reg *obs.Registry) map[string]int64 {
	out := map[string]int64{}
	for _, c := range reg.Snapshot().Counters {
		if strings.HasPrefix(c.Name, "jsengine.sandbox.") {
			out[c.Name] = c.Value
		}
	}
	return out
}

// TestHostileChaosMatrix sweeps the bomb corpus through
// {off, hostile} x workers {1, 8} under the standard chaos invariants.
func TestHostileChaosMatrix(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	for _, profile := range []string{"off", "hostile"} {
		var baseline *hostileRun
		for _, workers := range []int{1, 8} {
			run := runHostileChaos(t, 42, profile, workers)
			a := run.analysis

			// Accounting: every crawled URL lands in exactly one class.
			if a.TotalAnalyzed()+a.TotalFailed() != a.TotalCrawled {
				t.Errorf("%s/workers=%d: analyzed %d + failed %d != crawled %d",
					profile, workers, a.TotalAnalyzed(), a.TotalFailed(), a.TotalCrawled)
			}
			if profile == "off" && a.TotalFailed() != 0 {
				t.Errorf("off/workers=%d: fault-free run failed %d fetches", workers, a.TotalFailed())
			}

			// Every successfully-fetched bomb page must be classified
			// malicious JavaScript — the sandbox turns the bomb into a
			// verdict instead of a hang.
			bombEntry := map[string]bool{}
			for _, b := range run.bombs {
				bombEntry[b.EntryURL] = true
			}
			seenBomb := false
			for _, c := range run.crawls {
				for _, rec := range c.Records {
					if !bombEntry[rec.EntryURL] || rec.FetchErr != "" {
						continue
					}
					seenBomb = true
					v := verdictOf(run.an, rec)
					if !v.Malicious {
						t.Errorf("%s/workers=%d: bomb %s not flagged malicious", profile, workers, rec.EntryURL)
						continue
					}
					if v.Category != CatJavaScript {
						t.Errorf("%s/workers=%d: bomb %s categorized %q, want %q",
							profile, workers, rec.EntryURL, v.Category, CatJavaScript)
					}
					if v.Heuristic == nil || (len(v.Heuristic.SandboxTripped) == 0 && !v.Heuristic.ObfuscatedJS) {
						t.Errorf("%s/workers=%d: bomb %s flagged without sandbox or obfuscation evidence",
							profile, workers, rec.EntryURL)
					}
				}
			}
			if !seenBomb {
				t.Errorf("%s/workers=%d: rotation never served a bomb page; the matrix exercised nothing", profile, workers)
			}

			// Sandbox trip counters must not depend on the analysis
			// schedule, and the analysis itself must be byte-identical
			// across worker counts.
			if baseline == nil {
				baseline = run
				if len(run.trips) == 0 {
					t.Errorf("%s: no jsengine.sandbox.* counters incremented", profile)
				}
				continue
			}
			if got, want := run.trips, baseline.trips; !reflect.DeepEqual(got, want) {
				t.Errorf("%s: sandbox counters differ across worker counts: %v vs %v", profile, got, want)
			}
			got := run.analysis
			got.CacheStats = baseline.analysis.CacheStats
			if !reflect.DeepEqual(got, baseline.analysis) {
				t.Errorf("%s: analysis diverged between workers=1 and workers=8", profile)
			}
		}
	}
}
