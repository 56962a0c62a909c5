package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/crawler"
	"repro/internal/exchange"
	"repro/internal/httpsim"
	"repro/internal/simrand"
	"repro/internal/testutil"
	"repro/internal/web"
)

// The chaos harness: sweep small end-to-end studies through every fault
// profile across many seeds, and check the resilience properties the
// fault-injection layer promises — no panics, no goroutine leaks, every
// crawled URL accounted for (analyzed + failed == crawled), and verdicts
// on successfully-fetched URLs identical to the fault-free run.

// chaosRun is one executed mini-study.
type chaosRun struct {
	crawls   []*crawler.Crawl
	analysis *Analysis
	an       *Analyzer
}

// runChaos builds a compact two-exchange rig from the seed and executes
// crawl + analysis through the named fault profile. Exchange rotation
// state is single-use, so each run rebuilds the whole rig; the same seed
// reproduces the same universe and the same rotation, which is what lets
// a faulty run be compared record-by-record against a fault-free one.
func runChaos(t testing.TB, seed uint64, profileName string, workers int) *chaosRun {
	t.Helper()
	cfg := web.DefaultConfig()
	cfg.Seed = seed
	cfg.BenignSites = 90
	cfg.MaliciousSites = 70
	u := web.Generate(cfg)
	rng := simrand.New(seed).Sub("chaos")
	pools, err := u.SplitPools(rng.Sub("pools"), []web.PoolSpec{
		{Benign: 40, Malicious: 25},
		{Benign: 40, Malicious: 25},
	})
	if err != nil {
		t.Fatal(err)
	}
	configs := []exchange.Config{
		{Name: "ChaosAuto", Host: "chaosauto.sim", Kind: exchange.AutoSurf,
			MinSurfSeconds: 5, SelfFrac: 0.05, PopularFrac: 0.10, MalFrac: 0.30},
		{Name: "ChaosManual", Host: "chaosmanual.sim", Kind: exchange.ManualSurf,
			MinSurfSeconds: 20, SelfFrac: 0.05, PopularFrac: 0.10, MalFrac: 0.25},
	}
	hosts := map[string]string{}
	var exchanges []*exchange.Exchange
	for i, ec := range configs {
		ex := exchange.New(ec, pools[i], u.PopularURLs, rng.Sub("ex:"+ec.Name))
		ex.RegisterHomepage(u.Internet)
		exchanges = append(exchanges, ex)
		hosts[ec.Name] = ec.Host
	}

	profile, ok := httpsim.ProfileByName(profileName)
	if !ok {
		t.Fatalf("unknown profile %q", profileName)
	}
	transport := httpsim.RoundTripper(u.Internet)
	if !profile.Zero() {
		transport = httpsim.NewFaultInjector(transport, profile, seed+0x5eed)
	}
	crawls, err := crawlExchanges(exchanges, transport, []int{60, 40})
	if err != nil {
		t.Fatalf("chaos crawl (seed %d, profile %s): %v", seed, profileName, err)
	}

	an := &Analyzer{
		Classifier: &Classifier{ExchangeHosts: hosts, PopularHosts: u.PopularHosts},
		// The detector scans against the clean universe, as Study.Run does:
		// faults degrade the crawl path only.
		Detector: NewDetector(u.Feed, u.Blacklists, u.Shorteners, u.Internet,
			DetectorConfig{Seed: seed + 1}),
		Workers: workers,
	}
	return &chaosRun{crawls: crawls, analysis: an.Analyze(crawls), an: an}
}

// crawlExchanges crawls each exchange in turn with crawler.CrawlExchange
// and its crawler.ExchangeOptions — its own step budget, account and IP —
// as every crawl of a study's exchanges derives them.
func crawlExchanges(exchanges []*exchange.Exchange, transport httpsim.RoundTripper, steps []int) ([]*crawler.Crawl, error) {
	crawls := make([]*crawler.Crawl, len(exchanges))
	for i, ex := range exchanges {
		c, err := crawler.CrawlExchange(ex, transport, crawler.ExchangeOptions(crawler.DefaultOptions(0), i, steps[i]))
		if err != nil {
			return nil, err
		}
		crawls[i] = c
	}
	return crawls, nil
}

// checkChaosInvariants verifies one faulty run against its fault-free
// baseline.
func checkChaosInvariants(t *testing.T, profile string, run, baseline *chaosRun) {
	t.Helper()
	a := run.analysis

	// Accounting: every crawled URL lands in exactly one class.
	for _, row := range a.PerExchange {
		if got := row.Self + row.Popular + row.Regular + row.Failed; got != row.Crawled {
			t.Errorf("%s/%s: self+popular+regular+failed = %d, crawled = %d",
				profile, row.Name, got, row.Crawled)
		}
	}
	if a.TotalAnalyzed()+a.TotalFailed() != a.TotalCrawled {
		t.Errorf("%s: analyzed %d + failed %d != crawled %d",
			profile, a.TotalAnalyzed(), a.TotalFailed(), a.TotalCrawled)
	}

	// Health bookkeeping matches the raw records.
	recFailed, recRetries := 0, 0
	for _, c := range run.crawls {
		for _, r := range c.Records {
			if r.FetchErr != "" {
				recFailed++
				if r.ErrKind == "" {
					t.Errorf("%s: failed record %s has no ErrKind", profile, r.EntryURL)
				}
				if len(r.Body) != 0 {
					t.Errorf("%s: failed record %s carries a body", profile, r.EntryURL)
				}
			}
			if r.Attempts > 1 {
				recRetries += r.Attempts - 1
			}
		}
	}
	if a.Health == nil {
		t.Fatalf("%s: analysis has no Health", profile)
	}
	if a.Health.TotalFailed != recFailed {
		t.Errorf("%s: Health.TotalFailed = %d, records say %d", profile, a.Health.TotalFailed, recFailed)
	}
	if a.Health.TotalRetries != recRetries {
		t.Errorf("%s: Health.TotalRetries = %d, records say %d", profile, a.Health.TotalRetries, recRetries)
	}
	taxTotal := 0
	for _, it := range a.Health.ErrorKinds.Items() {
		taxTotal += it.Count
	}
	if taxTotal != recFailed {
		t.Errorf("%s: error taxonomy sums to %d, want %d", profile, taxTotal, recFailed)
	}

	// The rotation is fault-blind: faults decide fetch outcomes, never
	// which URLs the exchange serves.
	if len(run.crawls) != len(baseline.crawls) {
		t.Fatalf("%s: %d crawls vs %d in baseline", profile, len(run.crawls), len(baseline.crawls))
	}
	for ci, c := range run.crawls {
		base := baseline.crawls[ci]
		if len(c.Records) != len(base.Records) {
			t.Fatalf("%s/%s: %d records vs %d in baseline", profile, c.Exchange, len(c.Records), len(base.Records))
		}
		for ri := range c.Records {
			rec, baseRec := c.Records[ri], base.Records[ri]
			if rec.EntryURL != baseRec.EntryURL {
				t.Fatalf("%s/%s record %d: entry %s vs baseline %s — rotation diverged",
					profile, c.Exchange, ri, rec.EntryURL, baseRec.EntryURL)
			}
			if rec.FetchErr != "" {
				continue
			}
			// Successful fetches — possibly after retries — must capture
			// exactly what the fault-free crawl captured, and the detector
			// must reach the same verdict.
			if rec.FinalURL != baseRec.FinalURL || rec.Redirects != baseRec.Redirects ||
				rec.Status != baseRec.Status || rec.ContentType != baseRec.ContentType ||
				!bytes.Equal(rec.Body, baseRec.Body) {
				t.Errorf("%s/%s record %d (%s): successful fetch differs from baseline",
					profile, c.Exchange, ri, rec.EntryURL)
			}
			if v, baseV := verdictOf(run.an, rec), verdictOf(baseline.an, baseRec); !reflect.DeepEqual(v, baseV) {
				t.Errorf("%s/%s record %d (%s): verdict %+v differs from baseline %+v",
					profile, c.Exchange, ri, rec.EntryURL, v, baseV)
			}
		}
	}
}

// TestChaosPropertySweep is the main chaos harness: many seeds, every
// fault profile, each compared against the same seed's fault-free run.
func TestChaosPropertySweep(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 4
	}
	profiles := []string{"flaky", "lossy", "slow", "hostile"}
	for s := 0; s < seeds; s++ {
		seed := uint64(1000 + s*17)
		t.Run(name(seed), func(t *testing.T) {
			t.Parallel()
			testutil.VerifyNoLeaks(t)
			baseline := runChaos(t, seed, "off", 4)
			for _, c := range baseline.crawls {
				for _, r := range c.Records {
					if r.FetchErr != "" {
						t.Fatalf("fault-free baseline failed a fetch: %s: %s", r.EntryURL, r.FetchErr)
					}
					if r.Attempts != 1 {
						t.Fatalf("fault-free baseline retried %s", r.EntryURL)
					}
				}
			}
			if baseline.analysis.Health.Degraded() {
				t.Fatal("fault-free baseline reports a degraded crawl")
			}
			anyFailed := false
			for _, p := range profiles {
				run := runChaos(t, seed, p, 4)
				checkChaosInvariants(t, p, run, baseline)
				if run.analysis.TotalFailed() > 0 {
					anyFailed = true
				}
			}
			if !anyFailed {
				t.Error("no profile failed a single fetch across this seed; the harness exercised nothing")
			}
		})
	}
}

// TestChaosWorkerInvariance re-analyzes the same faulty crawls at several
// worker counts: retries, failures and partial chains must not introduce
// any schedule dependence into the analysis.
func TestChaosWorkerInvariance(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	for _, seed := range []uint64{5, 77} {
		want := runChaos(t, seed, "hostile", 1).analysis
		for _, workers := range []int{2, 8} {
			got := runChaos(t, seed, "hostile", workers).analysis
			got.CacheStats = want.CacheStats
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: workers=%d analysis diverged from workers=1", seed, workers)
			}
		}
	}
}

// TestChaosSoakFullStudy drives the full nine-exchange study — the real
// parallel pipeline, shortener traffic and all — through the hostile
// profile. Run under -race this is the soak test for crawler retry state,
// fault-injector counters and the analysis pool interacting.
func TestChaosSoakFullStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	testutil.VerifyNoLeaks(t)
	cfg := DefaultStudyConfig()
	cfg.Seed = 7
	cfg.Scale = 600
	cfg.Workers = 8
	cfg.FaultProfile = "hostile"
	st, err := runStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := st.Analysis
	if a.TotalFailed() == 0 {
		t.Fatal("hostile full study failed no fetches")
	}
	if a.TotalAnalyzed()+a.TotalFailed() != a.TotalCrawled {
		t.Fatalf("analyzed %d + failed %d != crawled %d", a.TotalAnalyzed(), a.TotalFailed(), a.TotalCrawled)
	}
	for _, row := range a.PerExchange {
		if row.Self+row.Popular+row.Regular+row.Failed != row.Crawled {
			t.Fatalf("%s: class counts do not reconcile", row.Name)
		}
	}
	// Detection still works on the surviving data: the degraded crawl must
	// not silently zero out the paper's headline signal.
	if a.TotalMalicious == 0 {
		t.Fatal("hostile crawl detected nothing at all")
	}
}
