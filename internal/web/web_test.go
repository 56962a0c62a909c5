package web

import (
	"math"
	"strings"
	"testing"

	"repro/internal/httpsim"
	"repro/internal/scanner"
	"repro/internal/simrand"
	"repro/internal/urlutil"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Seed = 42
	cfg.BenignSites = 200
	cfg.MaliciousSites = 120
	return cfg
}

func TestGenerateCounts(t *testing.T) {
	u := Generate(smallConfig())
	if got := len(u.BenignSites()); got != 200 {
		t.Fatalf("benign sites = %d", got)
	}
	if got := len(u.MaliciousSites()); got != 120 {
		t.Fatalf("malicious sites = %d", got)
	}
	for _, k := range kindOrder {
		if len(u.SitesOfKind(k)) < kindMinimums[k] {
			t.Fatalf("kind %v has %d sites, below minimum %d", k, len(u.SitesOfKind(k)), kindMinimums[k])
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	u1 := Generate(smallConfig())
	u2 := Generate(smallConfig())
	if len(u1.Sites) != len(u2.Sites) {
		t.Fatal("site counts differ across identical seeds")
	}
	for i := range u1.Sites {
		a, b := u1.Sites[i], u2.Sites[i]
		if a.Host != b.Host || a.Kind != b.Kind || a.EntryURL != b.EntryURL {
			t.Fatalf("site %d differs: %+v vs %+v", i, a, b)
		}
	}
	// Content determinism.
	r1, err1 := u1.Internet.RoundTrip(&httpsim.Request{URL: u1.Sites[0].EntryURL, UserAgent: "Mozilla/5.0"})
	r2, err2 := u2.Internet.RoundTrip(&httpsim.Request{URL: u2.Sites[0].EntryURL, UserAgent: "Mozilla/5.0"})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if string(r1.Body) != string(r2.Body) {
		t.Fatal("page content differs across identical seeds")
	}
}

func TestAllSitesServeTheirPages(t *testing.T) {
	u := Generate(smallConfig())
	c := httpsim.NewClient(u.Internet)
	c.FollowMetaRefresh = true
	c.MetaRefreshTarget = MetaRefreshTarget
	for _, s := range u.Sites {
		res, err := c.Get(s.EntryURL, "Mozilla/5.0 (X11; Linux) Firefox/38.0", "")
		if err != nil {
			t.Fatalf("site %s (%v): %v", s.Host, s.Kind, err)
		}
		if res.Final.StatusCode != 200 {
			t.Fatalf("site %s final status %d", s.Host, res.Final.StatusCode)
		}
	}
}

func TestRedirectorChainLengths(t *testing.T) {
	u := Generate(smallConfig())
	c := httpsim.NewClient(u.Internet)
	c.FollowMetaRefresh = true
	c.MetaRefreshTarget = MetaRefreshTarget
	for _, s := range u.SitesOfKind(Redirector) {
		res, err := c.Get(s.EntryURL, "Mozilla/5.0", "")
		if err != nil {
			t.Fatalf("redirector %s: %v", s.Host, err)
		}
		if res.Redirects() != s.ChainLen {
			t.Fatalf("redirector %s: observed %d redirects, planted %d (chain %+v)",
				s.Host, res.Redirects(), s.ChainLen, res.Chain)
		}
		if s.ChainLen < 1 || s.ChainLen > 7 {
			t.Fatalf("chain length %d out of the Figure 5 range", s.ChainLen)
		}
		// Final URL must be off the entry domain.
		if urlutil.DomainOf(res.FinalURL) == urlutil.DomainOf(s.EntryURL) {
			t.Fatalf("redirector %s landed on its own site", s.Host)
		}
	}
}

func TestMetaRefreshOnLongChains(t *testing.T) {
	u := Generate(smallConfig())
	c := httpsim.NewClient(u.Internet)
	c.FollowMetaRefresh = true
	c.MetaRefreshTarget = MetaRefreshTarget
	sawMeta := false
	for _, s := range u.SitesOfKind(Redirector) {
		if s.ChainLen < 3 {
			continue
		}
		res, err := c.Get(s.EntryURL, "Mozilla/5.0", "")
		if err != nil {
			t.Fatal(err)
		}
		for _, hop := range res.Chain {
			if hop.Kind == "meta" {
				sawMeta = true
			}
		}
	}
	if !sawMeta {
		t.Fatal("no meta-refresh hop on any >=3 chain (Figure 4 shape missing)")
	}
}

func TestShortenedEntriesResolve(t *testing.T) {
	u := Generate(smallConfig())
	c := httpsim.NewClient(u.Internet)
	for _, s := range u.SitesOfKind(ShortenedMalicious) {
		if !u.Shorteners.IsShortURL(s.EntryURL) {
			t.Fatalf("entry %q is not a short URL", s.EntryURL)
		}
		res, err := c.Get(s.EntryURL, "Mozilla/5.0", "")
		if err != nil {
			t.Fatal(err)
		}
		if urlutil.DomainOf(res.FinalURL) != urlutil.RegisteredDomain(s.Host) {
			t.Fatalf("short entry %s resolved to %s, want host %s", s.EntryURL, res.FinalURL, s.Host)
		}
	}
}

func TestSomeShortenedAreNested(t *testing.T) {
	cfg := smallConfig()
	u := Generate(cfg)
	c := httpsim.NewClient(u.Internet)
	nested := 0
	for _, s := range u.SitesOfKind(ShortenedMalicious) {
		res, err := c.Get(s.EntryURL, "Mozilla/5.0", "")
		if err != nil {
			t.Fatalf("chain for %s did not resolve: %v", s.EntryURL, err)
		}
		short := 0
		for _, h := range res.Chain {
			if u.Shorteners.IsShortURL(h.URL) {
				short++
			}
		}
		if short > 1 {
			nested++
		}
	}
	if nested == 0 {
		t.Fatal("no nested shortened URLs generated")
	}
}

func TestCloakingBehaviour(t *testing.T) {
	u := Generate(smallConfig())
	var cloaked *Site
	for _, s := range u.SitesOfKind(MaliciousJS) {
		if s.Cloaked {
			cloaked = s
			break
		}
	}
	if cloaked == nil {
		t.Skip("no cloaked JS site in this seed")
	}
	bot, err := u.Internet.RoundTrip(&httpsim.Request{URL: cloaked.EntryURL, UserAgent: "VirusTotalBot/1.0"})
	if err != nil {
		t.Fatal(err)
	}
	browser, err := u.Internet.RoundTrip(&httpsim.Request{URL: cloaked.EntryURL, UserAgent: "Mozilla/5.0 Firefox/38.0"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(bot.Body), cloaked.FamilyToken) {
		t.Fatal("bot response leaked the family token — cloak broken")
	}
	if !strings.Contains(string(browser.Body), cloaked.FamilyToken) {
		t.Fatal("browser response missing the family token")
	}
}

func TestMaliciousContentCarriesFamilyToken(t *testing.T) {
	u := Generate(smallConfig())
	c := httpsim.NewClient(u.Internet)
	c.FollowMetaRefresh = true
	c.MetaRefreshTarget = MetaRefreshTarget
	ua := "Mozilla/5.0 Firefox/38.0"
	for _, s := range u.MaliciousSites() {
		if s.Kind == MaliciousFlash {
			continue // token in page comment; flash detection is resource-based
		}
		res, err := c.Get(s.EntryURL, ua, "")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(res.Final.Body), s.FamilyToken) {
			t.Fatalf("site %s (%v): final body missing family token", s.Host, s.Kind)
		}
	}
}

func TestBlacklistConsensusOnBlacklistedKind(t *testing.T) {
	u := Generate(smallConfig())
	flagged := 0
	for _, s := range u.SitesOfKind(Blacklisted) {
		if u.Blacklists.Malicious(s.Host) {
			flagged++
		}
	}
	total := len(u.SitesOfKind(Blacklisted))
	if float64(flagged)/float64(total) < 0.9 {
		t.Fatalf("blacklist consensus covers %d/%d blacklisted sites", flagged, total)
	}
	// JS sites must NOT be blacklist-flagged (they belong to the JS
	// category, not the blacklist category).
	for _, s := range u.SitesOfKind(MaliciousJS) {
		if u.Blacklists.Malicious(s.Host) {
			t.Fatalf("JS site %s on blacklist consensus", s.Host)
		}
	}
}

func TestDetectionPipelineRecallOnPlantedMalware(t *testing.T) {
	// End-to-end honesty check: signatures+heuristics (never ground
	// truth) must recover planted malware from content.
	u := Generate(smallConfig())
	rng := simrand.New(7)
	multi := scanner.NewMultiEngine(rng, u.Feed, scanner.DefaultMultiEngineConfig())
	heur := scanner.NewHeuristic()
	heur.ResourceFetcher = u.Internet

	c := httpsim.NewClient(u.Internet)
	c.FollowMetaRefresh = true
	c.MetaRefreshTarget = MetaRefreshTarget
	ua := "Mozilla/5.0 Firefox/38.0"

	detected := 0
	malicious := u.MaliciousSites()
	for _, s := range malicious {
		res, err := c.Get(s.EntryURL, ua, "")
		if err != nil {
			t.Fatal(err)
		}
		rep := multi.ScanFile(res.FinalURL, res.Final.Body)
		hf := heur.ScanPage(res.FinalURL, res.Final.ContentType, res.Final.Body)
		bl := u.Blacklists.Malicious(urlutil.DomainOf(res.FinalURL)) || u.Blacklists.Malicious(urlutil.DomainOf(s.EntryURL))
		if rep.Malicious(2) || hf.Malicious() || bl {
			detected++
		} else {
			t.Logf("missed: %s kind=%v variant=%v cloaked=%v", s.Host, s.Kind, s.Variant, s.Cloaked)
		}
	}
	recall := float64(detected) / float64(len(malicious))
	if recall < 0.98 {
		t.Fatalf("pipeline recall = %v (%d/%d), want >= 0.98", recall, detected, len(malicious))
	}
}

func TestDetectionPipelinePrecisionOnBenign(t *testing.T) {
	u := Generate(smallConfig())
	rng := simrand.New(7)
	multi := scanner.NewMultiEngine(rng, u.Feed, scanner.DefaultMultiEngineConfig())
	heur := scanner.NewHeuristic()
	heur.ResourceFetcher = u.Internet

	c := httpsim.NewClient(u.Internet)
	ua := "Mozilla/5.0 Firefox/38.0"
	fp := 0
	benign := u.BenignSites()
	for _, s := range benign {
		res, err := c.Get(s.EntryURL, ua, "")
		if err != nil {
			t.Fatal(err)
		}
		rep := multi.ScanFile(res.FinalURL, res.Final.Body)
		hf := heur.ScanPage(res.FinalURL, res.Final.ContentType, res.Final.Body)
		if rep.Malicious(2) || hf.Malicious() || u.Blacklists.Malicious(urlutil.DomainOf(s.EntryURL)) {
			fp++
			t.Logf("false positive: %s analytics=%v oauth=%v", s.Host, s.HasAnalytics, s.HasOAuthFrame)
		}
	}
	fpRate := float64(fp) / float64(len(benign))
	if fpRate > 0.03 {
		t.Fatalf("benign FP rate = %v (%d/%d), want <= 0.03", fpRate, fp, len(benign))
	}
}

func TestTLDMixOfMaliciousSites(t *testing.T) {
	cfg := smallConfig()
	cfg.MaliciousSites = 2000
	cfg.BenignSites = 50
	u := Generate(cfg)
	counts := map[string]int{}
	for _, s := range u.MaliciousSites() {
		counts[s.TLD]++
	}
	total := float64(len(u.MaliciousSites()))
	if com := float64(counts["com"]) / total; math.Abs(com-0.70) > 0.05 {
		t.Fatalf(".com share = %v, want ~0.70", com)
	}
	if net := float64(counts["net"]) / total; math.Abs(net-0.22) > 0.05 {
		t.Fatalf(".net share = %v, want ~0.22", net)
	}
}

func TestCategoryMixOfMaliciousSites(t *testing.T) {
	cfg := smallConfig()
	cfg.MaliciousSites = 2000
	cfg.BenignSites = 50
	u := Generate(cfg)
	counts := map[Category]int{}
	for _, s := range u.MaliciousSites() {
		counts[s.Category]++
	}
	total := float64(len(u.MaliciousSites()))
	if biz := float64(counts[CatBusiness]) / total; math.Abs(biz-0.586) > 0.05 {
		t.Fatalf("Business share = %v, want ~0.586", biz)
	}
	if ads := float64(counts[CatAdvertisement]) / total; math.Abs(ads-0.218) > 0.05 {
		t.Fatalf("Advertisement share = %v, want ~0.218", ads)
	}
}

func TestTruthByURL(t *testing.T) {
	u := Generate(smallConfig())
	js := u.SitesOfKind(MaliciousJS)[0]
	if k := u.TruthByURL(js.EntryURL); k != MaliciousJS {
		t.Fatalf("truth of %s = %v", js.EntryURL, k)
	}
	if k := u.TruthByURL("http://" + js.Host + js.Pages[len(js.Pages)-1]); k != MaliciousJS {
		t.Fatalf("truth by domain lookup failed: %v", k)
	}
	if k := u.TruthByURL("http://unknown-host.example/"); k != Benign {
		t.Fatalf("unknown host truth = %v", k)
	}
	short := u.SitesOfKind(ShortenedMalicious)[0]
	if k := u.TruthByURL(short.EntryURL); k != ShortenedMalicious {
		t.Fatalf("short entry truth = %v", k)
	}
}

func TestSplitPoolsDisjointAndSized(t *testing.T) {
	u := Generate(smallConfig())
	rng := simrand.New(3)
	specs := []PoolSpec{
		{Benign: 60, Malicious: 30},
		{Benign: 50, Malicious: 25},
		{Benign: 40, Malicious: 20},
	}
	pools, err := u.SplitPools(rng, specs)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i, p := range pools {
		if len(p.Benign) != specs[i].Benign {
			t.Fatalf("pool %d benign = %d", i, len(p.Benign))
		}
		if n := maliciousCount(p); n != specs[i].Malicious {
			t.Fatalf("pool %d malicious = %d", i, n)
		}
		for _, s := range p.Benign {
			if seen[s.Host] {
				t.Fatalf("site %s appears in two pools", s.Host)
			}
			seen[s.Host] = true
		}
		for _, sites := range p.MalByKind {
			for _, s := range sites {
				if seen[s.Host] {
					t.Fatalf("site %s appears in two pools", s.Host)
				}
				seen[s.Host] = true
			}
		}
		// Every kind must be present in every pool.
		for _, k := range kindOrder {
			if len(p.MalByKind[k]) == 0 {
				t.Fatalf("pool %d missing kind %v", i, k)
			}
		}
	}
}

func TestSplitPoolsOverflowErrors(t *testing.T) {
	u := Generate(smallConfig())
	rng := simrand.New(3)
	if _, err := u.SplitPools(rng, []PoolSpec{{Benign: 100000, Malicious: 1}}); err == nil {
		t.Fatal("benign overflow not detected")
	}
	if _, err := u.SplitPools(rng, []PoolSpec{{Benign: 1, Malicious: 100000}}); err == nil {
		t.Fatal("malicious overflow not detected")
	}
}

func TestKindCountsApportionment(t *testing.T) {
	counts := kindCounts(1000)
	total := 0
	for _, k := range kindOrder {
		total += counts[k]
		if counts[k] < kindMinimums[k] {
			t.Fatalf("kind %v below minimum", k)
		}
	}
	if total != 1000 {
		t.Fatalf("apportioned %d, want 1000", total)
	}
	// Misc must dominate (66% weight).
	if counts[Miscellaneous] < counts[Blacklisted] {
		t.Fatal("misc should outnumber blacklisted")
	}
}

func TestKindCountsBelowMinimums(t *testing.T) {
	counts := kindCounts(10)
	total := 0
	for _, c := range counts {
		total += c
	}
	// Minimums win when the request is tiny; callers size universes with
	// MaliciousSites >= sum of minimums.
	if total < 10 {
		t.Fatalf("total %d < request", total)
	}
}

func TestPopularURLs(t *testing.T) {
	u := Generate(smallConfig())
	if len(u.PopularURLs) < 5 {
		t.Fatalf("popular URLs = %d", len(u.PopularURLs))
	}
	for _, pu := range u.PopularURLs {
		resp, err := u.Internet.RoundTrip(&httpsim.Request{URL: pu})
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("popular URL %s: %v status %d", pu, err, resp.StatusCode)
		}
	}
}

func BenchmarkGenerateUniverse(b *testing.B) {
	cfg := smallConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Generate(cfg)
	}
}
