package crawler

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/exchange"
	"repro/internal/har"
	"repro/internal/httpsim"
	"repro/internal/simrand"
	"repro/internal/web"
)

func setup(t *testing.T, kind exchange.Kind) (*web.Universe, *exchange.Exchange) {
	t.Helper()
	cfg := web.DefaultConfig()
	cfg.Seed = 17
	cfg.BenignSites = 120
	cfg.MaliciousSites = 100
	u := web.Generate(cfg)
	pools, err := u.SplitPools(simrand.New(4), []web.PoolSpec{{Benign: 80, Malicious: 50}})
	if err != nil {
		t.Fatal(err)
	}
	excfg := exchange.Config{
		Name: "TestEx", Host: "testex.sim", Kind: kind,
		MinSurfSeconds: 10, SelfFrac: 0.05, PopularFrac: 0.10, MalFrac: 0.30,
	}
	if kind == exchange.ManualSurf {
		excfg.Campaigns = []exchange.CampaignWindow{{StartFrac: 0.4, EndFrac: 0.5, MalDensity: 0.9}}
	}
	ex := exchange.New(excfg, pools[0], u.PopularURLs, simrand.New(8))
	ex.RegisterHomepage(u.Internet)
	return u, ex
}

func TestCrawlAutoSurf(t *testing.T) {
	u, ex := setup(t, exchange.AutoSurf)
	crawl, err := CrawlExchange(ex, u.Internet, DefaultOptions(300))
	if err != nil {
		t.Fatal(err)
	}
	if len(crawl.Records) != 300 {
		t.Fatalf("records = %d", len(crawl.Records))
	}
	okCount := 0
	for _, r := range crawl.Records {
		if r.FetchErr == "" {
			okCount++
			if r.Status != 200 {
				t.Fatalf("record %d status %d (%s)", r.Seq, r.Status, r.EntryURL)
			}
			if len(r.Body) == 0 {
				t.Fatalf("record %d has no body", r.Seq)
			}
		}
	}
	if okCount < 295 {
		t.Fatalf("only %d/300 fetches succeeded", okCount)
	}
	// Virtual clock must advance monotonically.
	for i := 1; i < len(crawl.Records); i++ {
		if !crawl.Records[i].Timestamp.After(crawl.Records[i-1].Timestamp) {
			t.Fatalf("timestamps not increasing at %d", i)
		}
	}
	if !crawl.Ended.After(crawl.Started) {
		t.Fatal("crawl window empty")
	}
	// 300 steps x >= 10s dwell: at least 50 virtual minutes.
	if crawl.Ended.Sub(crawl.Started) < 50*time.Minute {
		t.Fatalf("virtual duration = %v, want >= 50m", crawl.Ended.Sub(crawl.Started))
	}
}

func TestCrawlManualSurfSolvesCaptchas(t *testing.T) {
	u, ex := setup(t, exchange.ManualSurf)
	crawl, err := CrawlExchange(ex, u.Internet, DefaultOptions(60))
	if err != nil {
		t.Fatal(err)
	}
	if len(crawl.Records) != 60 {
		t.Fatalf("records = %d", len(crawl.Records))
	}
}

func TestCrawlObservesMix(t *testing.T) {
	u, ex := setup(t, exchange.AutoSurf)
	crawl, err := CrawlExchange(ex, u.Internet, DefaultOptions(1500))
	if err != nil {
		t.Fatal(err)
	}
	self, popular, mal := 0, 0, 0
	for _, r := range crawl.Records {
		switch {
		case strings.HasPrefix(r.EntryURL, ex.HomeURL()):
			self++
		case u.PopularHosts[hostOf(r.EntryURL)]:
			popular++
		}
		if u.TruthByURL(r.EntryURL).Malicious() {
			mal++
		}
	}
	if self == 0 || popular == 0 || mal == 0 {
		t.Fatalf("mix missing classes: self=%d popular=%d mal=%d", self, popular, mal)
	}
}

func hostOf(url string) string {
	rest := strings.TrimPrefix(strings.TrimPrefix(url, "http://"), "https://")
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

func TestCrawlRecordsRedirects(t *testing.T) {
	u, ex := setup(t, exchange.AutoSurf)
	crawl, err := CrawlExchange(ex, u.Internet, DefaultOptions(2000))
	if err != nil {
		t.Fatal(err)
	}
	sawRedirect := false
	for _, r := range crawl.Records {
		if r.Redirects > 0 {
			sawRedirect = true
			if r.FinalURL == r.EntryURL {
				t.Fatalf("redirected record has same final URL: %+v", r)
			}
		}
	}
	if !sawRedirect {
		t.Fatal("no redirects observed in 2000 steps (redirector sites exist in pool)")
	}
}

// TestHARCapture checks what a sink gets for HAR capture: the fetch
// result of every successful record, whose final hop is the record's
// landing page, and a page clock no earlier than the record's timestamp.
// The capture built from them round-trips through the HAR codec.
func TestHARCapture(t *testing.T) {
	u, ex := setup(t, exchange.AutoSurf)
	l := har.NewLog()
	okPages := 0
	_, _, err := CrawlExchangeStream(ex, u.Internet, DefaultOptions(50), func(rec *Record, res *httpsim.Result, pageClock time.Time) error {
		if rec.FetchErr != "" {
			return nil
		}
		okPages++
		if res == nil || len(res.Chain) != rec.Redirects+1 || res.FinalURL != rec.FinalURL {
			t.Fatalf("record %d: sink got result %+v for final URL %s", rec.Seq, res, rec.FinalURL)
		}
		if pageClock.Before(rec.Timestamp) {
			t.Fatalf("record %d: page clock %v before record timestamp %v", rec.Seq, pageClock, rec.Timestamp)
		}
		p := har.NewPage(len(l.Pages)+1, rec.EntryURL, pageClock)
		l.Pages = append(l.Pages, p)
		l.Entries = har.AppendResult(l.Entries, p.ID, BrowserUA, pageClock, res)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if okPages == 0 || len(l.Pages) != okPages {
		t.Fatalf("HAR pages = %d, successful fetches = %d", len(l.Pages), okPages)
	}
	if len(l.Entries) < okPages {
		t.Fatalf("HAR entries = %d < pages", len(l.Entries))
	}
	// Round-trip the HAR.
	var buf bytes.Buffer
	if err := har.Encode(&buf, l); err != nil {
		t.Fatal(err)
	}
	if _, err := har.Decode(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestCrawlRecordsAreIndependent checks the records CrawlExchange returns
// after the crawl loop reuses one Record for every step: each is a copy of
// its own, so mutating one leaves the rest unchanged, and no field of a
// failed step leaks into the next one or back.
func TestCrawlRecordsAreIndependent(t *testing.T) {
	u, ex := setup(t, exchange.AutoSurf)
	profile, ok := httpsim.ProfileByName("flaky")
	if !ok {
		t.Fatal("no flaky fault profile")
	}
	opts := DefaultOptions(400)
	opts.Retries = 0
	crawl, err := CrawlExchange(ex, httpsim.NewFaultInjector(u.Internet, profile, 3), opts)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]Record(nil), crawl.Records...)
	failed := 0
	for i, r := range crawl.Records {
		if r.Seq != i {
			t.Fatalf("record %d has Seq %d", i, r.Seq)
		}
		if r.FetchErr != "" {
			failed++
			if r.Body != nil || r.ErrKind == "" {
				t.Fatalf("failed record %d: body %d bytes, kind %q", i, len(r.Body), r.ErrKind)
			}
		} else if r.ErrKind != "" || len(r.Body) == 0 {
			t.Fatalf("fetched record %d: kind %q, body %d bytes", i, r.ErrKind, len(r.Body))
		}
	}
	if failed == 0 || failed == len(crawl.Records) {
		t.Fatalf("%d of %d fetches failed; want a mix", failed, len(crawl.Records))
	}
	for i := range crawl.Records {
		crawl.Records[i] = Record{Seq: -1, EntryURL: "mutated", FetchErr: "mutated"}
		for j := range crawl.Records {
			if j != i && !reflect.DeepEqual(crawl.Records[j], want[j]) {
				t.Fatalf("mutating record %d changed record %d", i, j)
			}
		}
		crawl.Records[i] = want[i]
	}
}

func TestCrawlInvalidSteps(t *testing.T) {
	u, ex := setup(t, exchange.AutoSurf)
	if _, err := CrawlExchange(ex, u.Internet, DefaultOptions(0)); err == nil {
		t.Fatal("zero steps accepted")
	}
}

func TestAntiCloakingDownload(t *testing.T) {
	// The crawler fetches with a browser UA, so cloaked sites expose
	// their payload in Record.Body.
	u, ex := setup(t, exchange.AutoSurf)
	_ = ex
	var cloaked *web.Site
	for _, s := range u.MaliciousSites() {
		if s.Cloaked {
			cloaked = s
			break
		}
	}
	if cloaked == nil {
		t.Skip("seed produced no cloaked site")
	}
	client := NewClient(u.Internet)
	res, err := client.Get(cloaked.EntryURL, BrowserUA, "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(res.Final.Body), cloaked.FamilyToken) {
		t.Fatal("browser-UA download did not expose the cloaked payload")
	}
}

func BenchmarkCrawl100(b *testing.B) {
	cfg := web.DefaultConfig()
	cfg.Seed = 17
	cfg.BenignSites = 120
	cfg.MaliciousSites = 100
	u := web.Generate(cfg)
	pools, err := u.SplitPools(simrand.New(4), []web.PoolSpec{{Benign: 80, Malicious: 50}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		excfg := exchange.Config{
			Name: "Bench", Host: "bench.sim", Kind: exchange.AutoSurf,
			MinSurfSeconds: 10, MalFrac: 0.3,
		}
		ex := exchange.New(excfg, pools[0], u.PopularURLs, simrand.New(uint64(i)))
		ex.RegisterHomepage(u.Internet)
		opts := DefaultOptions(100)
		opts.Account = "bench"
		if _, err := CrawlExchange(ex, u.Internet, opts); err != nil {
			b.Fatal(err)
		}
	}
}
