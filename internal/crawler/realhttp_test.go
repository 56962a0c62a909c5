package crawler

import (
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/exchange"
	"repro/internal/httpsim"
	"repro/internal/simrand"
	"repro/internal/urlutil"
	"repro/internal/web"
)

// TestCrawlOverRealHTTP proves the measurement stack is not tied to the
// in-memory transport: the whole universe is mounted on a real TCP
// listener via the Host-header adapter and a full crawl runs through
// net/http, producing the same class mix and redirect structure.
func TestCrawlOverRealHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("real-HTTP integration test")
	}
	cfg := web.DefaultConfig()
	cfg.Seed = 23
	cfg.BenignSites = 100
	cfg.MaliciousSites = 100
	u := web.Generate(cfg)
	pools, err := u.SplitPools(simrand.New(4), []web.PoolSpec{{Benign: 70, Malicious: 50}})
	if err != nil {
		t.Fatal(err)
	}
	ex := exchange.New(exchange.Config{
		Name: "RealEx", Host: "realex.sim", Kind: exchange.AutoSurf,
		MinSurfSeconds: 10, SelfFrac: 0.05, PopularFrac: 0.08, MalFrac: 0.30,
	}, pools[0], u.PopularURLs, simrand.New(6))
	ex.RegisterHomepage(u.Internet)

	srv := httptest.NewServer(httpsim.AsHTTPHandler(u.Internet))
	defer srv.Close()
	transport := &httpsim.RealTransport{Base: srv.URL}

	crawl, err := CrawlExchange(ex, transport, DefaultOptions(120))
	if err != nil {
		t.Fatal(err)
	}
	if len(crawl.Records) != 120 {
		t.Fatalf("records = %d", len(crawl.Records))
	}
	okCount, redirects, withBody := 0, 0, 0
	for _, r := range crawl.Records {
		if r.FetchErr != "" {
			continue
		}
		okCount++
		if r.Redirects > 0 {
			redirects++
		}
		if len(r.Body) > 0 {
			withBody++
		}
	}
	if okCount < 115 {
		t.Fatalf("only %d/120 fetches succeeded over real HTTP", okCount)
	}
	if withBody != okCount {
		t.Fatalf("bodies missing: %d of %d", withBody, okCount)
	}
	// The pool contains redirector and shortened sites; at 30% malicious
	// density over 120 steps some redirects must appear.
	if redirects == 0 {
		t.Fatal("no redirect chains observed over real HTTP")
	}
	// Malicious page content must round-trip intact (family tokens are
	// what the scanners key on).
	foundToken := false
	tokens := map[string]string{} // registered domain -> family token
	for _, s := range u.Sites {
		if s.Kind.Malicious() && s.FamilyToken != "" {
			tokens[urlutil.RegisteredDomain(s.Host)] = s.FamilyToken
		}
	}
	for _, r := range crawl.Records {
		if token := tokens[urlutil.DomainOf(r.EntryURL)]; token != "" {
			if strings.Contains(string(r.Body), token) {
				foundToken = true
				break
			}
		}
	}
	if !foundToken {
		t.Fatal("no family token survived the real-HTTP round trip")
	}
}
