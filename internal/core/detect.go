// Package core implements the paper's analysis pipeline — the primary
// contribution of the reproduction. It takes raw crawl records and
// produces every aggregate the paper reports: referral classification
// (self / popular / regular, §III-A), malware detection via the
// multi-engine scanner, the heuristic scanner and the blacklist consensus
// (§III-B), the five-way malware categorization plus the miscellaneous
// bucket (§IV-A), domain-level statistics (Table II), TLD and content
// breakdowns (Figures 6 and 7), redirect-count distribution (Figure 5),
// temporal burst analysis (Figure 3), and shortened-URL hit statistics
// (Table IV).
package core

import (
	"sync"

	"repro/internal/blacklist"
	"repro/internal/crawler"
	"repro/internal/httpsim"
	"repro/internal/jsengine"
	"repro/internal/scanner"
	"repro/internal/shortener"
	"repro/internal/simrand"
	"repro/internal/urlutil"
)

// ReferralClass partitions crawled URLs as §III-A does.
type ReferralClass int

// Referral classes. Failed marks records whose fetch never completed:
// they count as crawled but carry no trustworthy content, so they bypass
// the detector stack and flow into the crawl-health accounting instead of
// silently polluting the malice statistics.
const (
	Self ReferralClass = iota + 1
	Popular
	Regular
	Failed
)

// String implements fmt.Stringer.
func (r ReferralClass) String() string {
	switch r {
	case Self:
		return "self"
	case Popular:
		return "popular"
	case Failed:
		return "failed"
	default:
		return "regular"
	}
}

// Classifier assigns referral classes from URLs alone: a URL on the
// exchange's own site is a self-referral; a URL on a well-known popular
// site is a popular referral; everything else is regular and proceeds to
// malware analysis.
type Classifier struct {
	// ExchangeHosts maps exchange name -> its own hostname.
	ExchangeHosts map[string]string
	// PopularHosts is the well-known-site list (Google/Facebook/YouTube
	// analogs).
	PopularHosts map[string]bool

	// exDomains maps exchange name -> the registered domain of its home
	// page, derived from ExchangeHosts on the first Classify.
	exOnce    sync.Once
	exDomains map[string]string
}

// Classify returns the referral class of one record. Fetch failures are
// classified first: without downloaded content there is nothing for the
// scanners to judge, and the URL must reconcile into the failed column
// rather than the regular one.
func (c *Classifier) Classify(rec crawler.Record) ReferralClass {
	if rec.FetchErr != "" {
		return Failed
	}
	p, err := urlutil.Parse(rec.EntryURL)
	if err != nil {
		return Regular
	}
	domain := urlutil.RegisteredDomain(p.Host)
	// Self: the entry shares a registered domain with the exchange's
	// home page, "http://<host>/".
	if exDomain := c.exchangeDomain(rec.Exchange); exDomain != "" && domain == exDomain {
		return Self
	}
	if c.PopularHosts[p.Host] || c.PopularHosts[domain] {
		return Popular
	}
	return Regular
}

// exchangeDomain returns the registered domain of the named exchange's
// home page, or "" for an unknown exchange or an unparseable host.
func (c *Classifier) exchangeDomain(exchange string) string {
	c.exOnce.Do(func() {
		c.exDomains = make(map[string]string, len(c.ExchangeHosts))
		for name, host := range c.ExchangeHosts {
			if host != "" {
				c.exDomains[name] = urlutil.DomainOf("http://" + host + "/")
			}
		}
	})
	return c.exDomains[exchange]
}

// Category is the Table III malware category.
type Category string

// The Table III categories plus Miscellaneous.
const (
	CatBlacklisted Category = "Blacklisted"
	CatJavaScript  Category = "Malicious JavaScript"
	CatRedirection Category = "Suspicious Redirection"
	CatShortened   Category = "Malicious Shortened URLs"
	CatFlash       Category = "Malicious Flash"
	CatMisc        Category = "Miscellaneous"
)

// Categories lists the categorized (non-misc) classes in Table III order.
var Categories = []Category{CatBlacklisted, CatJavaScript, CatRedirection, CatShortened, CatFlash}

// Verdict is the full analysis result for one regular URL.
type Verdict struct {
	// Malicious is the combined tool verdict.
	Malicious bool
	// VTPositives / VTTotal is the multi-engine hit ratio; VTLabels the
	// family labels.
	VTPositives int
	VTTotal     int
	VTLabels    []string
	// Heuristic carries the content-scanner findings.
	Heuristic *scanner.Findings
	// BlacklistHits names the lists containing the URL's domain.
	BlacklistHits []string
	// Category is assigned only when Malicious.
	Category Category
}

// Detector orchestrates the §III-B tool stack over crawl records.
type Detector struct {
	Multi      *scanner.MultiEngine
	Heur       *scanner.Heuristic
	Blacklists *blacklist.Set
	Shorteners *shortener.Registry
	// MinPositives is the multi-engine threshold (>= 2 engines flag).
	MinPositives int
	// FileScan enables the anti-cloaking local-download path (footnote 1):
	// the crawled body is scanned directly. When false, only URL scans
	// run — the ablation configuration that cloaking defeats.
	FileScan bool
}

// DetectorConfig tunes NewDetector.
type DetectorConfig struct {
	// Seed drives engine construction.
	Seed uint64
	// MinPositives is the multi-engine threshold (default 2).
	MinPositives int
	// Engines overrides the fleet configuration; zero value uses the
	// default 60-engine calibration.
	Engines scanner.MultiEngineConfig
	// JSBudget bounds each heuristic-scanner sandbox execution. Unset
	// fields fall back to jsengine.DefaultBudget.
	JSBudget jsengine.Budget
}

// NewDetector assembles the full stack: a multi-engine scanner over the
// threat feed, a heuristic scanner that can pull sub-resources from the
// network with a browser UA, the blacklist consensus, and the shortener
// registry for categorization.
func NewDetector(feed *scanner.ThreatFeed, lists *blacklist.Set, shorteners *shortener.Registry,
	network httpsim.RoundTripper, cfg DetectorConfig) *Detector {
	if cfg.MinPositives == 0 {
		cfg.MinPositives = 2
	}
	if cfg.Engines.NumEngines == 0 {
		cfg.Engines = scanner.DefaultMultiEngineConfig()
	}
	multi := scanner.NewMultiEngine(simrand.New(cfg.Seed), feed, cfg.Engines)
	multi.Fetcher = network
	heur := scanner.NewHeuristic()
	heur.ResourceFetcher = network
	heur.Budget = cfg.JSBudget
	return &Detector{
		Multi:        multi,
		Heur:         heur,
		Blacklists:   lists,
		Shorteners:   shorteners,
		MinPositives: cfg.MinPositives,
		FileScan:     true,
	}
}

// Inspect runs the full tool stack over one crawled record and assigns a
// category if malicious. It consumes only the record's URLs and body —
// never generator ground truth.
func (d *Detector) Inspect(rec crawler.Record) Verdict {
	v := Verdict{}

	// Multi-engine scan: local file upload when available (anti-cloaking),
	// otherwise URL submission.
	var rep scanner.Report
	if d.FileScan && len(rec.Body) > 0 {
		rep = d.Multi.ScanFile(rec.FinalURL, rec.Body)
	} else {
		rep = d.Multi.ScanURL(rec.EntryURL)
	}
	v.VTPositives, v.VTTotal, v.VTLabels = rep.Positives, rep.Total, rep.Labels

	// Heuristic content scan of the downloaded page.
	if len(rec.Body) > 0 {
		v.Heuristic = d.Heur.ScanPage(rec.FinalURL, rec.ContentType, rec.Body)
	}

	// Blacklist consensus on both ends of the fetch.
	v.BlacklistHits = d.Blacklists.Matches(hostOf(rec.EntryURL))
	if final := hostOf(rec.FinalURL); final != "" && final != hostOf(rec.EntryURL) {
		for _, name := range d.Blacklists.Matches(final) {
			v.BlacklistHits = appendUnique(v.BlacklistHits, name)
		}
	}

	blacklisted := len(v.BlacklistHits) >= d.Blacklists.Threshold
	heurMal := v.Heuristic != nil && v.Heuristic.Malicious()
	v.Malicious = rep.Malicious(d.MinPositives) || heurMal || blacklisted
	if v.Malicious {
		v.Category = d.categorize(rec, v, blacklisted)
	}
	return v
}

// categorize implements the §IV-A assignment. Order matters and follows
// the paper with one documented disambiguation: URLs on shortening
// services are pulled out BEFORE the redirect test, otherwise every
// shortened URL would land in the redirection bucket (shorteners redirect
// by construction).
func (d *Detector) categorize(rec crawler.Record, v Verdict, blacklisted bool) Category {
	if d.Shorteners != nil && d.Shorteners.IsShortURL(rec.EntryURL) {
		return CatShortened
	}
	// Suspicious redirection: the browser landed on a different site
	// than the one the exchange rotated in.
	entryDom, finalDom := urlutil.DomainOf(rec.EntryURL), urlutil.DomainOf(rec.FinalURL)
	if rec.Redirects > 0 && entryDom != "" && finalDom != "" && entryDom != finalDom {
		return CatRedirection
	}
	// File-extension assignment, as the paper does, then content
	// evidence for pages whose payload is embedded.
	if urlutil.HasExtension(rec.EntryURL, "swf") {
		return CatFlash
	}
	if urlutil.HasExtension(rec.EntryURL, "js") {
		return CatJavaScript
	}
	if h := v.Heuristic; h != nil {
		if h.FlashSuspicion != nil && h.FlashSuspicion.Malicious() {
			return CatFlash
		}
		if h.ExternalInterfaceAbuse {
			return CatFlash
		}
		if len(h.HiddenIframes) > 0 || h.ObfuscatedJS || h.DeceptiveDownload ||
			len(h.Redirections) > 0 || h.Popups > 0 || len(h.SandboxTripped) > 0 {
			return CatJavaScript
		}
	}
	if blacklisted {
		return CatBlacklisted
	}
	return CatMisc
}

func hostOf(rawURL string) string {
	p, err := urlutil.Parse(rawURL)
	if err != nil {
		return ""
	}
	return p.Host
}

func appendUnique(list []string, s string) []string {
	for _, x := range list {
		if x == s {
			return list
		}
	}
	return append(list, s)
}
