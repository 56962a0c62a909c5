// Package web generates the synthetic web universe the measurement runs
// against: thousands of member sites with realistic HTML/JS/SWF content,
// a planted ground-truth malware population spanning every category the
// paper analyzes, the infrastructure hosts malware depends on (payload
// servers, redirect bridges, bogus ad networks, executable droppers, SWF
// CDNs), the popular destinations exchanges point at for bogus views, the
// blacklist databases, and the threat-intelligence feed the signature
// engines are built from.
//
// Ground truth is planted here and NEVER consulted by the detection
// pipeline — detection works from page content, URLs and blacklists alone.
// Tests compare pipeline output against the truth to verify recall and
// precision, something the original live study could not do.
package web

import (
	"fmt"

	"repro/internal/blacklist"
	"repro/internal/httpsim"
	"repro/internal/scanner"
	"repro/internal/shortener"
	"repro/internal/urlutil"
)

// Category is a site's content category (Figure 7).
type Category string

// The content categories of Figure 7.
const (
	CatBusiness      Category = "Business"
	CatAdvertisement Category = "Advertisement"
	CatEntertainment Category = "Entertainment"
	CatIT            Category = "Information Technology"
	CatOther         Category = "Others"
)

// MaliceKind is the planted ground-truth class of a site.
type MaliceKind int

// Ground-truth classes. They deliberately mirror the paper's Table III
// categories plus Benign and the large Miscellaneous bucket.
const (
	Benign MaliceKind = iota + 1
	Blacklisted
	MaliciousJS
	MaliciousFlash
	Redirector
	ShortenedMalicious
	Miscellaneous
)

// String implements fmt.Stringer.
func (k MaliceKind) String() string {
	switch k {
	case Benign:
		return "benign"
	case Blacklisted:
		return "blacklisted"
	case MaliciousJS:
		return "malicious-js"
	case MaliciousFlash:
		return "malicious-flash"
	case Redirector:
		return "suspicious-redirect"
	case ShortenedMalicious:
		return "malicious-shortened"
	case Miscellaneous:
		return "miscellaneous"
	}
	return fmt.Sprintf("MaliceKind(%d)", int(k))
}

// Malicious reports whether the kind is any malware class.
func (k MaliceKind) Malicious() bool { return k != Benign }

// JSVariant selects the concrete JS-malware behaviour planted on a
// MaliciousJS site, mirroring the §V case studies.
type JSVariant int

// The JS malware variants of §IV-A-1 and §V.
const (
	JSTinyIframe          JSVariant = iota + 1 // Code 1: 1x1 iframe
	JSInvisibleIframe                          // Code 2: transparent iframe with query-string exfil
	JSObfuscatedInjection                      // Code 3: eval(unescape(document.write(iframe)))
	JSDeceptiveDownload                        // Code 4: fake Flash-Player.exe prompt
	JSFingerprinting                           // mouse recording + popups
	JSBomb                                     // resource bomb: sandbox-budget exhaustion (hostile corpus)
)

// Site is one member site of the universe.
type Site struct {
	// Host is the site's hostname (host == registered domain here).
	Host string
	// TLD is the host's top-level domain.
	TLD string
	// Category is the content category.
	Category Category
	// Kind is the planted ground truth.
	Kind MaliceKind
	// Variant refines MaliciousJS sites.
	Variant JSVariant
	// Cloaked marks malicious sites that serve clean content to scanner
	// bots (footnote 1).
	Cloaked bool
	// ChainLen is the redirect chain length for Redirector sites (1-7).
	ChainLen int
	// Pages lists the site's page paths ("/", "/p1", ...).
	Pages []string
	// FamilyToken is the malware-family marker embedded in malicious
	// content; "" for benign sites.
	FamilyToken string
	// EntryURL is the URL members post on exchanges. For
	// ShortenedMalicious sites this is the shortened alias; otherwise the
	// homepage.
	EntryURL string
	// BombSrc is the hostile script planted on JSBomb sites; "" otherwise.
	BombSrc string
	// HasAnalytics / HasOAuthFrame plant the §V-E false-positive shapes
	// on some benign sites.
	HasAnalytics  bool
	HasOAuthFrame bool
	// HasBrochure links a benign PDF document from the site's pages —
	// innocuous sibling traffic for the document-malware detector.
	HasBrochure bool
	// Gen counts the site's re-registrations (0 = the original identity).
	// Only malicious sites churn.
	Gen int
	// Identities is the site's full identity history, oldest first,
	// INCLUDING the current identity as its last element; nil for sites
	// that never churned. See IdentityAt.
	Identities []SiteIdentity
}

// PageURLs returns the absolute URLs of the site's own pages.
func (s *Site) PageURLs() []string {
	out := make([]string, 0, len(s.Pages))
	for _, p := range s.Pages {
		out = append(out, "http://"+s.Host+p)
	}
	return out
}

// Universe is the generated world.
type Universe struct {
	// Internet hosts every site and infrastructure service.
	Internet *httpsim.Internet
	// Shorteners is the registry of shortening services.
	Shorteners *shortener.Registry
	// Blacklists is the six-list consensus set.
	Blacklists *blacklist.Set
	// Feed is the threat-intelligence feed for signature engines.
	Feed *scanner.ThreatFeed
	// Sites lists every member site.
	Sites []*Site
	// PopularURLs are the Google/Facebook/YouTube-analog URLs exchanges
	// inject as popular referrals.
	PopularURLs []string
	// PopularHosts is the corresponding host set.
	PopularHosts map[string]bool
	// Epoch records the longitudinal parameters this universe was built
	// at; the zero value means a plain single-epoch build.
	Epoch EpochParams
	// ChangedSites lists the sites whose identity changed between epoch
	// Epoch-1 and Epoch (i.e. in the final churn pass); nil at epoch 0.
	// A delta-mode re-crawl only needs to re-scan these (plus anything
	// whose content digest disagrees — the verdict key enforces that).
	ChangedSites []*Site

	// cfg is the generation config, kept for AdvanceEpoch (the next
	// epoch must be generated from exactly the same knobs).
	cfg Config
	// protoSites / protoUsed snapshot the post-churn, pre-shorten site
	// prototypes and the full drawn-domain set — the state AdvanceEpoch
	// clones to apply only the next churn pass. Immutable once set.
	protoSites []*Site
	protoUsed  map[string]bool
	// renders memoizes rendered pages, shared along an AdvanceEpoch chain
	// so unchurned hosts keep their rendered bytes across epochs.
	renders *RenderCache

	byKind map[MaliceKind][]*Site
	// truthByDomain maps registered domain -> planted kind, for
	// infrastructure hosts too.
	truthByDomain map[string]MaliceKind
	// truthByEntry maps entry URL -> site.
	truthByEntry map[string]*Site
}

// SitesOfKind returns the sites with the given planted kind.
func (u *Universe) SitesOfKind(k MaliceKind) []*Site { return u.byKind[k] }

// TruthByURL returns the planted kind behind a URL: the kind of the
// exact entry URL if known, otherwise the kind of the URL's registered
// domain, otherwise Benign for unknown hosts (infrastructure defaults are
// registered at generation time).
func (u *Universe) TruthByURL(rawURL string) MaliceKind {
	if s, ok := u.truthByEntry[rawURL]; ok {
		return s.Kind
	}
	if norm, err := urlutil.Normalize(rawURL); err == nil {
		if s, ok := u.truthByEntry[norm]; ok {
			return s.Kind
		}
	}
	if d := urlutil.DomainOf(rawURL); d != "" {
		if k, ok := u.truthByDomain[d]; ok {
			return k
		}
	}
	return Benign
}

// MaliciousSites returns all sites with a malicious kind.
func (u *Universe) MaliciousSites() []*Site {
	var out []*Site
	for _, s := range u.Sites {
		if s.Kind.Malicious() {
			out = append(out, s)
		}
	}
	return out
}

// BenignSites returns all benign sites.
func (u *Universe) BenignSites() []*Site { return u.byKind[Benign] }
