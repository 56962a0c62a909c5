// Package shortener simulates URL shortening services (the goo.gl, bit.ly,
// tiny.cc, j.mp, zapit.nu, tr.im analogs of Table IV).
//
// Shortened URLs matter to the study for two reasons: they let malicious
// base URLs evade URL-based detection (the alias hides the target, and
// nesting one short URL inside another compounds it), and several services
// publish per-link hit statistics with referrer and visitor-country
// breakdowns, which is how the paper shows that traffic exchanges are the
// top referrers driving multi-million hit counts to these links.
package shortener

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/httpsim"
	"repro/internal/stats"
	"repro/internal/urlutil"
)

// CountryHeader is the simulated geo header visitors carry; the service's
// hit statistics aggregate it (stand-in for GeoIP on the real services).
const CountryHeader = "X-Sim-Country"

// Service is one URL shortening service.
type Service struct {
	host string

	mu    sync.Mutex
	seq   int
	links map[string]*link // code -> link
	// byLong indexes codes by long URL so long-URL hit totals can sum
	// across multiple aliases, as Table IV does.
	byLong map[string][]string
}

type link struct {
	code      string
	longURL   string
	hits      int
	referrers *stats.Counter
	countries *stats.Counter
}

// New returns a service at the given host (e.g. "goo.gl.sim").
func New(host string) *Service {
	return &Service{
		host:   strings.ToLower(host),
		links:  make(map[string]*link),
		byLong: make(map[string][]string),
	}
}

// Shorten creates (or reuses) a short link for longURL and returns the
// short URL. Shortening an already-short URL of another service is
// allowed — that is exactly the nested-shortening evasion the paper
// describes.
func (s *Service) Shorten(longURL string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	code := encodeCode(s.seq)
	l := &link{
		code:      code,
		longURL:   longURL,
		referrers: stats.NewCounter(),
		countries: stats.NewCounter(),
	}
	s.links[code] = l
	s.byLong[longURL] = append(s.byLong[longURL], code)
	return "http://" + s.host + "/" + code
}

// encodeCode produces a compact base-36 alias.
func encodeCode(n int) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	if n == 0 {
		return "a"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{alphabet[n%36]}, b...)
		n /= 36
	}
	return string(b)
}

// Handler serves the service over httpsim: GET /{code} records a hit
// (referrer + country) and 302s to the long URL. Unknown codes 404.
func (s *Service) Handler() httpsim.Handler {
	return func(req *httpsim.Request) *httpsim.Response {
		p, err := urlutil.Parse(req.URL)
		if err != nil {
			return httpsim.NotFound()
		}
		code := strings.TrimPrefix(p.Path, "/")
		s.mu.Lock()
		defer s.mu.Unlock()
		l, ok := s.links[code]
		if !ok {
			return httpsim.NotFound()
		}
		l.hits++
		if ref := urlutil.DomainOf(req.Referrer); ref != "" {
			l.referrers.Add(ref)
		}
		if req.Header != nil {
			if c := req.Header[CountryHeader]; c != "" {
				l.countries.Add(c)
			}
		}
		return httpsim.Redirect(l.longURL)
	}
}

// MergeHits folds an externally recorded hit delta into a link's
// statistics: a hit total plus referrer/country breakdowns. This is how a
// fleet shard merge replays crawl-time traffic another process recorded,
// without re-crawling. The delta must be internally consistent — each
// live hit records at most one referrer and one country, so the breakdown
// totals may not exceed hits, and no count may be negative; inconsistent
// deltas (crafted or corrupted shard files) are refused rather than
// silently skewing Table IV.
func (s *Service) MergeHits(code string, hits int, referrers, countries map[string]int) error {
	if hits < 0 {
		return fmt.Errorf("shortener: merge on %s: negative hit count %d", s.host, hits)
	}
	if err := validDelta("referrer", referrers, hits); err != nil {
		return fmt.Errorf("shortener: merge %q on %s: %w", code, s.host, err)
	}
	if err := validDelta("country", countries, hits); err != nil {
		return fmt.Errorf("shortener: merge %q on %s: %w", code, s.host, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.links[code]
	if !ok {
		return fmt.Errorf("shortener: merge: unknown code %q on %s", code, s.host)
	}
	l.hits += hits
	for k, n := range referrers {
		l.referrers.AddN(k, n)
	}
	for k, n := range countries {
		l.countries.AddN(k, n)
	}
	return nil
}

func validDelta(what string, m map[string]int, hits int) error {
	total := 0
	for k, n := range m {
		if n < 0 {
			return fmt.Errorf("negative %s count %d for %q", what, n, k)
		}
		total += n
	}
	if total > hits {
		return fmt.Errorf("%s breakdown attributes %d of %d hits", what, total, hits)
	}
	return nil
}

// HitStats is the public statistics row of Table IV.
type HitStats struct {
	ShortURL string
	LongURL  string
	// ShortHits counts hits on this alias; LongHits sums hits over every
	// alias of the same long URL on this service.
	ShortHits int
	LongHits  int
	// TopCountry and TopReferrer are the modal values, or "-" if the
	// service saw no attributable traffic (several Table IV rows show
	// "-" referrers).
	TopCountry  string
	TopReferrer string
}

// Stats returns the public hit statistics for a short URL (full URL or
// bare code).
func (s *Service) Stats(shortURL string) (HitStats, bool) {
	code := shortURL
	if strings.Contains(shortURL, "/") {
		p, err := urlutil.Parse(shortURL)
		if err != nil {
			return HitStats{}, false
		}
		code = strings.TrimPrefix(p.Path, "/")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.links[code]
	if !ok {
		return HitStats{}, false
	}
	longHits := 0
	for _, sib := range s.byLong[l.longURL] {
		longHits += s.links[sib].hits
	}
	return HitStats{
		ShortURL:    "http://" + s.host + "/" + code,
		LongURL:     l.longURL,
		ShortHits:   l.hits,
		LongHits:    longHits,
		TopCountry:  topOrDash(l.countries),
		TopReferrer: topOrDash(l.referrers),
	}, true
}

func topOrDash(c *stats.Counter) string {
	items := c.Items()
	if len(items) == 0 {
		return "-"
	}
	return items[0].Key
}

// Registry tracks every shortening service in the universe so the analysis
// pipeline can ask "is this host a shortener?" — the categorizer needs that
// to place malicious shortened URLs in their own category rather than the
// generic suspicious-redirect bucket.
type Registry struct {
	mu       sync.RWMutex
	services map[string]*Service
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{services: make(map[string]*Service)}
}

// Add creates a new service at host, registers it on the internet, and
// returns it.
func (r *Registry) Add(host string, internet *httpsim.Internet) *Service {
	svc := New(host)
	internet.Register(host, svc.Handler())
	r.mu.Lock()
	r.services[svc.host] = svc
	r.mu.Unlock()
	return svc
}

// IsShortener reports whether host belongs to a registered service.
func (r *Registry) IsShortener(host string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.services[strings.ToLower(host)]
	return ok
}

// IsShortURL reports whether a URL points at a registered service.
func (r *Registry) IsShortURL(rawURL string) bool {
	p, err := urlutil.Parse(rawURL)
	if err != nil {
		return false
	}
	return r.IsShortener(p.Host)
}

// Service returns the service at host, if registered.
func (r *Registry) Service(host string) (*Service, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.services[strings.ToLower(host)]
	return s, ok
}

// StatsFor collects Table IV rows for the given short URLs across all
// services in the registry.
func (r *Registry) StatsFor(shortURLs []string) []HitStats {
	var out []HitStats
	for _, u := range shortURLs {
		p, err := urlutil.Parse(u)
		if err != nil {
			continue
		}
		svc, ok := r.Service(p.Host)
		if !ok {
			continue
		}
		if st, ok := svc.Stats(u); ok {
			out = append(out, st)
		}
	}
	return out
}

// String implements fmt.Stringer for HitStats (a Table IV row).
func (h HitStats) String() string {
	return fmt.Sprintf("%s -> %s (short %d, long %d, country %s, referrer %s)",
		h.ShortURL, h.LongURL, h.ShortHits, h.LongHits, h.TopCountry, h.TopReferrer)
}
