// Package urlutil provides URL normalization and domain-extraction helpers
// shared by the crawler, the exchanges, and the analysis pipeline.
//
// The paper aggregates its 1,003,087 crawled URLs into 306,895 distinct URLs
// and 17,448 domains (Table I / Table II) and breaks malicious URLs down by
// top-level domain (Figure 6). Those aggregations need a consistent notion
// of "normalized URL", "registered domain" and "TLD", which this package
// supplies.
package urlutil

import (
	"fmt"
	"net/url"
	"strings"

	"repro/internal/match"
)

// multiLabelSuffixes lists public suffixes that span two labels. The real
// study used full eTLD tables; the simulator only ever generates domains
// under the suffixes below, so this compact table is exact for our universe
// while remaining a faithful miniature of public-suffix handling (including
// the country-code services like esy.es and atw.hu that the paper calls out
// as blacklisted free-hosting domains).
var multiLabelSuffixes = map[string]bool{
	"co.uk":     true,
	"com.br":    true,
	"co.in":     true,
	"com.pk":    true,
	"net.ru":    true,
	"org.uk":    true,
	"k12.or.us": true,
}

// Parsed is a normalized decomposition of a URL.
type Parsed struct {
	// Raw is the input URL as given.
	Raw string
	// Scheme is "http" or "https" (lowercased).
	Scheme string
	// Host is the lowercased hostname without port.
	Host string
	// Port is the explicit port, or "" if none.
	Port string
	// Path is the URL path ("/" if empty).
	Path string
	// Query is the raw query string without '?'.
	Query string
	// Fragment is the fragment without '#'.
	Fragment string
}

// Parse parses and normalizes a URL. Scheme-less inputs like
// "example.com/x" are treated as http. It returns an error for inputs that
// have no usable host.
//
// Clean absolute URLs (the only kind the simulator generates, and the
// overwhelming majority of any crawl frontier) take an allocation-free
// fast path; anything unusual — percent escapes, uppercase, exotic
// punctuation, missing scheme — falls through to net/url so edge-case and
// error semantics are exactly net/url's.
func Parse(raw string) (Parsed, error) {
	if p, _, ok := parseFast(raw); ok {
		return p, nil
	}
	return parseSlow(raw)
}

// pathSafeByte marks path bytes that net/url's EscapedPath is guaranteed
// to hand back verbatim (no escaping, no unescaping). Deliberately a
// subset of what RFC 3986 allows unescaped: anything outside it takes the
// slow path rather than risking a divergence.
var pathSafeByte = func() (t [256]bool) {
	for c := 'a'; c <= 'z'; c++ {
		t[c] = true
	}
	for c := 'A'; c <= 'Z'; c++ {
		t[c] = true
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = true
	}
	for _, c := range []byte("-_.~$&+,/:;=@") {
		t[c] = true
	}
	return
}()

// parseFast recognizes scheme://host[:port][/path][?query][#fragment]
// built from unambiguous bytes only. It never reports an error: on any
// doubt it returns ok=false and the caller retries with parseSlow, keeping
// accept/reject behavior and error text identical to the net/url path.
// canonical reports whether raw is already in Normalize's output form
// (letting Normalize return its input with zero allocations).
func parseFast(raw string) (p Parsed, canonical, ok bool) {
	var rest string
	switch {
	case strings.HasPrefix(raw, "http://"):
		p.Scheme, rest = "http", raw[7:]
	case strings.HasPrefix(raw, "https://"):
		p.Scheme, rest = "https", raw[8:]
	default:
		return Parsed{}, false, false
	}
	// One unusual byte anywhere (spaces, controls, '%', non-ASCII) and
	// the slow path owns the input.
	for i := 0; i < len(rest); i++ {
		if c := rest[i]; c <= 0x20 || c >= 0x7f || c == '%' {
			return Parsed{}, false, false
		}
	}

	hostEnd := len(rest)
	for i := 0; i < len(rest); i++ {
		if c := rest[i]; c == '/' || c == '?' || c == '#' {
			hostEnd = i
			break
		}
	}
	auth := rest[:hostEnd]
	p.Host = auth
	if ci := strings.IndexByte(auth, ':'); ci >= 0 {
		p.Host, p.Port = auth[:ci], auth[ci+1:]
		if p.Port == "" {
			return Parsed{}, false, false
		}
		for i := 0; i < len(p.Port); i++ {
			if c := p.Port[i]; c < '0' || c > '9' {
				return Parsed{}, false, false
			}
		}
	}
	// validHost only admits lowercase letters, so mixed-case hosts fall
	// through to the slow path's ToLower rather than being rejected here.
	if p.Host == "" || !validHost(p.Host) {
		return Parsed{}, false, false
	}

	rest = rest[hostEnd:]
	hadFrag := false
	if hi := strings.IndexByte(rest, '#'); hi >= 0 {
		p.Fragment, rest, hadFrag = rest[hi+1:], rest[:hi], true
	}
	hadQuery := false
	if qi := strings.IndexByte(rest, '?'); qi >= 0 {
		p.Query, rest, hadQuery = rest[qi+1:], rest[:qi], true
	}
	p.Path = "/"
	if rest != "" {
		for i := 0; i < len(rest); i++ {
			if !pathSafeByte[rest[i]] {
				return Parsed{}, false, false
			}
		}
		p.Path = rest
	}
	p.Raw = raw
	canonical = !hadFrag &&
		rest != "" && // path spelled out in raw
		!(hadQuery && p.Query == "") && // bare trailing '?' is elided
		!(p.Port != "" && isDefaultPort(p.Scheme, p.Port))
	return p, canonical, true
}

func parseSlow(raw string) (Parsed, error) {
	trimmed := strings.TrimSpace(raw)
	if trimmed == "" {
		return Parsed{}, fmt.Errorf("urlutil: empty URL")
	}
	if !strings.Contains(trimmed, "://") {
		trimmed = "http://" + trimmed
	}
	u, err := url.Parse(trimmed)
	if err != nil {
		return Parsed{}, fmt.Errorf("urlutil: parse %q: %w", raw, err)
	}
	scheme := strings.ToLower(u.Scheme)
	if scheme != "http" && scheme != "https" {
		return Parsed{}, fmt.Errorf("urlutil: unsupported scheme %q in %q", u.Scheme, raw)
	}
	host := strings.ToLower(u.Hostname())
	if host == "" {
		return Parsed{}, fmt.Errorf("urlutil: no host in %q", raw)
	}
	if !validHost(host) {
		return Parsed{}, fmt.Errorf("urlutil: invalid host %q in %q", host, raw)
	}
	path := u.EscapedPath()
	if path == "" {
		path = "/"
	}
	return Parsed{
		Raw:      raw,
		Scheme:   scheme,
		Host:     host,
		Port:     u.Port(),
		Path:     path,
		Query:    u.RawQuery,
		Fragment: u.Fragment,
	}, nil
}

// Normalize returns the canonical string form of a URL: lowercased scheme
// and host, default ports dropped, empty path replaced by "/", fragment
// dropped. Two URLs that normalize identically are "the same URL" for the
// distinct-URL statistics in Table I.
func Normalize(raw string) (string, error) {
	if p, canonical, ok := parseFast(raw); ok {
		if canonical {
			return raw, nil // already normalized: hand the input back as-is
		}
		return p.String(), nil
	}
	p, err := parseSlow(raw)
	if err != nil {
		return "", err
	}
	return p.String(), nil
}

// String renders the normalized form (fragment excluded, default port
// elided).
func (p Parsed) String() string {
	var b strings.Builder
	b.WriteString(p.Scheme)
	b.WriteString("://")
	b.WriteString(p.Host)
	if p.Port != "" && !isDefaultPort(p.Scheme, p.Port) {
		b.WriteByte(':')
		b.WriteString(p.Port)
	}
	b.WriteString(p.Path)
	if p.Query != "" {
		b.WriteByte('?')
		b.WriteString(p.Query)
	}
	return b.String()
}

// validHost accepts hostnames made of letters, digits, hyphens and dots,
// with non-empty labels. IP literals and IDN punycode both pass; anything
// with other punctuation (a symptom of a mangled URL) is rejected.
func validHost(host string) bool {
	if strings.HasPrefix(host, ".") || strings.HasSuffix(host, "..") {
		return false
	}
	prev := byte('.')
	for i := 0; i < len(host); i++ {
		c := host[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-':
		case c == '.':
			if prev == '.' {
				return false
			}
		default:
			return false
		}
		prev = c
	}
	return true
}

func isDefaultPort(scheme, port string) bool {
	return (scheme == "http" && port == "80") || (scheme == "https" && port == "443")
}

// RegisteredDomain returns the registrable domain of a host: the public
// suffix plus one label (e.g. "shop.example.com" -> "example.com",
// "a.b.co.uk" -> "b.co.uk"). Free-hosting providers the paper flags, such
// as esy.es and atw.hu, are ordinary registered domains under their ccTLD,
// matching how Table II counts them. A host that is itself a bare public
// suffix is returned unchanged.
// RegisteredDomain is called once per URL per blacklist/feed consultation,
// so it works by slicing between dot positions instead of Split/Join —
// already-lowercase input (every host the simulator emits) costs zero
// allocations.
func RegisteredDomain(host string) string {
	host = lowerTrimDots(host)
	// Positions of the last four dots; -1 sentinels make "the whole
	// host" fall out of the same slicing expressions below.
	d := [4]int{-1, -1, -1, -1}
	nd := 0
	for i := len(host) - 1; i >= 0 && nd < 4; i-- {
		if host[i] == '.' {
			d[nd] = i
			nd++
		}
	}
	if nd <= 1 { // two labels or fewer: already a registrable domain
		return host
	}
	// Multi-label public suffixes, longest (three-label) first. A map
	// probe with a sliced key does not allocate.
	if nd >= 3 && multiLabelSuffixes[host[d[2]+1:]] {
		return host[d[3]+1:]
	}
	if multiLabelSuffixes[host[d[1]+1:]] {
		return host[d[2]+1:]
	}
	return host[d[1]+1:]
}

// TLD returns the final public-suffix of a host (e.g. "com", "co.uk").
func TLD(host string) string {
	host = lowerTrimDots(host)
	d := [3]int{-1, -1, -1}
	nd := 0
	for i := len(host) - 1; i >= 0 && nd < 3; i-- {
		if host[i] == '.' {
			d[nd] = i
			nd++
		}
	}
	if nd == 0 {
		return host
	}
	if nd >= 3 && multiLabelSuffixes[host[d[2]+1:]] {
		return host[d[2]+1:]
	}
	if nd >= 2 && multiLabelSuffixes[host[d[1]+1:]] {
		return host[d[1]+1:]
	}
	return host[d[0]+1:]
}

// lowerTrimDots strips trailing dots and lowercases. strings.ToLower
// returns its input unchanged (no copy) when nothing folds, which is the
// normal case; it is kept (rather than an ASCII fold) so arbitrary-byte
// hosts keep their historical Unicode-folding behavior.
func lowerTrimDots(host string) string {
	for len(host) > 0 && host[len(host)-1] == '.' {
		host = host[:len(host)-1]
	}
	return strings.ToLower(host)
}

// DomainOf is a convenience: parse raw and return its registered domain,
// or "" if the URL does not parse.
func DomainOf(raw string) string {
	p, err := Parse(raw)
	if err != nil {
		return ""
	}
	return RegisteredDomain(p.Host)
}

// TLDOf is a convenience: parse raw and return its TLD, or "" on error.
func TLDOf(raw string) string {
	p, err := Parse(raw)
	if err != nil {
		return ""
	}
	return TLD(p.Host)
}

// HasExtension reports whether the URL path ends with the given lowercase
// extension (without dot), e.g. HasExtension(u, "js"). The paper's
// categorizer assigns the JavaScript and Flash malware categories by file
// extension.
func HasExtension(raw, ext string) bool {
	p, err := Parse(raw)
	if err != nil {
		return false
	}
	return len(p.Path) > len(ext) &&
		p.Path[len(p.Path)-len(ext)-1] == '.' &&
		match.HasSuffixFold(p.Path, ext)
}
