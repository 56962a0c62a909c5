package urlutil

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

func TestParseBasics(t *testing.T) {
	cases := []struct {
		in     string
		scheme string
		host   string
		path   string
		query  string
	}{
		{"http://example.com", "http", "example.com", "/", ""},
		{"https://Example.COM/Path?a=1", "https", "example.com", "/Path", "a=1"},
		{"example.com/x", "http", "example.com", "/x", ""},
		{"http://example.com:8080/x", "http", "example.com", "/x", ""},
		{"http://goo.gl/VAdNHA", "http", "goo.gl", "/VAdNHA", ""},
		{"https://accounts.google.com/o/oauth2/postmessageRelay?parent=x", "https", "accounts.google.com", "/o/oauth2/postmessageRelay", "parent=x"},
	}
	for _, tc := range cases {
		p, err := Parse(tc.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.in, err)
		}
		if p.Scheme != tc.scheme || p.Host != tc.host || p.Path != tc.path || p.Query != tc.query {
			t.Errorf("Parse(%q) = %+v, want scheme=%q host=%q path=%q query=%q",
				tc.in, p, tc.scheme, tc.host, tc.path, tc.query)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{"", "   ", "ftp://example.com/x", "http://", "://nohost"} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"HTTP://Example.Com", "http://example.com/"},
		{"http://example.com:80/a", "http://example.com/a"},
		{"https://example.com:443/a", "https://example.com/a"},
		{"https://example.com:8443/a", "https://example.com:8443/a"},
		{"http://example.com/a#frag", "http://example.com/a"},
		{"http://example.com/a?q=1#frag", "http://example.com/a?q=1"},
	}
	for _, tc := range cases {
		got, err := Normalize(tc.in)
		if err != nil {
			t.Fatalf("Normalize(%q): %v", tc.in, err)
		}
		if got != tc.want {
			t.Errorf("Normalize(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	f := func(host, path string) bool {
		// Constrain to plausible host/path characters.
		h := sanitize(host)
		if h == "" {
			h = "x"
		}
		raw := "http://" + h + ".com/" + sanitize(path)
		n1, err := Normalize(raw)
		if err != nil {
			return true // unparseable inputs are out of scope
		}
		n2, err := Normalize(n1)
		return err == nil && n1 == n2
	}
	if err := quick.Check(f, testutil.QuickConfig(t, 300)); err != nil {
		t.Fatal(err)
	}
}

func sanitize(s string) string {
	var b strings.Builder
	for _, c := range s {
		if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') {
			b.WriteRune(c)
		}
	}
	if b.Len() > 20 {
		return b.String()[:20]
	}
	return b.String()
}

func TestRegisteredDomain(t *testing.T) {
	cases := []struct{ host, want string }{
		{"example.com", "example.com"},
		{"www.example.com", "example.com"},
		{"a.b.c.example.com", "example.com"},
		{"animestectudo.blogspot.com.br", "blogspot.com.br"},
		{"a.b.co.uk", "b.co.uk"},
		{"squidguard.mesd.k12.or.us", "mesd.k12.or.us"},
		{"esy.es", "esy.es"},
		{"freehost.esy.es", "esy.es"},
		{"atw.hu", "atw.hu"},
		{"com", "com"},
		{"Example.COM.", "example.com"},
	}
	for _, tc := range cases {
		if got := RegisteredDomain(tc.host); got != tc.want {
			t.Errorf("RegisteredDomain(%q) = %q, want %q", tc.host, got, tc.want)
		}
	}
}

func TestTLD(t *testing.T) {
	cases := []struct{ host, want string }{
		{"example.com", "com"},
		{"example.net", "net"},
		{"yadro.ru", "ru"},
		{"site.de", "de"},
		{"a.b.co.uk", "co.uk"},
		{"blog.blogspot.com.br", "com.br"},
		{"localhost", "localhost"},
	}
	for _, tc := range cases {
		if got := TLD(tc.host); got != tc.want {
			t.Errorf("TLD(%q) = %q, want %q", tc.host, got, tc.want)
		}
	}
}

func TestSameSite(t *testing.T) {
	// Self-referral classification compares registered domains.
	if DomainOf("http://www.otohits.net/a") != DomainOf("http://otohits.net/") {
		t.Error("www subdomain should be same site")
	}
	if DomainOf("http://10khits.com/") == DomainOf("http://otohits.net/") {
		t.Error("different domains reported same site")
	}
	if DomainOf("not a url") != "" {
		t.Error("unparseable URL has a domain")
	}
}

func TestHasExtension(t *testing.T) {
	if !HasExtension("http://x.com/a/542_mobile3.js", "js") {
		t.Error("want .js extension match")
	}
	if !HasExtension("http://x.com/swf/AdFlash46.SWF", "swf") {
		t.Error("want case-insensitive .swf match")
	}
	if HasExtension("http://x.com/a/b.jsx", "js") {
		t.Error(".jsx must not match .js")
	}
	if HasExtension("http://x.com/a?file=x.js", "js") {
		t.Error("query string must not count as extension")
	}
}

// distinctKeys applies the fold's distinct-URL keying (the normalized
// URL, or the raw string when normalization fails) and returns the
// distinct keys in first-seen order.
func distinctKeys(urls []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, raw := range urls {
		key, err := Normalize(raw)
		if err != nil {
			key = raw
		}
		if !seen[key] {
			seen[key] = true
			out = append(out, key)
		}
	}
	return out
}

func TestDedupe(t *testing.T) {
	in := []string{
		"http://example.com/a",
		"HTTP://EXAMPLE.COM/a",
		"http://example.com:80/a",
		"http://example.com/b",
		"http://example.com/a#frag",
	}
	out := distinctKeys(in)
	if len(out) != 2 {
		t.Fatalf("dedupe -> %d URLs (%v), want 2", len(out), out)
	}
	if out[0] != "http://example.com/a" || out[1] != "http://example.com/b" {
		t.Fatalf("dedupe order/content wrong: %v", out)
	}
}

func TestDedupeKeepsUnparseable(t *testing.T) {
	out := distinctKeys([]string{"%%%bad%%%", "%%%bad%%%", "ftp://x/y"})
	if len(out) != 2 {
		t.Fatalf("dedupe unparseable -> %v, want 2 entries", out)
	}
}

func TestDomainsOf(t *testing.T) {
	for raw, want := range map[string]string{
		"http://www.visadd.com/x":           "visadd.com",
		"http://visadd.com/y":               "visadd.com",
		"http://ajax.googleapis.com/lib.js": "googleapis.com",
		"not a url at all://":               "",
	} {
		if got := DomainOf(raw); got != want {
			t.Errorf("DomainOf(%q) = %q, want %q", raw, got, want)
		}
	}
}

func TestDomainOfUnparseable(t *testing.T) {
	if d := DomainOf("::::"); d != "" {
		t.Fatalf("DomainOf(unparseable) = %q, want empty", d)
	}
}

func TestParsedStringRoundTrip(t *testing.T) {
	f := func(word1, word2 uint16) bool {
		raw := "https://h" + itoa(uint64(word1)) + ".net/p" + itoa(uint64(word2)) + "?k=v"
		p, err := Parse(raw)
		if err != nil {
			return false
		}
		p2, err := Parse(p.String())
		if err != nil {
			return false
		}
		return p.String() == p2.String()
	}
	if err := quick.Check(f, testutil.QuickConfig(t, 100)); err != nil {
		t.Fatal(err)
	}
}

func itoa(v uint64) string {
	const digits = "0123456789"
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	return string(buf[i:])
}

func BenchmarkNormalize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Normalize("HTTP://Bridge.sf.AdMarketplace.net:80/ct?cid=14581111&x=y#frag"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRegisteredDomain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RegisteredDomain("a.b.c.blogspot.com.br")
	}
}
