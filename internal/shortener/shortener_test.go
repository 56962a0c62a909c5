package shortener

import (
	"strings"
	"testing"

	"repro/internal/httpsim"
)

func TestShortenAndResolve(t *testing.T) {
	s := New("goo.gl.sim")
	short := s.Shorten("http://torrent.example/page")
	if !strings.HasPrefix(short, "http://goo.gl.sim/") {
		t.Fatalf("short = %q", short)
	}
	resp := s.Handler()(&httpsim.Request{URL: short})
	if resp.StatusCode != 302 || resp.Location != "http://torrent.example/page" {
		t.Fatalf("resolve %s = %d %q", short, resp.StatusCode, resp.Location)
	}
	if resp := s.Handler()(&httpsim.Request{URL: "http://goo.gl.sim/zzzz"}); resp.StatusCode != 404 {
		t.Fatalf("unknown code resolved: %d", resp.StatusCode)
	}
}

func TestCodesUnique(t *testing.T) {
	s := New("bit.ly.sim")
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		u := s.Shorten("http://target.example/" + string(rune('a'+i%26)))
		if seen[u] {
			t.Fatalf("duplicate short URL %q", u)
		}
		seen[u] = true
	}
}

func TestHandlerRedirectsAndRecords(t *testing.T) {
	in := httpsim.NewInternet()
	reg := NewRegistry()
	svc := reg.Add("goo.gl.sim", in)
	in.Register("target.example", func(req *httpsim.Request) *httpsim.Response {
		return httpsim.HTML("landing")
	})
	short := svc.Shorten("http://target.example/land")

	c := httpsim.NewClient(in)
	for i := 0; i < 3; i++ {
		res, err := c.Get(short, "UA", "http://10khits.sim/surf")
		if err != nil {
			t.Fatal(err)
		}
		if res.FinalURL != "http://target.example/land" {
			t.Fatalf("final = %q", res.FinalURL)
		}
	}
	st, ok := svc.Stats(short)
	if !ok {
		t.Fatal("no stats")
	}
	if st.ShortHits != 3 {
		t.Fatalf("short hits = %d, want 3", st.ShortHits)
	}
	if st.TopReferrer != "10khits.sim" {
		t.Fatalf("top referrer = %q", st.TopReferrer)
	}
}

func TestCountryTracking(t *testing.T) {
	in := httpsim.NewInternet()
	reg := NewRegistry()
	svc := reg.Add("tiny.cc.sim", in)
	in.Register("t.example", func(req *httpsim.Request) *httpsim.Response {
		return httpsim.HTML("x")
	})
	short := svc.Shorten("http://t.example/")
	countries := []string{"USA", "Brazil", "USA", "USA", "Iran"}
	for _, country := range countries {
		_, err := in.RoundTrip(&httpsim.Request{
			URL:    short,
			Header: map[string]string{CountryHeader: country},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	st, _ := svc.Stats(short)
	if st.TopCountry != "USA" {
		t.Fatalf("top country = %q", st.TopCountry)
	}
	if st.ShortHits != 5 {
		t.Fatalf("hits = %d", st.ShortHits)
	}
}

func TestDashWhenNoTraffic(t *testing.T) {
	s := New("tr.im.sim")
	short := s.Shorten("http://x.example/")
	st, _ := s.Stats(short)
	if st.TopCountry != "-" || st.TopReferrer != "-" {
		t.Fatalf("stats of fresh link = %+v, want dashes", st)
	}
}

func TestLongHitsSumAcrossAliases(t *testing.T) {
	// "a URL may have multiple shortened URLs pointing to itself, thus
	// increasing the number of hits for the long URL" — Table IV.
	in := httpsim.NewInternet()
	reg := NewRegistry()
	svc := reg.Add("goo.gl.sim", in)
	in.Register("pop.example", func(req *httpsim.Request) *httpsim.Response {
		return httpsim.HTML("x")
	})
	a := svc.Shorten("http://pop.example/")
	b := svc.Shorten("http://pop.example/")
	for i := 0; i < 4; i++ {
		if _, err := in.RoundTrip(&httpsim.Request{URL: a}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := in.RoundTrip(&httpsim.Request{URL: b}); err != nil {
		t.Fatal(err)
	}
	st, _ := svc.Stats(a)
	if st.ShortHits != 4 || st.LongHits != 5 {
		t.Fatalf("short=%d long=%d, want 4 and 5", st.ShortHits, st.LongHits)
	}
}

func TestNestedShortening(t *testing.T) {
	in := httpsim.NewInternet()
	reg := NewRegistry()
	googl := reg.Add("goo.gl.sim", in)
	bitly := reg.Add("bit.ly.sim", in)
	in.Register("evil.example", func(req *httpsim.Request) *httpsim.Response {
		return httpsim.HTML("payload")
	})
	inner := googl.Shorten("http://evil.example/mal")
	outer := bitly.Shorten(inner)

	// Redirect-following resolves the nest.
	c := httpsim.NewClient(in)
	res, err := c.Get(outer, "UA", "")
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalURL != "http://evil.example/mal" {
		t.Fatalf("final = %q", res.FinalURL)
	}
	if res.Redirects() != 2 {
		t.Fatalf("redirects = %d, want 2 (nested)", res.Redirects())
	}
	for i, want := range []string{outer, inner, "http://evil.example/mal"} {
		if res.Chain[i].URL != want {
			t.Fatalf("hop %d = %q, want %q", i, res.Chain[i].URL, want)
		}
	}
}

func TestResolveChainDepthLimit(t *testing.T) {
	// A nest deeper than the client's hop budget does not resolve.
	in := httpsim.NewInternet()
	reg := NewRegistry()
	svc := reg.Add("goo.gl.sim", in)
	in.Register("end.example", func(req *httpsim.Request) *httpsim.Response {
		return httpsim.HTML("end")
	})
	target := "http://end.example/"
	for i := 0; i < 6; i++ {
		target = svc.Shorten(target)
	}
	c := httpsim.NewClient(in)
	c.MaxHops = 4
	if _, err := c.Get(target, "UA", ""); err == nil {
		t.Fatal("a 4-hop client resolved a 6-deep nest")
	}
	c.MaxHops = 10
	res, err := c.Get(target, "UA", "")
	if err != nil || res.FinalURL != "http://end.example/" || res.Redirects() != 6 {
		t.Fatalf("deep walk failed: %v %v", res, err)
	}
}

func TestRegistryIsShortener(t *testing.T) {
	in := httpsim.NewInternet()
	reg := NewRegistry()
	reg.Add("goo.gl.sim", in)
	if !reg.IsShortener("goo.gl.sim") || !reg.IsShortURL("http://goo.gl.sim/abc") {
		t.Fatal("registered shortener not recognized")
	}
	if reg.IsShortener("example.com") || reg.IsShortURL("http://example.com/a") {
		t.Fatal("non-shortener recognized")
	}
	if reg.IsShortURL("::bad::") {
		t.Fatal("unparseable URL recognized")
	}
}

func TestStatsFor(t *testing.T) {
	in := httpsim.NewInternet()
	reg := NewRegistry()
	a := reg.Add("goo.gl.sim", in)
	b := reg.Add("bit.ly.sim", in)
	u1 := a.Shorten("http://one.example/")
	u2 := b.Shorten("http://two.example/")
	rows := reg.StatsFor([]string{u1, u2, "http://unknown.example/x", "::bad::"})
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
}

func TestUnknownCode404(t *testing.T) {
	in := httpsim.NewInternet()
	reg := NewRegistry()
	reg.Add("goo.gl.sim", in)
	resp, err := in.RoundTrip(&httpsim.Request{URL: "http://goo.gl.sim/doesnotexist"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 404 {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

func TestConcurrentShortenAndHit(t *testing.T) {
	in := httpsim.NewInternet()
	reg := NewRegistry()
	svc := reg.Add("goo.gl.sim", in)
	in.Register("t.example", func(req *httpsim.Request) *httpsim.Response {
		return httpsim.HTML("x")
	})
	done := make(chan struct{}, 16)
	for i := 0; i < 16; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			u := svc.Shorten("http://t.example/")
			for j := 0; j < 10; j++ {
				in.RoundTrip(&httpsim.Request{URL: u})
			}
		}()
	}
	for i := 0; i < 16; i++ {
		<-done
	}
	if got := len(svc.links); got != 16 {
		t.Fatalf("links = %d, want 16", got)
	}
}

func BenchmarkShortenResolve(b *testing.B) {
	s := New("goo.gl.sim")
	h := s.Handler()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u := s.Shorten("http://x.example/p")
		if resp := h(&httpsim.Request{URL: u}); resp.Location != "http://x.example/p" {
			b.Fatal("resolve failed")
		}
	}
}
