package httpsim

import (
	"errors"
	"hash/fnv"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/htmlparse"
)

func newTestNet() *Internet {
	in := NewInternet()
	in.Register("start.example", func(req *Request) *Response {
		return Redirect("http://mid.example/hop")
	})
	in.Register("mid.example", func(req *Request) *Response {
		return Redirect("http://end.example/final?x=1")
	})
	in.Register("end.example", func(req *Request) *Response {
		return HTML("<html><body>landed</body></html>")
	})
	return in
}

func metaTarget(body []byte) string {
	return htmlparse.Parse(string(body)).MetaRefresh()
}

func TestRoundTripBasic(t *testing.T) {
	in := newTestNet()
	resp, err := in.RoundTrip(&Request{URL: "http://end.example/final"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || !strings.Contains(string(resp.Body), "landed") {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Latency <= 0 {
		t.Fatal("latency must be positive")
	}
}

func TestRoundTripNoHost(t *testing.T) {
	in := newTestNet()
	_, err := in.RoundTrip(&Request{URL: "http://nxdomain.example/"})
	if !errors.Is(err, ErrNoHost) {
		t.Fatalf("err = %v, want ErrNoHost", err)
	}
}

func TestRoundTripBadURL(t *testing.T) {
	in := newTestNet()
	_, err := in.RoundTrip(&Request{URL: ":::"})
	if !errors.Is(err, ErrBadURL) {
		t.Fatalf("err = %v, want ErrBadURL", err)
	}
}

func TestClientFollowsChain(t *testing.T) {
	in := newTestNet()
	c := NewClient(in)
	res, err := c.Get("http://start.example/", "UA", "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Redirects() != 2 {
		t.Fatalf("redirects = %d, want 2 (chain %+v)", res.Redirects(), res.Chain)
	}
	if res.FinalURL != "http://end.example/final?x=1" {
		t.Fatalf("final URL = %q", res.FinalURL)
	}
	if res.Chain[0].Kind != "http" || res.Chain[2].Kind != "" {
		t.Fatalf("chain kinds wrong: %+v", res.Chain)
	}
}

func TestReferrerPropagation(t *testing.T) {
	in := NewInternet()
	var seenRef string
	in.Register("a.example", func(req *Request) *Response {
		return Redirect("http://b.example/")
	})
	in.Register("b.example", func(req *Request) *Response {
		seenRef = req.Referrer
		return HTML("ok")
	})
	c := NewClient(in)
	if _, err := c.Get("http://a.example/page", "UA", "http://exchange.example/surf"); err != nil {
		t.Fatal(err)
	}
	if seenRef != "http://a.example/page" {
		t.Fatalf("referrer on hop 2 = %q, want the previous hop", seenRef)
	}
}

func TestMetaRefreshFollowed(t *testing.T) {
	// Figure 4's final hop is a meta refresh.
	in := NewInternet()
	in.Register("linkbucks.example", func(req *Request) *Response {
		return Redirect("http://bridge.example/ct")
	})
	in.Register("bridge.example", func(req *Request) *Response {
		return HTML(`<html><head><meta http-equiv="refresh" content="0; url=http://theclickcheck.example/?sub=1"></head></html>`)
	})
	in.Register("theclickcheck.example", func(req *Request) *Response {
		return HTML("destination")
	})
	c := NewClient(in)
	c.FollowMetaRefresh = true
	c.MetaRefreshTarget = metaTarget
	res, err := c.Get("http://linkbucks.example/", "UA", "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Redirects() != 2 {
		t.Fatalf("redirects = %d, chain = %+v", res.Redirects(), res.Chain)
	}
	if res.Chain[1].Kind != "meta" {
		t.Fatalf("second hop kind = %q, want meta", res.Chain[1].Kind)
	}
	if !strings.Contains(res.FinalURL, "theclickcheck") {
		t.Fatalf("final = %q", res.FinalURL)
	}
}

func TestMetaRefreshIgnoredWhenDisabled(t *testing.T) {
	in := NewInternet()
	in.Register("m.example", func(req *Request) *Response {
		return HTML(`<meta http-equiv="refresh" content="0; url=http://x.example/">`)
	})
	c := NewClient(in)
	res, err := c.Get("http://m.example/", "UA", "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Redirects() != 0 {
		t.Fatalf("meta refresh followed although disabled: %+v", res.Chain)
	}
}

func TestRedirectLoopDetected(t *testing.T) {
	in := NewInternet()
	in.Register("loop.example", func(req *Request) *Response {
		return Redirect("http://loop.example/")
	})
	c := NewClient(in)
	_, err := c.Get("http://loop.example/", "UA", "")
	if !errors.Is(err, ErrRedirectLoop) {
		t.Fatalf("err = %v, want ErrRedirectLoop", err)
	}
}

func TestMaxHops(t *testing.T) {
	in := NewInternet()
	in.Register("deep.example", func(req *Request) *Response {
		// Redirect to an ever-longer distinct URL so loop detection
		// never fires and only the hop budget can stop the walk.
		return Redirect(req.URL + "x")
	})
	c := NewClient(in)
	c.MaxHops = 5
	_, err := c.Get("http://deep.example/a", "UA", "")
	if !errors.Is(err, ErrTooManyRedirects) {
		t.Fatalf("err = %v, want ErrTooManyRedirects", err)
	}
}

func TestResolveRef(t *testing.T) {
	cases := []struct{ base, target, want string }{
		{"http://a.example/x/y", "http://b.example/z", "http://b.example/z"},
		{"http://a.example/x/y", "/top", "http://a.example/top"},
		{"http://a.example/x/y", "sib", "http://a.example/x/sib"},
		{"http://a.example/x/", "sib", "http://a.example/x/sib"},
		{"http://a.example/", "//c.example/p", "http://c.example/p"},
		{"http://a.example/q?k=1", "/r", "http://a.example/r"},
		{"http://a.example/x", "", "http://a.example/x"},
	}
	for _, tc := range cases {
		if got := resolveRef(tc.base, tc.target); got != tc.want {
			t.Errorf("resolveRef(%q, %q) = %q, want %q", tc.base, tc.target, got, tc.want)
		}
	}
}

func TestCloakingDispatch(t *testing.T) {
	// A cloaking host serves clean content to scanner UAs and malware to
	// browsers — the behaviour footnote 1 of the paper mitigates by
	// downloading pages with the browser UA.
	in := NewInternet()
	in.Register("cloak.example", func(req *Request) *Response {
		if strings.Contains(req.UserAgent, "Scanner") {
			return HTML("<html>all clean here</html>")
		}
		return HTML(`<html><iframe width="1" height="1" src="http://payload.example/"></iframe></html>`)
	})
	browser, err := in.RoundTrip(&Request{URL: "http://cloak.example/", UserAgent: "Mozilla/5.0"})
	if err != nil {
		t.Fatal(err)
	}
	scanner, err := in.RoundTrip(&Request{URL: "http://cloak.example/", UserAgent: "ScannerBot/1.0"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(browser.Body), "payload.example") {
		t.Fatal("browser did not receive the payload")
	}
	if strings.Contains(string(scanner.Body), "payload.example") {
		t.Fatal("scanner UA received the payload — cloak not working")
	}
}

func TestLatencyDeterministic(t *testing.T) {
	in := newTestNet()
	r1, _ := in.RoundTrip(&Request{URL: "http://end.example/final"})
	r2, _ := in.RoundTrip(&Request{URL: "http://end.example/final"})
	if r1.Latency != r2.Latency {
		t.Fatal("latency must be deterministic per URL")
	}
}

func TestHostsListing(t *testing.T) {
	in := newTestNet()
	if n := in.NumHosts(); n != 3 {
		t.Fatalf("hosts = %d, want 3", n)
	}
}

func TestNilHandlerResponse(t *testing.T) {
	in := NewInternet()
	in.Register("nil.example", func(req *Request) *Response { return nil })
	resp, err := in.RoundTrip(&Request{URL: "http://nil.example/"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 500 {
		t.Fatalf("nil handler response mapped to %d, want 500", resp.StatusCode)
	}
}

func TestRealHTTPAdapterRoundTrip(t *testing.T) {
	// Serve the virtual net over a real TCP listener and walk the full
	// redirect chain through it.
	in := newTestNet()
	srv := httptest.NewServer(AsHTTPHandler(in))
	defer srv.Close()

	c := NewClient(&RealTransport{Base: srv.URL})
	res, err := c.Get("http://start.example/", "Mozilla/5.0", "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Redirects() != 2 {
		t.Fatalf("redirects over real HTTP = %d, chain %+v", res.Redirects(), res.Chain)
	}
	if !strings.Contains(string(res.Final.Body), "landed") {
		t.Fatalf("final body = %q", res.Final.Body)
	}
}

func TestRealHTTPAdapterHeaders(t *testing.T) {
	in := NewInternet()
	var gotUA, gotRef string
	in.Register("hdr.example", func(req *Request) *Response {
		gotUA, gotRef = req.UserAgent, req.Referrer
		return HTML("ok")
	})
	srv := httptest.NewServer(AsHTTPHandler(in))
	defer srv.Close()

	c := NewClient(&RealTransport{Base: srv.URL})
	if _, err := c.Get("http://hdr.example/x", "CustomUA/2.0", "http://ref.example/"); err != nil {
		t.Fatal(err)
	}
	if gotUA != "CustomUA/2.0" || gotRef != "http://ref.example/" {
		t.Fatalf("headers lost over real HTTP: UA=%q ref=%q", gotUA, gotRef)
	}
}

func TestConcurrentRoundTrips(t *testing.T) {
	in := newTestNet()
	done := make(chan error, 32)
	for i := 0; i < 32; i++ {
		go func() {
			c := NewClient(in)
			_, err := c.Get("http://start.example/", "UA", "")
			done <- err
		}()
	}
	for i := 0; i < 32; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func BenchmarkClientChain(b *testing.B) {
	in := newTestNet()
	c := NewClient(in)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Get("http://start.example/", "UA", ""); err != nil {
			b.Fatal(err)
		}
	}
}

func TestResponseConstructors(t *testing.T) {
	if r := Script("var x = 1;"); r.StatusCode != 200 || r.ContentType != "application/javascript" {
		t.Fatalf("Script = %+v", r)
	}
	if r := Flash([]byte{1, 2}); r.ContentType != "application/x-shockwave-flash" || len(r.Body) != 2 {
		t.Fatalf("Flash = %+v", r)
	}
	if r := NotFound(); r.StatusCode != 404 {
		t.Fatalf("NotFound = %+v", r)
	}
	if r := Binary("application/pdf", []byte("x")); r.ContentType != "application/pdf" {
		t.Fatalf("Binary = %+v", r)
	}
}

func TestRequestMethodDefault(t *testing.T) {
	r := &Request{}
	if r.method() != "GET" {
		t.Fatalf("default method = %q", r.method())
	}
	r.Method = "HEAD"
	if r.method() != "HEAD" {
		t.Fatalf("explicit method = %q", r.method())
	}
}

func TestResultRedirectsEmpty(t *testing.T) {
	var r Result
	if r.Redirects() != 0 {
		t.Fatal("empty result should report 0 redirects")
	}
}

func TestPermanentRedirectFollowed(t *testing.T) {
	in := NewInternet()
	in.Register("old.example", func(req *Request) *Response {
		return &Response{StatusCode: 301, Location: "http://new.example/", ContentType: "text/html"}
	})
	in.Register("new.example", func(req *Request) *Response {
		return HTML("moved here")
	})
	res, err := NewClient(in).Get("http://old.example/", "UA", "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Redirects() != 1 || res.FinalURL != "http://new.example/" {
		t.Fatalf("301 chain = %+v", res.Chain)
	}
}

// TestRoundTripNeverWritesHandlerResponse checks the transport's
// immutability contract: a handler response already complete for the
// request's URL comes back as is, any other comes back as a completed
// copy, and the handler's response is never written.
func TestRoundTripNeverWritesHandlerResponse(t *testing.T) {
	const url, twin = "http://shared.example/page", "http://shared.example/page?twin"
	done := HTML("<html>done</html>").Complete(url)
	bare := Binary("", []byte("bare"))
	in := NewInternet()
	in.Register("shared.example", func(req *Request) *Response {
		if strings.Contains(req.URL, "bare") {
			return bare
		}
		return done
	})
	if got, _ := in.RoundTrip(&Request{URL: url}); got != done {
		t.Fatal("a response complete for the request URL was copied")
	}
	got, _ := in.RoundTrip(&Request{URL: twin})
	if got == done || got.Latency != syntheticLatency(twin) || done.Latency != syntheticLatency(url) {
		t.Fatalf("twin spelling: got %p latency %v, template %p latency %v", got, got.Latency, done, done.Latency)
	}
	got, _ = in.RoundTrip(&Request{URL: "http://shared.example/bare"})
	if got == bare || got.ContentType != "text/html" || got.Latency != syntheticLatency("http://shared.example/bare") {
		t.Fatalf("incomplete response: got %+v", got)
	}
	if bare.ContentType != "" || bare.Latency != 0 {
		t.Fatalf("handler response written: %+v", bare)
	}
}

// TestSyntheticLatencyIsFNV1a pins the latency hash to FNV-1a: every HAR
// timing and virtual clock reading derives from it.
func TestSyntheticLatencyIsFNV1a(t *testing.T) {
	for _, url := range []string{"", "http://a.example/", "http://end.example/final?x=1", strings.Repeat("é", 300)} {
		h := fnv.New32a()
		h.Write([]byte(url))
		if want := time.Duration(20+int(h.Sum32()%481)) * time.Millisecond; syntheticLatency(url) != want {
			t.Fatalf("syntheticLatency(%q) = %v, want %v", url, syntheticLatency(url), want)
		}
	}
}

// TestDoWithReusesFetch runs chains, loops and single hops back to back
// on one Fetch: each result must equal a fresh Do's, and a single-hop
// fetch of a shared, complete response must allocate nothing.
func TestDoWithReusesFetch(t *testing.T) {
	in := newTestNet()
	in.Register("loop.example", func(req *Request) *Response {
		return Redirect("http://loop.example/")
	})
	page := HTML("<html>page</html>").Complete("http://page.example/")
	in.Register("page.example", func(*Request) *Response { return page })
	c := NewClient(in)
	var f Fetch
	for _, url := range []string{"http://start.example/", "http://loop.example/", "http://page.example/",
		"http://start.example/", "http://loop.example/", "http://mid.example/hop"} {
		got, gotErr := c.DoWith(&f, url, "UA", "http://ref.example/", 1)
		want, wantErr := c.Do(url, "UA", "http://ref.example/", 1)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: err %v, want %v", url, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got.Chain, want.Chain) || got.FinalURL != want.FinalURL || !reflect.DeepEqual(got.Final, want.Final) {
			t.Fatalf("%s: reused fetch gave %+v, want %+v", url, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { c.DoWith(&f, "http://page.example/", "UA", "", 1) }); n != 0 {
		t.Fatalf("single-hop DoWith allocates %v times, want 0", n)
	}
}
