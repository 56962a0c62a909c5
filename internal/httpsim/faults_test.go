package httpsim

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// forceProfile returns a profile that injects the given kind on every
// request — the deterministic way to exercise one fault path.
func forceProfile(kind FaultKind) FaultProfile {
	p := FaultProfile{Name: "force-" + kind.String()}
	p.Rates[kind] = 1.0
	return p
}

// faultyInternet is a tiny universe plus an injector over it.
func faultyInternet(profile FaultProfile, seed uint64) (*Internet, *FaultInjector) {
	in := NewInternet()
	in.Register("site.test", func(req *Request) *Response {
		return HTML("<html><body>hello from site.test</body></html>")
	})
	in.Register("hop.test", func(req *Request) *Response {
		return Redirect("http://site.test/")
	})
	inj := NewFaultInjector(in, profile, seed)
	inj.Metrics = obs.NewRegistry()
	return in, inj
}

// injected returns the nonzero fault counters of inj's registry, keyed by
// FaultKind string.
func injected(inj *FaultInjector) map[string]int64 {
	out := map[string]int64{}
	for _, c := range inj.Metrics.Snapshot().Counters {
		if kind, ok := strings.CutPrefix(c.Name, "httpsim.faults."); ok && c.Value > 0 {
			out[kind] = c.Value
		}
	}
	return out
}

// totalRate is the probability that any given request is faulted.
func totalRate(p FaultProfile) float64 {
	sum := 0.0
	for _, r := range p.Rates {
		sum += r
	}
	return sum
}

func TestFaultPickDeterministic(t *testing.T) {
	hostile, _ := ProfileByName("hostile")
	urls := []string{
		"http://a.test/", "http://b.test/x", "http://c.test/y?z=1",
		"http://d.test/", "http://e.test/deep/path",
	}
	type decision struct {
		kind FaultKind
		ok   bool
	}
	baseline := map[string]decision{}
	for _, u := range urls {
		for attempt := 1; attempt <= 3; attempt++ {
			k, ok := hostile.pick(42, u, attempt)
			baseline[u+strconv.Itoa(attempt)] = decision{k, ok}
		}
	}
	// Same inputs from many goroutines must reproduce the same decisions:
	// the function is stateless, so scheduling cannot matter.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, u := range urls {
				for attempt := 1; attempt <= 3; attempt++ {
					k, ok := hostile.pick(42, u, attempt)
					want := baseline[u+strconv.Itoa(attempt)]
					if k != want.kind || ok != want.ok {
						t.Errorf("pick(42, %q, %d) = (%v, %v), want (%v, %v)",
							u, attempt, k, ok, want.kind, want.ok)
					}
				}
			}
		}()
	}
	wg.Wait()

	// Different seeds must fault different request subsets.
	same := 0
	for _, u := range urls {
		k1, ok1 := hostile.pick(1, u, 1)
		k2, ok2 := hostile.pick(2, u, 1)
		if k1 == k2 && ok1 == ok2 {
			same++
		}
	}
	if same == len(urls) {
		t.Error("seeds 1 and 2 made identical decisions for every URL; seed is not isolating streams")
	}
}

func TestFaultProfileZeroPassesThrough(t *testing.T) {
	_, inj := faultyInternet(FaultProfile{Name: "off"}, 7)
	client := NewClient(inj)
	for i := 0; i < 50; i++ {
		res, err := client.Get("http://site.test/?n="+strconv.Itoa(i), "UA", "")
		if err != nil {
			t.Fatalf("zero profile injected a fault: %v", err)
		}
		if res.Final.StatusCode != 200 {
			t.Fatalf("status = %d, want 200", res.Final.StatusCode)
		}
	}
	if got := injected(inj); len(got) != 0 {
		t.Errorf("zero profile injected faults: %v", got)
	}
	if n := inj.Metrics.Counter("httpsim.requests").Value(); n != 50 {
		t.Errorf("httpsim.requests = %d, want 50", n)
	}
}

func TestFaultRatesRoughlyObserved(t *testing.T) {
	hostile, _ := ProfileByName("hostile")
	faulted := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if _, ok := hostile.pick(9, "http://u.test/"+strconv.Itoa(i), 1); ok {
			faulted++
		}
	}
	rate := float64(faulted) / n
	want := totalRate(hostile)
	if rate < want-0.05 || rate > want+0.05 {
		t.Errorf("observed fault rate %.3f, profile promises %.3f", rate, want)
	}
}

func TestFaultConnReset(t *testing.T) {
	_, inj := faultyInternet(forceProfile(FaultConnReset), 1)
	_, err := NewClient(inj).Get("http://site.test/", "UA", "")
	if !errors.Is(err, ErrConnReset) {
		t.Fatalf("err = %v, want ErrConnReset", err)
	}
	if got := injected(inj); len(got) != 1 || got["conn-reset"] != 1 {
		t.Errorf("injected = %v, want conn-reset: 1", got)
	}
}

func TestFaultTimeout(t *testing.T) {
	_, inj := faultyInternet(forceProfile(FaultTimeout), 1)
	_, err := NewClient(inj).Get("http://site.test/", "UA", "")
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestFaultTransient5xx(t *testing.T) {
	_, inj := faultyInternet(forceProfile(FaultTransient5xx), 1)
	resp, err := inj.RoundTrip(&Request{URL: "http://site.test/"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 503 {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header["Retry-After"] == "" {
		t.Error("503 response is missing Retry-After")
	}
}

func TestFaultRedirectLoopDetectedByClient(t *testing.T) {
	_, inj := faultyInternet(forceProfile(FaultRedirectLoop), 1)
	res, err := NewClient(inj).Get("http://site.test/", "UA", "")
	if !errors.Is(err, ErrRedirectLoop) {
		t.Fatalf("err = %v, want ErrRedirectLoop", err)
	}
	if len(res.Chain) == 0 {
		t.Error("loop error should still carry the partial chain")
	}
}

func TestFaultTruncateSurfacesErrTruncated(t *testing.T) {
	_, inj := faultyInternet(forceProfile(FaultTruncate), 1)
	res, err := NewClient(inj).Get("http://site.test/", "UA", "")
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	// The partial body must never be handed over as if it were complete.
	if res.Final != nil {
		t.Errorf("truncated fetch still populated Final = %+v", res.Final)
	}
}

func TestFaultTruncateDoesNotMutateSharedResponse(t *testing.T) {
	in := NewInternet()
	shared := HTML("<html><body>shared response body</body></html>")
	origLen := len(shared.Body)
	in.Register("shared.test", func(req *Request) *Response { return shared })
	inj := NewFaultInjector(in, forceProfile(FaultTruncate), 1)
	if _, err := inj.RoundTrip(&Request{URL: "http://shared.test/"}); err != nil {
		t.Fatal(err)
	}
	if len(shared.Body) != origLen || shared.DeclaredLength != 0 {
		t.Errorf("injector mutated the handler's shared response: len=%d declared=%d",
			len(shared.Body), shared.DeclaredLength)
	}
}

func TestFaultTruncateTinyBodyDegradesToReset(t *testing.T) {
	in := NewInternet()
	in.Register("tiny.test", func(req *Request) *Response {
		return &Response{StatusCode: 200, Body: []byte("x")}
	})
	inj := NewFaultInjector(in, forceProfile(FaultTruncate), 1)
	_, err := inj.RoundTrip(&Request{URL: "http://tiny.test/"})
	if !errors.Is(err, ErrConnReset) {
		t.Fatalf("err = %v, want ErrConnReset for un-truncatable body", err)
	}
}

func TestFaultSlowBustsClientBudget(t *testing.T) {
	_, inj := faultyInternet(forceProfile(FaultSlow), 1)
	client := NewClient(inj)
	client.Budget = 2 * time.Second
	_, err := client.Get("http://site.test/", "UA", "")
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	// Without a budget the slow response is merely late, not an error.
	client.Budget = 0
	if _, err := client.Get("http://site.test/", "UA", ""); err != nil {
		t.Fatalf("unbudgeted slow fetch failed: %v", err)
	}
}

func TestFaultRetryRerolls(t *testing.T) {
	// With a per-request fault probability p, some (url, attempt) pair
	// within a handful of retries must come up clean: verify at least one
	// URL that faults on attempt 1 succeeds on a later attempt.
	lossy, _ := ProfileByName("lossy")
	recovered := false
	for i := 0; i < 200 && !recovered; i++ {
		url := "http://r.test/" + strconv.Itoa(i)
		if _, ok := lossy.pick(3, url, 1); !ok {
			continue
		}
		for attempt := 2; attempt <= 4; attempt++ {
			if _, ok := lossy.pick(3, url, attempt); !ok {
				recovered = true
				break
			}
		}
	}
	if !recovered {
		t.Error("no faulted URL recovered within 3 retries; attempts are not re-rolling")
	}
}

// TestServeAdapterPropagatesFaults proves injected faults survive the trip
// through a real HTTP stack: reset/timeout abort the TCP connection,
// truncation yields a short read under a full Content-Length, and 5xx
// arrives as a genuine status code — what a human driving curl against
// `slumserve -faults` observes.
func TestServeAdapterPropagatesFaults(t *testing.T) {
	newServer := func(kind FaultKind) (*httptest.Server, *Internet) {
		in, inj := faultyInternet(forceProfile(kind), 1)
		return httptest.NewServer(AsHTTPHandler(inj)), in
	}
	get := func(srv *httptest.Server) (*http.Response, []byte, error) {
		req, _ := http.NewRequest("GET", srv.URL+"/", nil)
		req.Host = "site.test"
		resp, err := srv.Client().Do(req)
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp, body, err
	}

	t.Run("conn-reset aborts the connection", func(t *testing.T) {
		srv, _ := newServer(FaultConnReset)
		defer srv.Close()
		if _, _, err := get(srv); err == nil {
			t.Fatal("expected a transport error, got a clean response")
		}
	})
	t.Run("truncation is a short read", func(t *testing.T) {
		srv, _ := newServer(FaultTruncate)
		defer srv.Close()
		resp, body, err := get(srv)
		if err == nil {
			t.Fatalf("expected an unexpected-EOF read error, got %d bytes cleanly", len(body))
		}
		if resp.StatusCode != 200 {
			t.Errorf("status = %d, want 200 (truncation bites the body, not the header)", resp.StatusCode)
		}
	})
	t.Run("503 passes through as a real status", func(t *testing.T) {
		srv, _ := newServer(FaultTransient5xx)
		defer srv.Close()
		resp, _, err := get(srv)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 503 {
			t.Errorf("status = %d, want 503", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("Retry-After header did not survive the adapter")
		}
	})
}

// TestServeAdapterThreadsAttempt proves the X-Sim-Attempt header carries
// the retry attempt through a real HTTP hop, so a fault-injected server
// re-rolls per retry exactly like the in-memory transport.
func TestServeAdapterThreadsAttempt(t *testing.T) {
	in := NewInternet()
	var gotAttempt int
	in.Register("probe.test", func(req *Request) *Response {
		gotAttempt = req.Attempt
		return HTML("ok")
	})
	srv := httptest.NewServer(AsHTTPHandler(in))
	defer srv.Close()

	rt := &RealTransport{Base: srv.URL, HTTPClient: srv.Client()}
	client := NewClient(rt)
	if _, err := client.Do("http://probe.test/", "UA", "", 3); err != nil {
		t.Fatal(err)
	}
	if gotAttempt != 3 {
		t.Errorf("server saw attempt %d, want 3", gotAttempt)
	}
}

// TestRealTransportSurfacesTruncation drives the simulated Client over a
// real HTTP connection to a fault-injected server and checks the short
// read maps back onto ErrTruncated.
func TestRealTransportSurfacesTruncation(t *testing.T) {
	_, inj := faultyInternet(forceProfile(FaultTruncate), 1)
	srv := httptest.NewServer(AsHTTPHandler(inj))
	defer srv.Close()

	rt := &RealTransport{Base: srv.URL, HTTPClient: srv.Client()}
	_, err := NewClient(rt).Get("http://site.test/", "UA", "")
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestMaxHopsFloor(t *testing.T) {
	in := NewInternet()
	in.Register("hop.test", func(req *Request) *Response {
		return Redirect(req.URL + "x")
	})
	c := NewClient(in)
	c.MaxHops = 1
	res, err := c.Get("http://hop.test/", "UA", "")
	if !errors.Is(err, ErrTooManyRedirects) {
		t.Fatalf("err = %v, want ErrTooManyRedirects at MaxHops=1", err)
	}
	if len(res.Chain) != 1 {
		t.Fatalf("chain length = %d, want exactly the first hop", len(res.Chain))
	}
}

func TestProfileByName(t *testing.T) {
	for _, name := range ProfileNames() {
		p, ok := ProfileByName(name)
		if !ok || p.Name != name {
			t.Errorf("ProfileByName(%q) = (%+v, %v)", name, p, ok)
		}
		if r := totalRate(p); r > 1 {
			t.Errorf("profile %q rates sum to %.2f > 1", name, r)
		}
	}
	if p, ok := ProfileByName(""); !ok || !p.Zero() {
		t.Errorf(`ProfileByName("") = (%+v, %v), want the off profile`, p, ok)
	}
	if _, ok := ProfileByName("nonsense"); ok {
		t.Error(`ProfileByName("nonsense") resolved`)
	}
}
