package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/obs"
	"repro/internal/serve"
)

// newScanAPI builds a minimal scan service for handler-assembly tests (no
// detector work runs — only routing and request validation are driven).
func newScanAPI(t *testing.T, transport httpsim.RoundTripper, registry *obs.Registry) http.Handler {
	t.Helper()
	scanner := serve.NewScanner(transport, nil, nil, registry)
	srv := serve.NewServer(scanner, serve.Config{Workers: 1})
	t.Cleanup(srv.Close)
	return serve.APIHandler(srv)
}

// TestServeHandler mounts the universe the way slumserve does and drives
// it over a real listener with Host-header routing.
func TestServeHandler(t *testing.T) {
	cfg := core.DefaultStudyConfig()
	cfg.Seed = 2
	cfg.Scale = 900
	cfg.DriveShortenerTraffic = false
	st, err := core.NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(httpsim.AsHTTPHandler(st.Universe.Internet))
	defer srv.Close()

	get := func(host, path string) (int, string) {
		req, err := http.NewRequest("GET", srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Host = host
		client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse
		}}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// Exchange homepage serves its surf bar.
	exHost := st.Exchanges[0].Config().Host
	code, body := get(exHost, "/")
	if code != 200 || !strings.Contains(body, "surf-frame") {
		t.Fatalf("exchange homepage: code=%d body=%q", code, body[:min(len(body), 80)])
	}

	// A member site serves content.
	site := st.Universe.BenignSites()[0]
	code, body = get(site.Host, "/")
	if code != 200 || !strings.Contains(body, "<html>") {
		t.Fatalf("member site: code=%d", code)
	}

	// Unknown hosts surface the NXDOMAIN analog as a gateway error.
	code, _ = get("no-such-host.sim", "/")
	if code != http.StatusBadGateway {
		t.Fatalf("unknown host code = %d, want 502", code)
	}
}

// TestDebugEndpoints drives the assembled server handler: /debug/metrics
// must serve the live registry in text and JSON, /debug/pprof/ must
// answer, and universe requests must still route by Host header while
// bumping the request counter.
func TestDebugEndpoints(t *testing.T) {
	cfg := core.DefaultStudyConfig()
	cfg.Seed = 2
	cfg.Scale = 900
	cfg.DriveShortenerTraffic = false
	st, err := core.NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	registry := obs.NewRegistry()
	tracer := obs.NewTracer()
	api := newScanAPI(t, st.Universe.Internet, registry)
	srv := httptest.NewServer(serveHandler(api, st.Universe.Internet, registry, tracer))
	defer srv.Close()

	get := func(host, path string) (int, string) {
		req, err := http.NewRequest("GET", srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if host != "" {
			req.Host = host
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// A universe request routes by Host and increments the counter.
	exHost := st.Exchanges[0].Config().Host
	if code, _ := get(exHost, "/"); code != 200 {
		t.Fatalf("exchange homepage through serveHandler: code=%d", code)
	}
	if n := registry.Counter("serve.requests").Value(); n != 1 {
		t.Fatalf("serve.requests = %d after one universe request, want 1", n)
	}

	// The metrics endpoint reflects that count, in text and JSON.
	code, body := get("", "/debug/metrics")
	if code != 200 || !strings.Contains(body, "serve.requests") {
		t.Fatalf("/debug/metrics: code=%d body=%q", code, body[:min(len(body), 120)])
	}
	code, body = get("", "/debug/metrics?format=json")
	if code != 200 {
		t.Fatalf("/debug/metrics?format=json: code=%d", code)
	}
	var export struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
	}
	if err := json.Unmarshal([]byte(body), &export); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	found := false
	for _, c := range export.Counters {
		if c.Name == "serve.requests" && c.Value >= 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("serve.requests missing from JSON export: %+v", export.Counters)
	}

	// Debug requests must not count as universe traffic.
	if n := registry.Counter("serve.requests").Value(); n != 1 {
		t.Fatalf("serve.requests = %d after debug requests, want still 1", n)
	}

	// pprof index answers.
	if code, body := get("", "/debug/pprof/"); code != 200 || !strings.Contains(body, "profile") {
		t.Fatalf("/debug/pprof/: code=%d", code)
	}
}

// TestServeHandlerRoutingTable is the regression test for the mux
// shadowing bug: the old handler registered the universe at "/", so any
// /debug path that missed an exact pattern — /debug/metricsX,
// /debug/metrics/extra, /debug/ itself — fell through to the Host-routed
// universe and was answered by the virtual internet (a 502 for an
// unregistered host) instead of a 404. The table pins the ownership of
// all three surfaces: service path segments never reach the universe,
// and universe paths never lose to a service-prefix lookalike.
func TestServeHandlerRoutingTable(t *testing.T) {
	internet := httpsim.NewInternet()
	internet.Register("site.sim", func(req *httpsim.Request) *httpsim.Response {
		return &httpsim.Response{StatusCode: 200, ContentType: "text/html", Body: []byte("ok")}
	})
	registry := obs.NewRegistry()
	h := serveHandler(newScanAPI(t, internet, registry), internet, registry, obs.NewTracer())

	cases := []struct {
		name       string
		method     string
		path       string
		host       string
		body       string
		wantStatus int
		wantInBody string
	}{
		// Debug surface: exact and prefix-owned paths.
		{name: "metrics", method: "GET", path: "/debug/metrics", wantStatus: 200},
		{name: "pprof-cmdline", method: "GET", path: "/debug/pprof/cmdline", wantStatus: 200},
		// The bug: these reached the universe handler before the fix
		// (502 from an unregistered Host) — they are debug-owned 404s.
		{name: "metrics-typo", method: "GET", path: "/debug/metricsX", wantStatus: 404},
		{name: "metrics-nested", method: "GET", path: "/debug/metrics/extra", wantStatus: 404},
		{name: "debug-root", method: "GET", path: "/debug", wantStatus: 404},
		{name: "debug-slash", method: "GET", path: "/debug/", wantStatus: 404},
		{name: "debug-unknown", method: "GET", path: "/debug/nope", wantStatus: 404},

		// API surface: owned by the scan service, JSON 404s for unknowns.
		{name: "api-bad-json", method: "POST", path: "/api/v1/scan", body: "{", wantStatus: 400, wantInBody: "BAD_REQUEST"},
		{name: "api-scan-get", method: "GET", path: "/api/v1/scan", wantStatus: 405},
		{name: "api-unknown", method: "GET", path: "/api/v1/nope", wantStatus: 404, wantInBody: "NOT_FOUND"},
		{name: "api-root", method: "GET", path: "/api", wantStatus: 404, wantInBody: "NOT_FOUND"},
		{name: "api-job-missing", method: "GET", path: "/api/v1/jobs/job-999", wantStatus: 404, wantInBody: "no such job"},

		// Universe surface: Host-routed; service prefixes must not eat
		// lookalike paths that belong to the virtual web.
		{name: "universe-hit", method: "GET", path: "/", host: "site.sim", wantStatus: 200, wantInBody: "ok"},
		{name: "universe-api-lookalike", method: "GET", path: "/apifoo", host: "site.sim", wantStatus: 200},
		{name: "universe-debug-lookalike", method: "GET", path: "/debugfoo", host: "site.sim", wantStatus: 200},
		{name: "universe-no-host", method: "GET", path: "/", host: "nohost.sim", wantStatus: 502},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
			if tc.host != "" {
				req.Host = tc.host
			}
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != tc.wantStatus {
				t.Fatalf("%s %s (Host %q) = %d, want %d\nbody: %s",
					tc.method, tc.path, tc.host, w.Code, tc.wantStatus, w.Body.String())
			}
			if tc.wantInBody != "" && !strings.Contains(w.Body.String(), tc.wantInBody) {
				t.Fatalf("%s %s body = %q, want it to contain %q",
					tc.method, tc.path, w.Body.String(), tc.wantInBody)
			}
		})
	}
}

// TestPathUnder pins the segment-anchored prefix matcher the dispatch
// relies on.
func TestPathUnder(t *testing.T) {
	cases := []struct {
		path, root string
		want       bool
	}{
		{"/api", "/api", true},
		{"/api/", "/api", true},
		{"/api/v1/scan", "/api", true},
		{"/apifoo", "/api", false},
		{"/", "/api", false},
		{"/debug/metrics", "/debug", true},
		{"/debugfoo", "/debug", false},
	}
	for _, tc := range cases {
		if got := pathUnder(tc.path, tc.root); got != tc.want {
			t.Errorf("pathUnder(%q, %q) = %v, want %v", tc.path, tc.root, got, tc.want)
		}
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-scale", "nope"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestMain(m *testing.M) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err == nil {
		os.Stdout = null
	}
	os.Exit(m.Run())
}

// TestHTTPServerBounds checks that every connection phase of the listener
// is bounded, and that a default 30 s CPU profile fits the write timeout.
func TestHTTPServerBounds(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	for name, d := range map[string]time.Duration{
		"ReadHeaderTimeout": srv.ReadHeaderTimeout,
		"ReadTimeout":       srv.ReadTimeout,
		"WriteTimeout":      srv.WriteTimeout,
		"IdleTimeout":       srv.IdleTimeout,
	} {
		if d <= 0 {
			t.Errorf("%s = %v, want a positive bound", name, d)
		}
	}
	if srv.ReadHeaderTimeout > srv.ReadTimeout {
		t.Errorf("ReadHeaderTimeout %v exceeds ReadTimeout %v", srv.ReadHeaderTimeout, srv.ReadTimeout)
	}
	if srv.WriteTimeout <= 30*time.Second {
		t.Errorf("WriteTimeout %v does not outlast the 30 s default pprof profile", srv.WriteTimeout)
	}
}
