package scanner_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/crawler"
	"repro/internal/httpsim"
	"repro/internal/jsengine"
	"repro/internal/scanner"
	"repro/internal/web"
)

// FuzzScanPage drives the whole heuristic detector — HTML parser, JS
// sandbox, SWF and PDF inspectors — over one (content type, body) pair,
// the scan service's miss path for untrusted pages. A scan must not
// panic, must finish inside the sandbox's default budget, and two scans
// of one input must agree. The wall-clock guard is the one documented
// source of nondeterminism, so a TIMEOUT trip skips the comparison. The
// seeds are the hostile-script corpus and one rendered page of every
// site kind.
func FuzzScanPage(f *testing.F) {
	for _, hs := range web.HostileScripts() {
		f.Add("application/javascript", []byte(hs.Src))
		f.Add("text/html", []byte("<html><body><script>"+hs.Src+"</script></body></html>"))
	}
	cfg := web.DefaultConfig()
	cfg.Seed = 11
	cfg.BenignSites = 20
	cfg.MaliciousSites = 40
	u := web.Generate(cfg)
	client := httpsim.NewClient(u.Internet)
	for kind := web.Benign; kind <= web.Miscellaneous; kind++ {
		sites := u.SitesOfKind(kind)
		if len(sites) == 0 {
			f.Fatalf("universe has no %s site", kind)
		}
		res, err := client.Get(sites[0].EntryURL, crawler.BrowserUA, "")
		if err != nil {
			f.Fatalf("render %s site: %v", kind, err)
		}
		f.Add(res.Final.ContentType, res.Final.Body)
	}

	h := scanner.NewHeuristic()
	f.Fuzz(func(t *testing.T, contentType string, body []byte) {
		// Every inline script gets its own sandbox budget, so the scan
		// time grows with the body; the cap keeps one input under a few
		// seconds.
		if len(body) > 1<<14 {
			body = body[:1<<14]
		}
		first := h.ScanPage("http://fuzz.example/", contentType, body)
		second := h.ScanPage("http://fuzz.example/", contentType, body)
		timeout := string(jsengine.CodeTimeout)
		if slices.Contains(first.SandboxTripped, timeout) || slices.Contains(second.SandboxTripped, timeout) {
			return
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("two scans of one %q body disagree:\n%+v\n%+v", contentType, first, second)
		}
	})
}
