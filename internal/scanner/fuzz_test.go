package scanner_test

import (
	"bytes"
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
// seeds are corpusPages.
func FuzzScanPage(f *testing.F) {
	for _, p := range corpusPages(f) {
		f.Add(p.contentType, p.body)
	}

	h := scanner.NewHeuristic()
	f.Fuzz(func(t *testing.T, contentType string, body []byte) {
		// A page's scripts share one sandbox allowance, so the sandbox
		// cost no longer grows with the body; the cap bounds the linear
		// passes (parse, lex, static scan) and keeps an input at the
		// size of a large page.
		if len(body) > 1<<16 {
			body = body[:1<<16]
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

// corpusPage is one (content type, body) input of the scanner tests.
type corpusPage struct {
	name        string
	contentType string
	body        []byte
}

// corpusPages returns the hostile-script corpus, each script both as a
// script and inside a page, and the rendered entry page of one site of
// every kind. Each body is the caller's own copy.
func corpusPages(tb testing.TB) []corpusPage {
	tb.Helper()
	var pages []corpusPage
	for _, hs := range web.HostileScripts() {
		pages = append(pages,
			corpusPage{hs.Name + ".js", "application/javascript", []byte(hs.Src)},
			corpusPage{hs.Name + ".html", "text/html", []byte("<html><body><script>" + hs.Src + "</script></body></html>")})
	}
	u := corpusUniverse()
	client := httpsim.NewClient(u.Internet)
	for kind := web.Benign; kind <= web.Miscellaneous; kind++ {
		sites := u.SitesOfKind(kind)
		if len(sites) == 0 {
			tb.Fatalf("universe has no %s site", kind)
		}
		res, err := client.Get(sites[0].EntryURL, crawler.BrowserUA, "")
		if err != nil {
			tb.Fatalf("render %s site: %v", kind, err)
		}
		pages = append(pages, corpusPage{kind.String(), res.Final.ContentType, bytes.Clone(res.Final.Body)})
	}
	return pages
}

// corpusUniverse is the small universe corpusPages renders its site pages
// from; it is also the resource fetcher of the tests that scan them.
func corpusUniverse() *web.Universe {
	cfg := web.DefaultConfig()
	cfg.Seed = 11
	cfg.BenignSites = 20
	cfg.MaliciousSites = 40
	return web.Generate(cfg)
}
