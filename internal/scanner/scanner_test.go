package scanner

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/httpsim"
	"repro/internal/jsengine"
	"repro/internal/simrand"
	"repro/internal/swf"
)

func testFeed() *ThreatFeed {
	f := NewThreatFeed()
	f.AddDomain("visadd.example", LabelBlacklisted)
	f.AddDomain("luckyleap.example", LabelBlacklisted)
	f.AddToken("zx_family_marker_71", LabelScrInject)
	f.AddToken("dm_topbar_installer", LabelHeuristicJS)
	return f
}

func TestMultiEngineDetectsDomainAndToken(t *testing.T) {
	m := NewMultiEngine(simrand.New(1), testFeed(), DefaultMultiEngineConfig())
	rep := m.ScanFile("http://sub.visadd.example/ad", []byte("<html>clean body</html>"))
	if !rep.Malicious(2) {
		t.Fatalf("bad-domain URL not detected: %+v", rep)
	}
	rep = m.ScanFile("http://innocent.example/p", []byte("<html>zx_family_marker_71</html>"))
	if !rep.Malicious(2) {
		t.Fatalf("token signature not detected: %+v", rep)
	}
	if len(rep.Labels) == 0 || rep.Labels[0] != LabelScrInject {
		t.Fatalf("labels = %v", rep.Labels)
	}
}

func TestMultiEngineCleanContent(t *testing.T) {
	m := NewMultiEngine(simrand.New(1), testFeed(), DefaultMultiEngineConfig())
	rep := m.ScanFile("http://innocent.example/p", []byte("<html>nothing suspicious</html>"))
	if rep.Malicious(2) {
		t.Fatalf("clean page flagged: %+v", rep)
	}
	if rep.Total != 60 {
		t.Fatalf("total engines = %d", rep.Total)
	}
}

func TestMultiEngineUnionCoverage(t *testing.T) {
	// Any single engine misses some signatures, but the union must not.
	feed := NewThreatFeed()
	for i := 0; i < 200; i++ {
		feed.AddToken(fmt.Sprintf("family_token_%03d", i), LabelScriptGeneric)
	}
	m := NewMultiEngine(simrand.New(3), feed, DefaultMultiEngineConfig())

	missedBySomeEngine := false
	for _, e := range m.Engines {
		if len(e.tokenSigs) < 200 {
			missedBySomeEngine = true
			break
		}
	}
	if !missedBySomeEngine {
		t.Fatal("every engine has full coverage; partial-coverage model broken")
	}
	for i := 0; i < 200; i++ {
		body := []byte("payload " + fmt.Sprintf("family_token_%03d", i))
		if !m.ScanFile("http://x.example/", body).Malicious(2) {
			t.Fatalf("union coverage missed token %d", i)
		}
	}
}

func TestCloakingEvadesURLScanButNotFileScan(t *testing.T) {
	// Footnote 1 of the paper, reproduced mechanically.
	in := httpsim.NewInternet()
	in.Register("cloak.example", func(req *httpsim.Request) *httpsim.Response {
		if strings.Contains(req.UserAgent, "VirusTotalBot") {
			return httpsim.HTML("<html>perfectly clean</html>")
		}
		return httpsim.HTML("<html>zx_family_marker_71</html>")
	})
	m := NewMultiEngine(simrand.New(1), testFeed(), DefaultMultiEngineConfig())
	m.Fetcher = in

	urlRep := m.ScanURL("http://cloak.example/p")
	if urlRep.Malicious(2) {
		t.Fatalf("URL scan should be cloaked away: %+v", urlRep)
	}

	// The crawler path: download with a browser UA, then upload the file.
	resp, err := in.RoundTrip(&httpsim.Request{URL: "http://cloak.example/p", UserAgent: "Mozilla/5.0"})
	if err != nil {
		t.Fatal(err)
	}
	fileRep := m.ScanFile("http://cloak.example/p", resp.Body)
	if !fileRep.Malicious(2) {
		t.Fatalf("file scan must defeat cloaking: %+v", fileRep)
	}
}

func TestScanURLWithoutFetcherUsesDomainSigs(t *testing.T) {
	m := NewMultiEngine(simrand.New(1), testFeed(), DefaultMultiEngineConfig())
	if !m.ScanURL("http://visadd.example/x").Malicious(2) {
		t.Fatal("domain signature not applied in URL-only mode")
	}
	if m.ScanURL("http://clean.example/x").Malicious(2) {
		t.Fatal("clean URL flagged in URL-only mode")
	}
}

func TestHeuristicHiddenIframeStatic(t *testing.T) {
	h := NewHeuristic()
	page := `<html><body><p>legit text</p>
<iframe align="right" height="1" name="cwindow" scrolling="NO" src="http://tracker.example/" width="1"></iframe>
</body></html>`
	f := h.ScanPage("http://site.example/", "text/html", []byte(page))
	if len(f.HiddenIframes) != 1 || f.HiddenIframes[0].Hidden != "tiny" {
		t.Fatalf("findings = %+v", f)
	}
	if !f.Malicious() {
		t.Fatal("hidden iframe page not malicious")
	}
	if !containsLabel(f.Labels, LabelIframeRef) {
		t.Fatalf("labels = %v", f.Labels)
	}
}

func TestHeuristicInvisibleIframeVariants(t *testing.T) {
	cases := []struct{ name, markup, why string }{
		{"visibility", `<iframe src="http://x.example/" width="300" height="200" style="visibility: hidden;"></iframe>`, "invisible"},
		{"display-none", `<iframe src="http://x.example/" style="display:none"></iframe>`, "invisible"},
		{"transparency", `<iframe src="http://x.example/a.php?t=29" width="1" height="1" allowtransparency="true"></iframe>`, "tiny"},
		{"offscreen", `<iframe src="http://x.example/" style="width: 50px; height: 50px; position: absolute; top: -100px;"></iframe>`, "offscreen"},
	}
	h := NewHeuristic()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := h.ScanPage("http://s.example/", "text/html", []byte(tc.markup))
			if len(f.HiddenIframes) != 1 {
				t.Fatalf("findings = %+v", f)
			}
			if f.HiddenIframes[0].Hidden != tc.why {
				t.Fatalf("hidden reason = %q, want %q", f.HiddenIframes[0].Hidden, tc.why)
			}
		})
	}
}

func TestHeuristicVisibleIframeClean(t *testing.T) {
	h := NewHeuristic()
	f := h.ScanPage("http://s.example/", "text/html",
		[]byte(`<iframe src="http://partner.example/widget" width="600" height="400"></iframe>`))
	if f.Malicious() {
		t.Fatalf("visible iframe flagged: %+v", f)
	}
}

func TestHeuristicOAuthRelayWhitelisted(t *testing.T) {
	// §V-E false positive: 1x1 offscreen Google OAuth relay.
	h := NewHeuristic()
	page := `<iframe name="oauth2relay503410543" src="https://accounts.google.sim/o/oauth2/postmessageRelay?parent=http%3A%2F%2Fx" style="width: 1px; height: 1px; position: absolute; top: -100px;"></iframe>`
	f := h.ScanPage("http://blog.example/", "text/html", []byte(page))
	if len(f.HiddenIframes) != 0 {
		t.Fatalf("OAuth relay flagged: %+v", f)
	}
}

func TestHeuristicObfuscatedInjection(t *testing.T) {
	payload := `document.write('<iframe src="http://mal.example/drop" width="1" height="1"></iframe>');`
	obf := `eval(unescape("` + jsengine.Escape(payload) + `"));`
	page := `<html><script>` + obf + `</script></html>`
	h := NewHeuristic()
	f := h.ScanPage("http://s.example/", "text/html", []byte(page))
	if !f.ObfuscatedJS {
		t.Fatalf("obfuscation not flagged: %+v", f)
	}
	if len(f.HiddenIframes) != 1 || !f.HiddenIframes[0].Injected {
		t.Fatalf("injected iframe not traced: %+v", f)
	}
	if !containsLabel(f.Labels, LabelScrInject) {
		t.Fatalf("labels = %v", f.Labels)
	}
}

func TestHeuristicStaticOnlyMissesObfuscated(t *testing.T) {
	payload := `document.write('<iframe src="http://mal.example/drop" width="1" height="1"></iframe>');`
	obf := `eval(unescape("` + jsengine.Escape(payload) + `"));`
	page := `<html><script>` + obf + `</script></html>`
	h := NewHeuristic()
	h.Sandbox = false
	f := h.ScanPage("http://s.example/", "text/html", []byte(page))
	if len(f.HiddenIframes) != 0 {
		t.Fatalf("static mode should not see the injected iframe: %+v", f)
	}
	// It still smells the obfuscation itself.
	if !f.ObfuscatedJS {
		t.Fatalf("static obfuscation heuristics missed eval+unescape")
	}
}

func TestHeuristicScriptRedirect(t *testing.T) {
	h := NewHeuristic()
	page := `<script>window.location.href = "http://other.example/land?x=1";</script>`
	f := h.ScanPage("http://origin.example/", "text/html", []byte(page))
	if len(f.Redirections) != 1 {
		t.Fatalf("redirect not found: %+v", f)
	}
	if !containsLabel(f.Labels, LabelJSRedirector) {
		t.Fatalf("labels = %v", f.Labels)
	}
	// Same-site navigation is not a suspicious redirect.
	f2 := h.ScanPage("http://origin.example/", "text/html",
		[]byte(`<script>window.location.href = "http://origin.example/page2";</script>`))
	if len(f2.Redirections) != 0 {
		t.Fatalf("same-site navigation flagged: %+v", f2)
	}
}

func TestHeuristicDeceptiveDownload(t *testing.T) {
	h := NewHeuristic()
	page := `<div id="dm_topbar">
<a href="data:text/html,%3Chtml%3E" data-dm-title="Flash Player" data-dm-href="http://files.example/downloader?id=7b" class="download_link">
<span>A pagina necessita do plugin para continuar.</span></a></div>`
	f := h.ScanPage("http://blogspot.example/", "text/html", []byte(page))
	if !f.DeceptiveDownload {
		t.Fatalf("deceptive download not flagged: %+v", f)
	}
	if !containsLabel(f.Labels, LabelHeuristicJS) {
		t.Fatalf("labels = %v", f.Labels)
	}
}

func TestHeuristicDownloadViaScript(t *testing.T) {
	h := NewHeuristic()
	page := `<script>window.location.href = "http://files.example/get?downloadAs=Flash-Player.exe";</script>`
	f := h.ScanPage("http://s.example/", "text/html", []byte(page))
	if !f.DeceptiveDownload {
		t.Fatalf(".exe navigation not flagged as download: %+v", f)
	}
}

func TestHeuristicFlashContent(t *testing.T) {
	sb := swf.NewScript().Obfuscate(0x5a)
	handler := sb.NewSegment()
	sb.AllowDomain(0, "*")
	sb.Listen(0, "mouseUp", handler)
	sb.ExternalCall(handler, "AdFlash.onClick")
	data := swf.NewBuilder(800, 600).
		AddClickArea(swf.ClickArea{X: 0, Y: 0, W: 800, H: 600, Alpha: 0}).
		Script(sb).Encode()

	h := NewHeuristic()
	f := h.ScanPage("http://static.example/swf/AdFlash46.swf", "application/x-shockwave-flash", data)
	if f.FlashSuspicion == nil || !f.FlashSuspicion.Malicious() {
		t.Fatalf("flash suspicion = %+v", f.FlashSuspicion)
	}
	if !f.ExternalInterfaceAbuse || !f.Malicious() {
		t.Fatalf("findings = %+v", f)
	}
}

func TestHeuristicExternalScriptFetch(t *testing.T) {
	in := httpsim.NewInternet()
	in.Register("cdn.example", func(req *httpsim.Request) *httpsim.Response {
		return httpsim.Script(`document.write('<iframe src="http://mal.example/x" width="1" height="1"></iframe>');`)
	})
	h := NewHeuristic()
	h.ResourceFetcher = in
	page := `<html><script src="http://cdn.example/542_mobile3.js"></script></html>`
	f := h.ScanPage("http://host.example/", "text/html", []byte(page))
	if len(f.HiddenIframes) != 1 {
		t.Fatalf("external script payload missed: %+v", f)
	}
}

func TestHeuristicRelativeScriptResolved(t *testing.T) {
	in := httpsim.NewInternet()
	var fetchedURL string
	in.Register("host.example", func(req *httpsim.Request) *httpsim.Response {
		fetchedURL = req.URL
		return httpsim.Script(`var benign = 1;`)
	})
	h := NewHeuristic()
	h.ResourceFetcher = in
	page := `<script src="/static/app.js"></script>`
	h.ScanPage("http://host.example/dir/page", "text/html", []byte(page))
	if fetchedURL != "http://host.example/static/app.js" {
		t.Fatalf("relative script resolved to %q", fetchedURL)
	}
}

func TestHeuristicGoogleAnalyticsClean(t *testing.T) {
	h := NewHeuristic()
	page := `<script>
(function(i,s,o,g,r){i['GoogleAnalyticsObject']=r;})(window,document,'script','//www.google-analytics.sim/analytics.js','ga');
ga('create', 'UA-54970982-1', 'auto');
ga('send', 'pageview');
</script>`
	f := h.ScanPage("http://blog.example/", "text/html", []byte(page))
	if f.Malicious() {
		t.Fatalf("GA loader flagged by heuristics: %+v", f)
	}
}

func TestWeakToolCoverages(t *testing.T) {
	feed := testFeed()
	// Gold set: 100 samples all carrying a known signature.
	var gold []GoldSample
	for i := 0; i < 100; i++ {
		gold = append(gold, GoldSample{
			URL:     fmt.Sprintf("http://gold%d.example/p", i),
			Content: []byte("body zx_family_marker_71 body"),
		})
	}
	for name, cov := range StandardToolCoverages {
		tool := NewWeakTool(name, feed, cov, 99)
		res := Vet([]Tool{tool}, gold)[0]
		got := res.Accuracy()
		if got < cov-0.15 || got > cov+0.15 {
			t.Errorf("%s accuracy = %v, want ~%v", name, got, cov)
		}
	}
}

func TestWeakToolZeroCoverageDetectsNothing(t *testing.T) {
	tool := NewWeakTool("wepawet", testFeed(), 0, 1)
	if tool.Detect("http://visadd.example/", []byte("zx_family_marker_71")) {
		t.Fatal("0-coverage tool detected a sample")
	}
}

func TestVetOrdering(t *testing.T) {
	feed := testFeed()
	gold := []GoldSample{{URL: "http://g.example/", Content: []byte("zx_family_marker_71")}}
	tools := []Tool{
		NewWeakTool("weak", feed, 0, 1),
		NewWeakTool("strong", feed, 1, 1),
	}
	res := Vet(tools, gold)
	if res[0].Tool != "strong" || res[1].Tool != "weak" {
		t.Fatalf("vet order = %+v", res)
	}
}

func TestAsToolAdapters(t *testing.T) {
	m := NewMultiEngine(simrand.New(1), testFeed(), DefaultMultiEngineConfig())
	vt := AsTool(m, 2)
	if vt.Name() != "virustotal" {
		t.Fatalf("name = %q", vt.Name())
	}
	if !vt.Detect("http://x.example/", []byte("zx_family_marker_71")) {
		t.Fatal("vt tool missed signature")
	}
	q := HeuristicAsTool(NewHeuristic())
	if q.Name() != "quttera" {
		t.Fatalf("name = %q", q.Name())
	}
	if !q.Detect("http://x.example/", []byte(`<iframe src="http://t.example/" width="1" height="1"></iframe>`)) {
		t.Fatal("quttera tool missed hidden iframe")
	}
}

func TestEngineDeterministic(t *testing.T) {
	m1 := NewMultiEngine(simrand.New(5), testFeed(), DefaultMultiEngineConfig())
	m2 := NewMultiEngine(simrand.New(5), testFeed(), DefaultMultiEngineConfig())
	r1 := m1.ScanFile("http://visadd.example/", []byte("x"))
	r2 := m2.ScanFile("http://visadd.example/", []byte("x"))
	if r1.Positives != r2.Positives {
		t.Fatalf("nondeterministic engines: %d vs %d", r1.Positives, r2.Positives)
	}
}

func containsLabel(labels []string, want string) bool {
	for _, l := range labels {
		if l == want {
			return true
		}
	}
	return false
}

func BenchmarkMultiEngineScanFile(b *testing.B) {
	m := NewMultiEngine(simrand.New(1), testFeed(), DefaultMultiEngineConfig())
	body := []byte(strings.Repeat("filler content ", 100) + "zx_family_marker_71")
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.ScanFile("http://x.example/p", body)
	}
}

func BenchmarkHeuristicScanHTML(b *testing.B) {
	h := NewHeuristic()
	page := []byte(`<html><body><p>text</p>
<iframe src="http://t.example/" width="1" height="1"></iframe>
<script>var x = navigator.userAgent; document.write("<div>" + x + "</div>");</script>
</body></html>`)
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ScanPage("http://s.example/", "text/html", page)
	}
}
