package scanner

import (
	"strings"

	"repro/internal/htmlparse"
	"repro/internal/httpsim"
	"repro/internal/jsengine"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/pdf"
	"repro/internal/swf"
	"repro/internal/urlutil"
)

// Heuristic is the Quttera analog: a signature-free content scanner that
// detects hidden iframe elements, obfuscated JavaScript (by sandbox
// execution), deceptive download prompts, malicious redirects expressed in
// script, and ExternalInterface-abusing Flash.
type Heuristic struct {
	// Sandbox enables JS dynamic analysis; off = static-only (the
	// ablation mode).
	Sandbox bool
	// ResourceFetcher, when set, lets the scanner pull external script
	// and Flash resources referenced by a page, as the real service's
	// crawler does. Fetches use BrowserUA so cloaked resources behave as
	// they would for a victim.
	ResourceFetcher httpsim.RoundTripper
	// BrowserUA is the UA used for resource fetches.
	BrowserUA string
	// MaxResources bounds sub-resource fetches per page.
	MaxResources int
	// Budget bounds each sandbox execution. Unset fields fall back to
	// jsengine.DefaultBudget, so the zero value is production-ready.
	Budget jsengine.Budget
	// Metrics, when set, receives jsengine.sandbox.<code> counters for
	// every sandbox error the scanner observes.
	Metrics *obs.Registry
}

// NewHeuristic returns a scanner with dynamic analysis enabled.
func NewHeuristic() *Heuristic {
	return &Heuristic{Sandbox: true, BrowserUA: "Mozilla/5.0 (ScanVM)", MaxResources: 8}
}

// IframeFinding describes one suspicious iframe.
type IframeFinding struct {
	Src string
	// Hidden explains why it was flagged: "tiny", "invisible",
	// "offscreen", "transparent".
	Hidden string
	// Injected marks iframes that only exist after JS execution.
	Injected bool
}

// Findings is the scanner's full result for one page.
type Findings struct {
	URL string
	// HiddenIframes lists statically present and dynamically injected
	// hidden iframes.
	HiddenIframes []IframeFinding
	// ObfuscatedJS marks scripts whose static form hides behaviour that
	// execution revealed (or whose shape matches the packer heuristics).
	ObfuscatedJS bool
	// Redirections lists script-driven navigations off the page's own
	// site.
	Redirections []string
	// DeceptiveDownload marks fake download prompts (executable payloads
	// behind data:/exe hrefs with installer bait text).
	DeceptiveDownload bool
	// FlashSuspicion is the SWF verdict, if Flash content was inspected.
	FlashSuspicion *swf.Suspicion
	// PDFFindings is the document verdict, if PDF content was inspected
	// (directly or via a linked document).
	PDFFindings *pdf.Findings
	// ExternalInterfaceAbuse marks ExternalInterface call chains between
	// Flash and JS.
	ExternalInterfaceAbuse bool
	// Fingerprinting marks user-behaviour tracking (mouse recording,
	// navigator probing).
	Fingerprinting bool
	// Popups counts scripted window.open calls.
	Popups int
	// SandboxTripped lists the resource codes (FUEL_EXHAUSTED,
	// HEAP_LIMIT, OUTPUT_LIMIT, TIMEOUT) scripts on this page tripped.
	// A script that outruns a production budget is hostile by
	// construction — no legitimate page needs unbounded CPU or memory —
	// so the trip itself is a malice signal. EVAL_ERROR is deliberately
	// excluded: benign pages ship unparseable junk all the time.
	SandboxTripped []string
	// Labels collects the detection aliases, matching the vocabulary of
	// the real reports quoted in the paper.
	Labels []string
}

// Malicious is the scanner's overall verdict. Fingerprinting alone is not
// enough (plenty of benign analytics reads navigator); everything else is.
func (f *Findings) Malicious() bool {
	return len(f.HiddenIframes) > 0 ||
		f.ObfuscatedJS ||
		len(f.Redirections) > 0 ||
		f.DeceptiveDownload ||
		(f.FlashSuspicion != nil && f.FlashSuspicion.Malicious()) ||
		(f.PDFFindings != nil && f.PDFFindings.Malicious()) ||
		f.ExternalInterfaceAbuse ||
		f.Popups > 0 ||
		len(f.SandboxTripped) > 0
}

// ScanPage analyzes one fetched response body.
func (h *Heuristic) ScanPage(url, contentType string, body []byte) *Findings {
	f := &Findings{URL: url}
	switch {
	case match.ContainsFold(contentType, "javascript"):
		h.scanScript(f, url, string(body))
	case match.ContainsFold(contentType, "shockwave") || match.ContainsFold(contentType, "x-swf"):
		h.scanFlash(f, body)
	case match.ContainsFold(contentType, "pdf"):
		h.scanPDF(f, url, body)
	default:
		h.scanHTML(f, url, string(body))
	}
	f.Labels = dedupeStrings(f.Labels)
	f.SandboxTripped = dedupeStrings(f.SandboxTripped)
	return f
}

func (h *Heuristic) scanHTML(f *Findings, url, body string) {
	doc := htmlparse.Parse(body)

	// Static hidden iframes (§V-A categories 1 and 2).
	for i := range doc.Elements {
		el := &doc.Elements[i]
		if el.Tag != "iframe" {
			continue
		}
		if why, hidden := iframeHidden(el); hidden {
			src := el.Get("src")
			if isBenignHiddenIframe(src) {
				// The Google OAuth relay pattern (§V-E): same geometry,
				// known-good endpoint. Real scanners whitelist it after
				// the FP reports; so do we.
				continue
			}
			f.HiddenIframes = append(f.HiddenIframes, IframeFinding{Src: src, Hidden: why})
			f.Labels = append(f.Labels, LabelIframeRef, LabelHifrm)
		}
	}

	// Deceptive download scaffolding (§V-B): installer-bait anchors.
	if deceptiveDownloadMarkup(doc) {
		f.DeceptiveDownload = true
		f.Labels = append(f.Labels, LabelHeuristicJS)
	}

	// Inline scripts.
	for _, script := range doc.InlineScripts() {
		h.scanScript(f, url, script)
	}

	// External sub-resources: scripts and Flash.
	if h.ResourceFetcher != nil {
		fetched := 0
		for _, src := range doc.ScriptSrcs() {
			if fetched >= h.MaxResources {
				break
			}
			resolved := resolveOn(url, src)
			resp, err := h.ResourceFetcher.RoundTrip(&httpsim.Request{
				URL: resolved, UserAgent: h.BrowserUA, Referrer: url,
			})
			// A truncated body is not the resource — scanning half a script
			// can invent or hide findings, so skip it like a failed fetch.
			if err != nil || resp.StatusCode != 200 || resp.Truncated() {
				continue
			}
			fetched++
			h.scanScript(f, resolved, string(resp.Body))
		}
		// Every embed, then every object.
	flash:
		for _, tag := range [...]string{"embed", "object"} {
			for i := range doc.Elements {
				el := &doc.Elements[i]
				if el.Tag != tag {
					continue
				}
				if fetched >= h.MaxResources {
					break flash
				}
				src := el.Get("src")
				if src == "" {
					src = el.Get("data")
				}
				if src == "" || !match.HasSuffixFold(src, ".swf") {
					continue
				}
				resp, err := h.ResourceFetcher.RoundTrip(&httpsim.Request{
					URL: resolveOn(url, src), UserAgent: h.BrowserUA, Referrer: url,
				})
				if err != nil || resp.StatusCode != 200 || resp.Truncated() {
					continue
				}
				fetched++
				h.scanFlash(f, resp.Body)
			}
		}
		// Linked documents: PDFs are a drive-by vehicle of their own.
		for _, href := range doc.Links() {
			if fetched >= h.MaxResources {
				break
			}
			if !match.HasSuffixFold(stripQuery(href), ".pdf") {
				continue
			}
			resp, err := h.ResourceFetcher.RoundTrip(&httpsim.Request{
				URL: resolveOn(url, href), UserAgent: h.BrowserUA, Referrer: url,
			})
			if err != nil || resp.StatusCode != 200 || resp.Truncated() {
				continue
			}
			fetched++
			h.scanPDF(f, resolveOn(url, href), resp.Body)
		}
	}
}

func stripQuery(u string) string {
	if i := strings.IndexByte(u, '?'); i >= 0 {
		return u[:i]
	}
	return u
}

func (h *Heuristic) scanScript(f *Findings, pageURL, src string) {
	rep := jsengine.Analyze(src, jsengine.Options{Sandbox: h.Sandbox, Budget: h.Budget})
	static := rep.Static

	if code, ok := jsengine.CodeOf(rep.SandboxErr); ok {
		h.Metrics.Counter("jsengine.sandbox." + strings.ToLower(string(code))).Inc()
		if code.Resource() {
			f.SandboxTripped = append(f.SandboxTripped, string(code))
			f.Labels = append(f.Labels, LabelResourceBomb)
		}
	}

	if static.Obfuscated() {
		f.ObfuscatedJS = true
		f.Labels = append(f.Labels, LabelScriptVirus)
	}
	if static.FingerprintAPIs {
		f.Fingerprinting = true
	}
	if static.ExternalInterface {
		f.ExternalInterfaceAbuse = true
		f.Labels = append(f.Labels, LabelBlacoleNV)
	}

	tr := rep.Trace
	if tr == nil {
		// Static-only mode: visible markup writes and location sets are
		// the only JS injection evidence available.
		if static.WritesMarkup && match.ContainsFold(src, "<iframe") {
			if why, found := staticIframeStringHidden(src); found {
				f.HiddenIframes = append(f.HiddenIframes, IframeFinding{Hidden: why, Injected: true})
				f.Labels = append(f.Labels, LabelScrInject)
			}
		}
		return
	}

	// Dynamic findings.
	for _, frag := range tr.InjectedIframes() {
		doc := htmlparse.Parse(frag)
		for i := range doc.Elements {
			el := &doc.Elements[i]
			if el.Tag != "iframe" {
				continue
			}
			why, hidden := iframeHidden(el)
			if !hidden {
				continue
			}
			src := el.Get("src")
			if isBenignHiddenIframe(src) {
				continue
			}
			f.HiddenIframes = append(f.HiddenIframes, IframeFinding{Src: src, Hidden: why, Injected: true})
			f.Labels = append(f.Labels, LabelScrInject, LabelIframeScript)
			if static.Obfuscated() || tr.Evals > 0 {
				f.Labels = append(f.Labels, LabelIframeArt)
			}
		}
	}
	pageDomain := urlutil.DomainOf(pageURL)
	for _, nav := range tr.Navigations {
		navDomain := urlutil.DomainOf(nav)
		if navDomain != "" && navDomain != pageDomain {
			f.Redirections = append(f.Redirections, nav)
			f.Labels = append(f.Labels, LabelJSRedirector, LabelScriptGeneric)
		}
	}
	if len(tr.Downloads) > 0 {
		f.DeceptiveDownload = true
		f.Labels = append(f.Labels, LabelHeuristicJS)
	}
	if len(tr.ExternalCalls) > 0 {
		f.ExternalInterfaceAbuse = true
		f.Labels = append(f.Labels, LabelBlacoleXM)
	}
	if len(tr.FingerprintReads) > 0 {
		f.Fingerprinting = true
	}
	f.Popups += len(tr.Popups)
	if tr.Evals > 0 && (len(tr.Writes) > 0 || len(tr.Navigations) > 0 || len(tr.Popups) > 0) {
		// Behaviour was hidden behind eval layers: obfuscation confirmed
		// dynamically even if static heuristics were inconclusive.
		f.ObfuscatedJS = true
	}
}

// scanPDF inspects document content: auto-open JavaScript (additionally
// traced in the sandbox), Launch droppers, and deliberate malformations.
func (h *Heuristic) scanPDF(f *Findings, pageURL string, body []byte) {
	pf, err := pdf.Inspect(body)
	if err != nil {
		return // not actually a PDF
	}
	f.PDFFindings = &pf
	if pf.Malicious() {
		f.Labels = append(f.Labels, LabelHeuristicJS)
	}
	if pf.OpenActionJS != "" && h.Sandbox {
		// The embedded JS is a script like any other: trace it so its
		// navigations/downloads feed the same finding fields.
		h.scanScript(f, pageURL, pf.OpenActionJS)
	}
}

func (h *Heuristic) scanFlash(f *Findings, body []byte) {
	_, beh, susp, err := swf.Inspect(body)
	if err != nil {
		return
	}
	f.FlashSuspicion = &susp
	if susp.ExternalCalls > 0 {
		f.ExternalInterfaceAbuse = true
		f.Labels = append(f.Labels, LabelBlacoleNV)
	}
	if susp.Malicious() {
		f.Labels = append(f.Labels, LabelBlacoleXM)
	}
	_ = beh
}

// iframeHidden classifies an iframe element's visibility.
func iframeHidden(el *htmlparse.Element) (string, bool) {
	w, wok := htmlparse.PixelValue(el.Get("width"))
	ht, hok := htmlparse.PixelValue(el.Get("height"))
	style := htmlparse.ParseStyle(el.Get("style"))
	if sw, ok := htmlparse.PixelValue(style["width"]); ok {
		w, wok = sw, true
	}
	if sh, ok := htmlparse.PixelValue(style["height"]); ok {
		ht, hok = sh, true
	}
	if wok && hok && w <= 10 && ht <= 10 {
		return "tiny", true
	}
	if strings.EqualFold(style["visibility"], "hidden") || strings.EqualFold(style["display"], "none") {
		return "invisible", true
	}
	if _, present := el.Attr("hidden"); present {
		return "invisible", true
	}
	if strings.EqualFold(el.Get("allowtransparency"), "true") && wok && w <= 10 {
		return "transparent", true
	}
	if top, ok := htmlparse.PixelValue(style["top"]); ok && top <= -50 && strings.EqualFold(style["position"], "absolute") {
		return "offscreen", true
	}
	if left, ok := htmlparse.PixelValue(style["left"]); ok && left <= -500 && strings.EqualFold(style["position"], "absolute") {
		return "offscreen", true
	}
	return "", false
}

// staticIframeStringHidden inspects iframe markup inside a JS string
// literal (static mode cannot execute document.write, but the literal
// itself may show the geometry).
func staticIframeStringHidden(src string) (string, bool) {
	idx := match.IndexFold(src, "<iframe")
	if idx < 0 {
		return "", false
	}
	frag := src[idx:]
	if end := strings.IndexByte(frag, '>'); end >= 0 {
		frag = frag[:end+1]
	}
	doc := htmlparse.Parse(frag)
	for i := range doc.Elements {
		if el := &doc.Elements[i]; el.Tag == "iframe" {
			if why, hidden := iframeHidden(el); hidden {
				return why, true
			}
		}
	}
	return "", false
}

// isBenignHiddenIframe whitelists the OAuth postmessage relay pattern that
// §V-E documents as a false positive.
func isBenignHiddenIframe(src string) bool {
	return match.ContainsFold(src, "/o/oauth2/postmessagerelay") ||
		match.ContainsFold(src, "accounts.google")
}

// deceptiveDownloadMarkup detects the fake install-prompt scaffolding of
// §V-B: an anchor carrying installer metadata whose href is a data: URL or
// an executable download.
func deceptiveDownloadMarkup(doc *htmlparse.Document) bool {
	for i := range doc.Elements {
		el := &doc.Elements[i]
		if el.Tag != "a" {
			continue
		}
		href := el.Get("href")
		dataHref := el.Get("data-dm-href")
		bait := el.Get("data-dm-title") != "" || strings.Contains(el.Get("class"), "download_link")
		executable := match.HasPrefixFold(href, "data:text/html") ||
			match.ContainsFold(href, ".exe") || match.ContainsFold(dataHref, "download")
		if bait && executable {
			return true
		}
	}
	return false
}

func resolveOn(base, ref string) string {
	ref = strings.TrimSpace(ref)
	if strings.Contains(ref, "://") {
		return ref
	}
	p, err := urlutil.Parse(base)
	if err != nil {
		return ref
	}
	if strings.HasPrefix(ref, "//") {
		return p.Scheme + ":" + ref
	}
	if strings.HasPrefix(ref, "/") {
		return p.Scheme + "://" + p.Host + ref
	}
	dir := p.Path
	if i := strings.LastIndexByte(dir, '/'); i >= 0 {
		dir = dir[:i+1]
	}
	return p.Scheme + "://" + p.Host + dir + ref
}

func dedupeStrings(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
