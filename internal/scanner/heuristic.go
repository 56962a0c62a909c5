package scanner

import (
	"strings"
	"unsafe"

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

// pageFuelScripts is a page's sandbox allowance in per-script budgets.
// Every script of one page, inline, fetched or in a linked PDF, draws its
// fuel from one meter of pageFuelScripts × Budget.Fuel, and each is still
// capped at Budget.Fuel. Once the page has spent it, its remaining
// scripts are scanned statically only and the page records
// FUEL_EXHAUSTED, so a page of a hundred infinite loops costs two
// scripts' budget, not a hundred. The most fuel any page of the
// benchmark's 56 study seeds and of three scan-api universes burns is
// 166 units, a three-thousandth of the default budget; two budgets let a
// page with one bomb still run its other scripts in full.
const pageFuelScripts = 2

// ScanPage analyzes one fetched response body. It reads body in place,
// so body must not change during the call; every string the Findings
// keep is a copy, so the caller may reuse body once ScanPage returns.
func (h *Heuristic) ScanPage(url, contentType string, body []byte) *Findings {
	f, _ := h.scan(url, contentType, body)
	return f
}

// scan is ScanPage that also reports the sandbox fuel the page spent.
func (h *Heuristic) scan(url, contentType string, body []byte) (*Findings, int64) {
	allowance := pageFuelScripts * h.scriptFuel()
	s := pageScan{Heuristic: h, f: &Findings{URL: url}, fuelLeft: allowance}
	switch {
	case match.ContainsFold(contentType, "javascript"):
		s.script(url, view(body))
	case match.ContainsFold(contentType, "shockwave") || match.ContainsFold(contentType, "x-swf"):
		s.flash(body)
	case match.ContainsFold(contentType, "pdf"):
		s.pdf(url, body)
	default:
		s.html(url, view(body))
	}
	f := s.f
	f.Labels = dedupeStrings(f.Labels)
	f.SandboxTripped = dedupeStrings(f.SandboxTripped)
	return f, allowance - s.fuelLeft
}

// view returns b as a string without copying it. The string aliases b:
// b must not change while the string or anything sliced from it is in
// use. ScanPage holds its body, and every fetched resource body, to that
// for the length of the call, and clones each string it keeps.
func view(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// scriptFuel is the fuel of one script's sandbox budget.
func (h *Heuristic) scriptFuel() int64 {
	if h.Budget.Fuel > 0 {
		return h.Budget.Fuel
	}
	return jsengine.DefaultBudget().Fuel
}

// pageScan is the state of one ScanPage call: the findings it builds and
// the sandbox fuel its remaining scripts may still burn.
type pageScan struct {
	*Heuristic
	f        *Findings
	fuelLeft int64
}

func (s *pageScan) html(url, body string) {
	f := s.f
	doc := htmlparse.Borrow(body)
	defer htmlparse.Release(doc)

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
			f.HiddenIframes = append(f.HiddenIframes, IframeFinding{Src: strings.Clone(src), Hidden: why})
			f.Labels = append(f.Labels, LabelIframeRef, LabelHifrm)
		}
	}

	// Deceptive download scaffolding (§V-B): installer-bait anchors.
	if deceptiveDownloadMarkup(doc) {
		f.DeceptiveDownload = true
		f.Labels = append(f.Labels, LabelHeuristicJS)
	}

	// Inline scripts.
	for i := range doc.Elements {
		if script, ok := doc.Elements[i].InlineScript(); ok {
			s.script(url, script)
		}
	}

	// External sub-resources: scripts and Flash.
	if s.ResourceFetcher == nil {
		return
	}
	fetched := 0
	for i := range doc.Elements {
		if fetched >= s.MaxResources {
			break
		}
		src, ok := doc.Elements[i].ScriptSrc()
		if !ok {
			continue
		}
		resolved := resolveOn(url, src)
		resp, err := s.ResourceFetcher.RoundTrip(&httpsim.Request{
			URL: resolved, UserAgent: s.BrowserUA, Referrer: url,
		})
		// A truncated body is not the resource — scanning half a script
		// can invent or hide findings, so skip it like a failed fetch.
		if err != nil || resp.StatusCode != 200 || resp.Truncated() {
			continue
		}
		fetched++
		s.script(resolved, view(resp.Body))
	}
	// Every embed, then every object.
flash:
	for _, tag := range [...]string{"embed", "object"} {
		for i := range doc.Elements {
			el := &doc.Elements[i]
			if el.Tag != tag {
				continue
			}
			if fetched >= s.MaxResources {
				break flash
			}
			src := el.Get("src")
			if src == "" {
				src = el.Get("data")
			}
			if src == "" || !match.HasSuffixFold(src, ".swf") {
				continue
			}
			resp, err := s.ResourceFetcher.RoundTrip(&httpsim.Request{
				URL: resolveOn(url, src), UserAgent: s.BrowserUA, Referrer: url,
			})
			if err != nil || resp.StatusCode != 200 || resp.Truncated() {
				continue
			}
			fetched++
			s.flash(resp.Body)
		}
	}
	// Linked documents: PDFs are a drive-by vehicle of their own.
	for i := range doc.Elements {
		if fetched >= s.MaxResources {
			break
		}
		href, ok := doc.Elements[i].Link()
		if !ok || !match.HasSuffixFold(stripQuery(href), ".pdf") {
			continue
		}
		resp, err := s.ResourceFetcher.RoundTrip(&httpsim.Request{
			URL: resolveOn(url, href), UserAgent: s.BrowserUA, Referrer: url,
		})
		if err != nil || resp.StatusCode != 200 || resp.Truncated() {
			continue
		}
		fetched++
		s.pdf(resolveOn(url, href), resp.Body)
	}
}

func stripQuery(u string) string {
	if i := strings.IndexByte(u, '?'); i >= 0 {
		return u[:i]
	}
	return u
}

// trip records a sandbox resource code on the page.
func (s *pageScan) trip(code jsengine.Code) {
	s.f.SandboxTripped = append(s.f.SandboxTripped, string(code))
	s.f.Labels = append(s.f.Labels, LabelResourceBomb)
}

func (s *pageScan) script(pageURL, src string) {
	f := s.f
	opts := jsengine.Options{Sandbox: s.Sandbox, Budget: s.Budget}
	if s.Sandbox {
		if s.fuelLeft == 0 {
			// The page has spent its allowance: the script is scanned
			// statically only.
			opts.Sandbox = false
			s.trip(jsengine.CodeFuelExhausted)
		} else {
			opts.Budget.Fuel = min(s.scriptFuel(), s.fuelLeft)
		}
	}
	rep := jsengine.Analyze(src, opts)
	static := rep.Static
	tr := rep.Trace
	if tr != nil {
		s.fuelLeft -= tr.FuelUsed
	}

	if code, ok := jsengine.CodeOf(rep.SandboxErr); ok {
		s.Metrics.Counter("jsengine.sandbox." + strings.ToLower(string(code))).Inc()
		if code.Resource() {
			s.trip(code)
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
		s.injectedIframes(frag, static.Obfuscated() || tr.Evals > 0)
	}
	pageDomain := urlutil.DomainOf(pageURL)
	for _, nav := range tr.Navigations {
		navDomain := urlutil.DomainOf(nav)
		if navDomain != "" && navDomain != pageDomain {
			f.Redirections = append(f.Redirections, strings.Clone(nav))
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

// injectedIframes records the hidden iframes of one markup fragment a
// script wrote; artful marks a script whose injection was obfuscated.
func (s *pageScan) injectedIframes(frag string, artful bool) {
	f := s.f
	doc := htmlparse.Borrow(frag)
	defer htmlparse.Release(doc)
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
		f.HiddenIframes = append(f.HiddenIframes, IframeFinding{Src: strings.Clone(src), Hidden: why, Injected: true})
		f.Labels = append(f.Labels, LabelScrInject, LabelIframeScript)
		if artful {
			f.Labels = append(f.Labels, LabelIframeArt)
		}
	}
}

// pdf inspects document content: auto-open JavaScript (additionally
// traced in the sandbox), Launch droppers, and deliberate malformations.
func (s *pageScan) pdf(pageURL string, body []byte) {
	pf, err := pdf.Inspect(body)
	if err != nil {
		return // not actually a PDF
	}
	s.f.PDFFindings = &pf
	if pf.Malicious() {
		s.f.Labels = append(s.f.Labels, LabelHeuristicJS)
	}
	if pf.OpenActionJS != "" && s.Sandbox {
		// The embedded JS is a script like any other: trace it so its
		// navigations/downloads feed the same finding fields.
		s.script(pageURL, pf.OpenActionJS)
	}
}

func (s *pageScan) flash(body []byte) {
	_, _, susp, err := swf.Inspect(body)
	if err != nil {
		return
	}
	s.f.FlashSuspicion = &susp
	if susp.ExternalCalls > 0 {
		s.f.ExternalInterfaceAbuse = true
		s.f.Labels = append(s.f.Labels, LabelBlacoleNV)
	}
	if susp.Malicious() {
		s.f.Labels = append(s.f.Labels, LabelBlacoleXM)
	}
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
	doc := htmlparse.Borrow(frag)
	defer htmlparse.Release(doc)
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
