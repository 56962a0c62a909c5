// Casestudies: walks the §V malware drill-downs one by one against live
// simulated pages, showing what each detection layer sees:
//
//	A. malicious iframe injection (hidden-iframe variants incl. obfuscated)
//	B. deceptive download (fake Flash-Player.exe install prompt)
//	C. suspicious redirection (the Figure 4 chain, hop by hop)
//	D. external interface calls (decompiled ad-Flash click-catcher)
//	E. false positives (OAuth relay iframe, analytics loader)
//
//	go run ./examples/casestudies
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"repro/internal/crawler"
	"repro/internal/httpsim"
	"repro/internal/scanner"
	"repro/internal/swf"
	"repro/internal/web"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the example's full output to w.
func run(w io.Writer) error {
	ucfg := web.DefaultConfig()
	ucfg.Seed = 7
	ucfg.BenignSites = 120
	ucfg.MaliciousSites = 110
	universe := web.Generate(ucfg)

	heur := scanner.NewHeuristic()
	heur.ResourceFetcher = universe.Internet
	client := crawler.NewClient(universe.Internet)

	if err := caseA(w, universe, heur, client); err != nil {
		return err
	}
	if err := caseB(w, universe, heur, client); err != nil {
		return err
	}
	if err := caseC(w, universe, client); err != nil {
		return err
	}
	if err := caseD(w, universe, heur, client); err != nil {
		return err
	}
	caseE(w, heur)
	return nil
}

// findJSSite returns the first MaliciousJS site with the given variant.
func findJSSite(u *web.Universe, v web.JSVariant) *web.Site {
	for _, s := range u.SitesOfKind(web.MaliciousJS) {
		if s.Variant == v {
			return s
		}
	}
	return nil
}

func scanSite(heur *scanner.Heuristic, client *httpsim.Client, url string) (*scanner.Findings, error) {
	res, err := client.Get(url, crawler.BrowserUA, "")
	if err != nil {
		return nil, fmt.Errorf("fetch %s: %w", url, err)
	}
	return heur.ScanPage(res.FinalURL, res.Final.ContentType, res.Final.Body), nil
}

func caseA(w io.Writer, u *web.Universe, heur *scanner.Heuristic, client *httpsim.Client) error {
	fmt.Fprintln(w, "=== Case A: malicious iframe injection (§V-A) ===")
	for _, variant := range []struct {
		v    web.JSVariant
		name string
	}{
		{web.JSTinyIframe, "1x1 static iframe (Code 1 shape)"},
		{web.JSInvisibleIframe, "transparent iframe with query-string exfil (Code 2 shape)"},
		{web.JSObfuscatedInjection, "eval/unescape-obfuscated document.write injection (Code 3 shape)"},
	} {
		site := findJSSite(u, variant.v)
		if site == nil {
			continue
		}
		f, err := scanSite(heur, client, site.EntryURL)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n%s\n  site: %s\n", variant.name, site.EntryURL)
		for _, fr := range f.HiddenIframes {
			fmt.Fprintf(w, "  hidden iframe: reason=%s injected-by-js=%v src=%s\n", fr.Hidden, fr.Injected, fr.Src)
		}
		fmt.Fprintf(w, "  obfuscated JS: %v; labels: %s\n", f.ObfuscatedJS, strings.Join(f.Labels, ", "))
	}
	fmt.Fprintln(w)
	return nil
}

func caseB(w io.Writer, u *web.Universe, heur *scanner.Heuristic, client *httpsim.Client) error {
	fmt.Fprintln(w, "=== Case B: deceptive download (§V-B) ===")
	site := findJSSite(u, web.JSDeceptiveDownload)
	if site == nil {
		fmt.Fprintln(w, "  (none in this seed)")
		return nil
	}
	f, err := scanSite(heur, client, site.EntryURL)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  site: %s\n  fake install prompt detected: %v\n  labels: %s\n",
		site.EntryURL, f.DeceptiveDownload, strings.Join(f.Labels, ", "))
	fmt.Fprintln(w, "  (the page baits 'Instalar plug-in' and drops Flash-Player.exe from the dropper host)")
	fmt.Fprintln(w)
	return nil
}

func caseC(w io.Writer, u *web.Universe, client *httpsim.Client) error {
	fmt.Fprintln(w, "=== Case C: suspicious redirection chain (§V-C, Figure 4) ===")
	// Pick the redirector with the longest planted chain.
	var site *web.Site
	for _, s := range u.SitesOfKind(web.Redirector) {
		if site == nil || s.ChainLen > site.ChainLen {
			site = s
		}
	}
	res, err := client.Get(site.EntryURL, crawler.BrowserUA, "")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  entry: %s (%d redirections observed)\n", site.EntryURL, res.Redirects())
	for i, hop := range res.Chain {
		arrow := ""
		switch hop.Kind {
		case "http":
			arrow = fmt.Sprintf("  %d. %s\n     | %d redirect", i+1, hop.URL, hop.StatusCode)
		case "meta":
			arrow = fmt.Sprintf("  %d. %s\n     | meta refresh", i+1, hop.URL)
		default:
			arrow = fmt.Sprintf("  %d. %s  (final landing page)", i+1, hop.URL)
		}
		fmt.Fprintln(w, arrow)
	}
	fmt.Fprintln(w)
	return nil
}

func caseD(w io.Writer, u *web.Universe, heur *scanner.Heuristic, client *httpsim.Client) error {
	fmt.Fprintln(w, "=== Case D: external interface calls from Flash (§V-D) ===")
	site := u.SitesOfKind(web.MaliciousFlash)[0]
	res, err := client.Get(site.EntryURL, crawler.BrowserUA, "")
	if err != nil {
		return err
	}
	f := heur.ScanPage(res.FinalURL, res.Final.ContentType, res.Final.Body)
	fmt.Fprintf(w, "  page: %s\n  ExternalInterface abuse detected: %v\n", site.EntryURL, f.ExternalInterfaceAbuse)
	if f.FlashSuspicion != nil {
		fmt.Fprintf(w, "  decompiled movie: invisible click-catcher=%v allowDomain(*)=%v obfuscated-pool=%v fullscreen=%v\n",
			f.FlashSuspicion.InvisibleClickCatcher, f.FlashSuspicion.PromiscuousDomain,
			f.FlashSuspicion.ObfuscatedPool, f.FlashSuspicion.FullScreenAbuse)
	}

	// Drill all the way down: fetch the SWF itself and run it in the VM.
	swfURL := ""
	for _, tok := range strings.Fields(strings.ReplaceAll(string(res.Final.Body), `"`, " ")) {
		if strings.Contains(tok, ".swf") {
			swfURL = tok
			break
		}
	}
	if swfURL != "" {
		resp, err := u.Internet.RoundTrip(&httpsim.Request{URL: swfURL, UserAgent: crawler.BrowserUA})
		if err == nil {
			if _, beh, _, err := swf.Inspect(resp.Body); err == nil {
				fmt.Fprintf(w, "  VM trace of %s:\n", swfURL)
				for _, call := range beh.ExternalCalls {
					fmt.Fprintf(w, "    ExternalInterface.call(%q)\n", call)
				}
				for _, st := range beh.DisplayStates {
					fmt.Fprintf(w, "    stage.displayState = %q\n", st)
				}
			}
		}
	}
	fmt.Fprintln(w)
	return nil
}

func caseE(w io.Writer, heur *scanner.Heuristic) {
	fmt.Fprintln(w, "=== Case E: false positives (§V-E) ===")
	// The OAuth relay iframe: 1x1, offscreen — geometry identical to
	// malware, yet benign. The heuristic scanner whitelists the endpoint.
	oauth := `<iframe name="oauth2relay503410543" src="https://accounts.google.sim/o/oauth2/postmessageRelay?parent=http%3A%2F%2Fblog" style="width: 1px; height: 1px; position: absolute; top: -100px;"></iframe>`
	f := heur.ScanPage("http://blog.example/", "text/html", []byte(oauth))
	fmt.Fprintf(w, "  OAuth relay iframe (1x1, offscreen): flagged=%v (correctly whitelisted)\n", f.Malicious())

	// The analytics loader: dynamic script injection that engines have
	// mislabeled as a clicker trojan.
	ga := `<script>(function(i,s,o,g,r){i['GoogleAnalyticsObject']=r;})(window,document,'script','//www.simalytics.net/analytics.js','ga'); ga('create','UA-1','auto'); ga('send','pageview');</script>`
	f2 := heur.ScanPage("http://blog.example/", "text/html", []byte(ga))
	fmt.Fprintf(w, "  analytics loader snippet: flagged=%v (correctly clean)\n", f2.Malicious())
	fmt.Fprintln(w, "  (signature engines retain a tiny independent mislabel rate on analytics")
	fmt.Fprintln(w, "   pages, reproducing the Faceliker-style FP the paper reports)")
}
