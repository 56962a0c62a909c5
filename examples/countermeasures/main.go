// Countermeasures: exercises the §VI recommendations against live
// simulated traffic.
//
// The paper's conclusion addresses the ecosystem's other stakeholders:
// users "could be shown a warning before they visit a traffic exchange
// website, incorporated via a plugin or extension", and ad networks
// "should look out for potential fraud in ad impressions, view counts,
// and clicks". This example runs both:
//
//  1. SurfGuard — the browser-extension analog — screens real navigations
//     to exchange homepages (by list) and an unlisted exchange (by its
//     surf-bar page structure).
//
//  2. AdFraudVetter — the ad-network-side auditor — scores the impression
//     stream a paid campaign generates on a dummy publisher page against
//     an organic control stream.
//
//     go run ./examples/countermeasures
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/guard"
	"repro/internal/httpsim"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the example's full output to w.
func run(w io.Writer) error {
	cfg := core.DefaultStudyConfig()
	cfg.Seed = 99
	cfg.Scale = 400
	cfg.DriveShortenerTraffic = false
	st, err := core.NewStudy(cfg)
	if err != nil {
		return err
	}

	// --- Part 1: SurfGuard ---
	fmt.Fprintln(w, "=== SurfGuard: warn-before-visit (browser extension analog) ===")
	var known []string
	for _, ex := range st.Exchanges[:6] { // ship a list missing the last three
		known = append(known, ex.Config().Host)
	}
	g := guard.NewSurfGuard(known)

	for _, ex := range st.Exchanges {
		url := ex.HomeURL()
		resp, err := st.Universe.Internet.RoundTrip(&httpsim.Request{URL: url, UserAgent: "Mozilla/5.0"})
		if err != nil {
			return err
		}
		d := g.CheckPage(url, resp.Body)
		fmt.Fprintf(w, "  %-28s warn=%-5v reason=%s\n", url, d.Warn, orDash(d.Reason))
	}
	benign := st.Universe.BenignSites()[0]
	resp, err := st.Universe.Internet.RoundTrip(&httpsim.Request{URL: benign.EntryURL, UserAgent: "Mozilla/5.0"})
	if err != nil {
		return err
	}
	d := g.CheckPage(benign.EntryURL, resp.Body)
	fmt.Fprintf(w, "  %-28s warn=%-5v (ordinary member site)\n\n", benign.EntryURL, d.Warn)

	// --- Part 2: AdFraudVetter ---
	fmt.Fprintln(w, "=== AdFraudVetter: impression-stream vetting (ad network analog) ===")
	vetter := guard.NewAdFraudVetter(guard.NewSurfGuard(allHosts(st.Exchanges)))

	// Exchange-driven impressions: capture a real paid campaign hitting a
	// publisher page; every delivery becomes one ad impression.
	var impressions []guard.Impression
	at := time.Date(2015, 6, 1, 12, 0, 0, 0, time.UTC)
	st.Universe.Internet.Register("publisher-page.sim", func(req *httpsim.Request) *httpsim.Response {
		ip := ""
		if req.Header != nil {
			ip = req.Header["X-Forwarded-For"]
		}
		impressions = append(impressions, guard.Impression{
			PageURL:  "http://publisher-page.sim/",
			Referrer: req.Referrer,
			IP:       ip,
			Dwell:    30 * time.Second, // pinned at the surf timer
			At:       at,
		})
		at = at.Add(800 * time.Millisecond)
		return httpsim.HTML("<html><body>publisher content + ad slot</body></html>")
	})
	receipt := st.Exchanges[8].BuyCampaign(st.Universe.Internet, "http://publisher-page.sim/", 1500, 3.00)
	fraudReport := vetter.Vet(impressions)
	fmt.Fprintf(w, "  campaign batch:  %d impressions (from a %d-visit purchase)\n",
		fraudReport.Total, receipt.PurchasedVisits)
	fmt.Fprintf(w, "    exchange-referred=%d timer-pinned=%d unique-ips=%d peak=%.0f/min\n",
		fraudReport.ExchangeReferred, fraudReport.TimerPinned, fraudReport.UniqueIPs, fraudReport.BurstRate)
	fmt.Fprintf(w, "    fraud score = %.2f -> fraudulent=%v\n\n", fraudReport.Score, fraudReport.Fraudulent())

	// Organic control: scattered referrers, dwell and returning IPs.
	var organic []guard.Impression
	for i := 0; i < 1500; i++ {
		organic = append(organic, guard.Impression{
			PageURL:  "http://publisher-page.sim/",
			Referrer: []string{"http://google.sim/search?q=shoes", "", "http://wikipedia.sim/"}[i%3],
			IP:       fmt.Sprintf("198.51.100.%d", i%60),
			Dwell:    time.Duration(4+i*13%280) * time.Second,
			At:       time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * 53 * time.Second),
		})
	}
	organicReport := vetter.Vet(organic)
	fmt.Fprintf(w, "  organic batch:   %d impressions\n", organicReport.Total)
	fmt.Fprintf(w, "    exchange-referred=%d timer-pinned=%d unique-ips=%d peak=%.0f/min\n",
		organicReport.ExchangeReferred, organicReport.TimerPinned, organicReport.UniqueIPs, organicReport.BurstRate)
	fmt.Fprintf(w, "    fraud score = %.2f -> fraudulent=%v\n",
		organicReport.Score, organicReport.Fraudulent())
	fmt.Fprintln(w, "\nconclusion: the exchange signature (referrers, pinned dwell, fresh IPs,")
	fmt.Fprintln(w, "burst pacing) cleanly separates paid exchange traffic from organic views —")
	fmt.Fprintln(w, "the vetting the paper says reputable ad networks already perform.")
	return nil
}

func allHosts(exs []*exchange.Exchange) []string {
	out := make([]string, 0, len(exs))
	for _, ex := range exs {
		out = append(out, ex.Config().Host)
	}
	return out
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
