// Monetization: plays out the §II economy end to end.
//
// "The main goal of websites listed on traffic exchanges is to generate
// ad impressions from a diverse pool of IP addresses" — monetized via
// bogus ad exchanges, or via referrer spoofing against legitimate ones.
// This example lists a member site on a simulated exchange, drives paid
// exchange traffic through its ad slots, and compares how the two
// network archetypes respond: the bogus network pays for everything; the
// legitimate network's impression vetting bans the publisher even when
// the exchange referrer is spoofed away.
//
//	go run ./examples/monetization
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/adnet"
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
	in := httpsim.NewInternet()

	// The two network archetypes.
	g := guard.NewSurfGuard([]string{"10khits.sim", "sendsurf.sim", "otohits.sim"})
	bogus := adnet.New("AdHitz-sim", "adhitz.sim", 40, nil)                            // $0.40 CPM, no vetting
	legit := adnet.New("LegitAds-sim", "legitads.sim", 200, guard.NewAdFraudVetter(g)) // $2.00 CPM, vetted
	in.Register(bogus.Host, bogus.Handler())
	in.Register(legit.Host, legit.Handler())

	// The member's site, carrying slots from both networks.
	const pub = "my-money-site.com"
	page := "<html><body><h1>Totally organic content</h1>\n" +
		bogus.SlotMarkup(pub) + "\n" + legit.SlotMarkup(pub) + "\n</body></html>"
	in.Register(pub, func(req *httpsim.Request) *httpsim.Response {
		return httpsim.HTML(page)
	})

	adHosts := map[string]bool{bogus.Host: true, legit.Host: true}

	// Phase 1: exchange traffic with honest referrers.
	fmt.Fprintln(w, "=== phase 1: 2,000 exchange-driven views (honest referrers) ===")
	honest := &adnet.Audience{Transport: in, AdHosts: adHosts}
	driveExchange(honest, pub, 2000, 0)
	fmt.Fprintf(w, "  bogus network (%dc CPM): impressions=%d earnings=%d cents\n",
		bogus.CPMCents, len(bogus.Impressions(pub)), bogus.EarningsCents(pub))
	fmt.Fprintf(w, "  legit network (%dc CPM): impressions=%d earnings(before vetting)=%d cents\n",
		legit.CPMCents, len(legit.Impressions(pub)), legit.EarningsCents(pub))

	results := legit.RunVetting()
	for _, r := range results {
		fmt.Fprintf(w, "  legit vetting: publisher=%s score=%.2f exchange-referred=%d pinned-dwell=%d -> banned=%v\n",
			r.Publisher, r.Report.Score, r.Report.ExchangeReferred, r.Report.TimerPinned, r.Banned)
	}
	fmt.Fprintf(w, "  legit earnings after vetting: %d cents (forfeited)\n\n", legit.EarningsCents(pub))

	// Phase 2: a second member tries referrer spoofing on a fresh
	// legitimate account.
	fmt.Fprintln(w, "=== phase 2: 2,000 exchange views with spoofed referrers ===")
	legit2 := adnet.New("LegitAds-sim", "legitads2.sim", 200, guard.NewAdFraudVetter(g))
	in.Register(legit2.Host, legit2.Handler())
	const pub2 = "sneaky-site.com"
	in.Register(pub2, func(req *httpsim.Request) *httpsim.Response {
		return httpsim.HTML("<html><body>" + legit2.SlotMarkup(pub2) + "</body></html>")
	})
	spoofing := &adnet.Audience{
		Transport:     in,
		AdHosts:       map[string]bool{legit2.Host: true},
		SpoofReferrer: "http://google.sim/search?q=organic+looking",
	}
	driveExchange(spoofing, pub2, 2000, 0)
	for _, r := range legit2.RunVetting() {
		fmt.Fprintf(w, "  vetting: exchange-referred=%d (spoofed away) pinned-dwell=%d unique-ips=%d peak=%.0f/min\n",
			r.Report.ExchangeReferred, r.Report.TimerPinned, r.Report.UniqueIPs, r.Report.BurstRate)
		fmt.Fprintf(w, "  score=%.2f -> banned=%v (secondary signals defeat the spoof)\n\n", r.Report.Score, r.Banned)
	}

	// Phase 3: an actually-organic publisher for contrast.
	fmt.Fprintln(w, "=== phase 3: 2,000 organic views (control) ===")
	legit3 := adnet.New("LegitAds-sim", "legitads3.sim", 200, guard.NewAdFraudVetter(g))
	in.Register(legit3.Host, legit3.Handler())
	const pub3 = "honest-blog.com"
	in.Register(pub3, func(req *httpsim.Request) *httpsim.Response {
		return httpsim.HTML("<html><body>" + legit3.SlotMarkup(pub3) + "</body></html>")
	})
	organic := &adnet.Audience{Transport: in, AdHosts: map[string]bool{legit3.Host: true}}
	refs := []string{"http://google.sim/search?q=recipes", "", "http://wikipedia.sim/"}
	for i := 0; i < 2000; i++ {
		ip := fmt.Sprintf("198.51.%d.%d", (i/40)%200, i%40)
		dwell := time.Duration(5+i*17%290) * time.Second
		if _, err := organic.Visit("http://"+pub3+"/", ip, "USA", refs[i%len(refs)], dwell); err != nil {
			return err
		}
	}
	for _, r := range legit3.RunVetting() {
		fmt.Fprintf(w, "  vetting: score=%.2f -> banned=%v\n", r.Report.Score, r.Banned)
	}
	fmt.Fprintf(w, "  organic earnings: %d cents — honest traffic monetizes fine\n\n", legit3.EarningsCents(pub3))

	fmt.Fprintln(w, "conclusion: exchange traffic only monetizes on networks that decline to vet —")
	fmt.Fprintln(w, "the bogus-ad-exchange economy the paper describes, and the reason reputable")
	fmt.Fprintln(w, "networks like AdSense/DoubleClick disallow traffic exchanges outright (§VI).")
	return nil
}

func driveExchange(aud *adnet.Audience, pub string, n, ipOffset int) {
	for i := 0; i < n; i++ {
		ip := fmt.Sprintf("10.%d.%d.%d", (i+ipOffset)/65536, ((i+ipOffset)/256)%256, (i+ipOffset)%256)
		aud.Visit("http://"+pub+"/", ip, "India", "http://10khits.sim/surf", 20*time.Second)
	}
}
