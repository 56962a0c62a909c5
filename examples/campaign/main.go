// Campaign: reproduces the paper's §IV validation experiment and the
// Figure 3 burst signature.
//
// The study validated its burst hypothesis by paying a manual-surf
// exchange $5 for 2,500 visits to a dummy website: it received 4,621
// visits from 2,685 unique IPs in under an hour. This example buys the
// same campaign against a simulated exchange and dummy site, prints the
// receipt, and then shows how campaign windows produce the bursty
// cumulative malicious-URL curves on manual-surf exchanges while
// auto-surf exchanges stay smooth.
//
//	go run ./examples/campaign
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/crawler"
	"repro/internal/exchange"
	"repro/internal/httpsim"
	"repro/internal/simrand"
	"repro/internal/stats"
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
	ucfg.Seed = 2026
	ucfg.BenignSites = 160
	ucfg.MaliciousSites = 100
	universe := web.Generate(ucfg)
	pools, err := universe.SplitPools(simrand.New(3), []web.PoolSpec{
		{Benign: 60, Malicious: 30},
		{Benign: 60, Malicious: 30},
	})
	if err != nil {
		return err
	}

	manual := exchange.New(exchange.Config{
		Name: "BurstHits", Host: "bursthits.sim", Kind: exchange.ManualSurf,
		MinSurfSeconds: 30, SelfFrac: 0.08, PopularFrac: 0.06, MalFrac: 0.12,
		Campaigns: []exchange.CampaignWindow{
			{StartFrac: 0.30, EndFrac: 0.40, MalDensity: 0.85},
			{StartFrac: 0.70, EndFrac: 0.76, MalDensity: 0.80},
		},
	}, pools[0], universe.PopularURLs, simrand.New(11))
	manual.RegisterHomepage(universe.Internet)

	auto := exchange.New(exchange.Config{
		Name: "SteadyHits", Host: "steadyhits.sim", Kind: exchange.AutoSurf,
		MinSurfSeconds: 15, SelfFrac: 0.06, PopularFrac: 0.10, MalFrac: 0.12,
	}, pools[1], universe.PopularURLs, simrand.New(12))
	auto.RegisterHomepage(universe.Internet)

	// --- Part 1: the paid-campaign purchase (§IV validation) ---
	visits := 0
	ips := map[string]bool{}
	universe.Internet.Register("my-dummy-site.sim", func(req *httpsim.Request) *httpsim.Response {
		visits++
		if req.Header != nil {
			ips[req.Header["X-Forwarded-For"]] = true
		}
		return httpsim.HTML("<html><body>dummy page with an ad placeholder</body></html>")
	})
	fmt.Fprintln(w, "=== paid campaign purchase (paper: 2,500 visits for $5) ===")
	receipt := manual.BuyCampaign(universe.Internet, "http://my-dummy-site.sim/", 2500, 5.00)
	fmt.Fprintf(w, "purchased:  %d visits for $%.2f\n", receipt.PurchasedVisits, receipt.PriceUSD)
	fmt.Fprintf(w, "delivered:  %d visits from %d unique IPs in %v\n",
		receipt.DeliveredVisits, receipt.UniqueIPs, receipt.Duration.Round(1e9))
	fmt.Fprintf(w, "site-side:  %d visits counted, %d unique IPs seen\n", visits, len(ips))
	fmt.Fprintf(w, "(paper observed: 4,621 visits from 2,685 unique IPs in under an hour)\n\n")

	// --- Part 2: burst vs smooth cumulative curves (Figure 3) ---
	fmt.Fprintln(w, "=== cumulative malicious-URL curves (Figure 3 shape) ===")
	for _, ex := range []*exchange.Exchange{auto, manual} {
		steps := 1200
		crawl, err := crawler.CrawlExchange(ex, universe.Internet, crawler.DefaultOptions(steps))
		if err != nil {
			return err
		}
		series := stats.NewSeries()
		for _, rec := range crawl.Records {
			series.Observe(universe.TruthByURL(rec.EntryURL).Malicious())
		}
		fmt.Fprintf(w, "\n%s (%s): %d malicious of %d crawled\n",
			ex.Config().Name, ex.Config().Kind, series.Final(), series.Len())
		plotSeries(w, series)
		bursts := series.Bursts(steps/20, 3)
		if len(bursts) == 0 {
			fmt.Fprintln(w, "  bursts: none — smooth, near-linear (auto-surf signature)")
		}
		for _, b := range bursts {
			fmt.Fprintf(w, "  burst: observations %d-%d at %.0f%% malicious (campaign window)\n",
				b.Start, b.End, b.Rate*100)
		}
	}
	return nil
}

// plotSeries draws a small cumulative curve as rows of terminal cells.
func plotSeries(w io.Writer, s *stats.Series) {
	const width, height = 60, 8
	pts := s.Downsample(width)
	maxY := s.Final()
	if maxY == 0 {
		maxY = 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = make([]byte, len(pts))
		for c := range grid[r] {
			grid[r][c] = ' '
		}
	}
	for c, p := range pts {
		r := (height - 1) - p.Y*(height-1)/maxY
		grid[r][c] = '*'
	}
	for _, row := range grid {
		fmt.Fprintf(w, "  |%s\n", string(row))
	}
	fmt.Fprintf(w, "  +%s-> crawled URLs\n", string(make([]byte, 0)))
}
