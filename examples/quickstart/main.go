// Quickstart: the smallest end-to-end use of the library.
//
// It generates a compact synthetic web universe, stands up one auto-surf
// traffic exchange over it, crawls 400 rotation slots the way the study's
// measurement client did, runs the detection pipeline (multi-engine
// signature scanner + heuristic content scanner + blacklist consensus),
// and prints the per-category verdict summary.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/exchange"
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
	// 1. Generate a world: benign member sites plus a planted malware
	// population spanning every category the paper analyzes.
	ucfg := web.DefaultConfig()
	ucfg.Seed = 42
	ucfg.BenignSites = 200
	ucfg.MaliciousSites = 100
	universe := web.Generate(ucfg)
	fmt.Fprintf(w, "universe: %d sites (%d malicious), %d hosts online\n",
		len(universe.Sites), len(universe.MaliciousSites()), universe.Internet.NumHosts())

	// 2. Stand up one auto-surf exchange over a slice of the world.
	pools, err := universe.SplitPools(simrand.New(7), []web.PoolSpec{{Benign: 150, Malicious: 60}})
	if err != nil {
		return err
	}
	ex := exchange.New(exchange.Config{
		Name: "QuickHits", Host: "quickhits.sim", Kind: exchange.AutoSurf,
		MinSurfSeconds: 20, SelfFrac: 0.06, PopularFrac: 0.11, MalFrac: 0.30,
	}, pools[0], universe.PopularURLs, simrand.New(9))
	ex.RegisterHomepage(universe.Internet)

	// 3. Crawl it: register an account, surf 400 slots, follow every
	// redirect, download final pages with a browser UA.
	crawl, err := crawler.CrawlExchange(ex, universe.Internet, crawler.DefaultOptions(400))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "crawl: %d URLs over %v of virtual time\n",
		len(crawl.Records), crawl.Ended.Sub(crawl.Started).Round(1e9))

	// 4. Analyze: classification, detection, categorization.
	detector := core.NewDetector(universe.Feed, universe.Blacklists, universe.Shorteners,
		universe.Internet, core.DetectorConfig{Seed: 1})
	analyzer := &core.Analyzer{
		Classifier: &core.Classifier{
			ExchangeHosts: map[string]string{"QuickHits": "quickhits.sim"},
			PopularHosts:  universe.PopularHosts,
		},
		Detector: detector,
	}
	analysis := analyzer.Analyze([]*crawler.Crawl{crawl})

	row := analysis.PerExchange[0]
	fmt.Fprintf(w, "\nreferral classes: %d self, %d popular, %d regular\n",
		row.Self, row.Popular, row.Regular)
	fmt.Fprintf(w, "malicious: %d of %d regular URLs (%s)\n",
		row.Malicious, row.Regular, stats.Pct(row.PctMalicious()))
	fmt.Fprintln(w, "\nmalware categories (categorized URLs):")
	for _, item := range analysis.CategoryCounts.Items() {
		fmt.Fprintf(w, "  %-26s %4d  (%s)\n", item.Key, item.Count, stats.Pct(item.Share))
	}
	fmt.Fprintf(w, "  %-26s %4d  (miscellaneous bucket)\n", "Miscellaneous", analysis.MiscCount)
	return nil
}
