package core

import (
	"sort"
	"strings"

	"repro/internal/crawler"
	"repro/internal/exchange"
	"repro/internal/htmlparse"
	"repro/internal/obs"
	"repro/internal/shortener"
	"repro/internal/stats"
	"repro/internal/urlutil"
)

// ExchangeStats is one row of Tables I and II.
type ExchangeStats struct {
	Name string
	Kind exchange.Kind
	// Table I columns.
	Crawled   int
	Self      int
	Popular   int
	Regular   int
	Malicious int
	// Failed counts fetch failures: crawled URLs that produced no
	// analyzable content. Crawled == Self + Popular + Regular + Failed.
	Failed int
	// Table II columns.
	Domains        int
	MalwareDomains int
}

// PctMalicious is the Table I "% Malicious URLs" column.
func (s ExchangeStats) PctMalicious() float64 { return stats.Ratio(s.Malicious, s.Regular) }

// PctMalwareDomains is the Table II "% Malware" column.
func (s ExchangeStats) PctMalwareDomains() float64 {
	return stats.Ratio(s.MalwareDomains, s.Domains)
}

// KindCount is one error-taxonomy bucket of the crawl-health accounting.
type KindCount struct {
	Kind  string
	Count int
}

// ExchangeHealth is one exchange's crawl-health row.
type ExchangeHealth struct {
	Name    string
	Crawled int
	// Failed counts records whose fetch never completed.
	Failed int
	// Retries counts fetch attempts beyond each record's first.
	Retries int
	// Kinds is the per-exchange error taxonomy, sorted by count
	// descending then kind name.
	Kinds []KindCount
}

// PctFailed is the per-exchange failure rate.
func (h ExchangeHealth) PctFailed() float64 { return stats.Ratio(h.Failed, h.Crawled) }

// CrawlHealth aggregates fetch reliability over the whole measurement:
// how much of the crawl degraded, how hard the crawler had to fight for
// it, and what the substrate's failure modes were. A healthy run carries
// all zeros — the section exists so degradation is explicit instead of
// silently vanished.
type CrawlHealth struct {
	// PerExchange holds per-exchange rows in crawl order.
	PerExchange []ExchangeHealth
	// TotalFailed and TotalRetries aggregate across exchanges.
	TotalFailed  int
	TotalRetries int
	// ErrorKinds is the overall error taxonomy.
	ErrorKinds *stats.Counter
}

// Degraded reports whether any fetch failed or was retried.
func (h *CrawlHealth) Degraded() bool {
	return h != nil && (h.TotalFailed > 0 || h.TotalRetries > 0)
}

// Analysis is the complete output of the pipeline: everything the paper's
// evaluation section reports.
type Analysis struct {
	// PerExchange holds the Table I / Table II rows in crawl order.
	PerExchange []ExchangeStats
	// TotalCrawled, TotalDistinct, TotalDomains, TotalRegular and
	// TotalMalicious are the headline dataset numbers of §III-A.
	TotalCrawled   int
	TotalDistinct  int
	TotalDomains   int
	TotalRegular   int
	TotalMalicious int
	// CategoryCounts covers categorized malicious URLs (Table III);
	// MiscCount is the miscellaneous bucket the percentages exclude.
	CategoryCounts *stats.Counter
	MiscCount      int
	// TLDCounts breaks malicious URLs down by top-level domain (Fig 6).
	TLDCounts *stats.Counter
	// ContentCategories breaks malicious URLs down by page content
	// category (Fig 7), derived from page content.
	ContentCategories *stats.Counter
	// RedirectHist is the Figure 5 histogram: redirect hop counts of
	// malicious URLs that redirect.
	RedirectHist *stats.IntHist
	// Series maps exchange name -> cumulative malicious-URL series over
	// crawled URLs (Figure 3).
	Series map[string]*stats.Series
	// MaliciousShortURLs lists detected-malicious shortened entry URLs,
	// deduped, for the Table IV statistics join.
	MaliciousShortURLs []string
	// CacheStats reports verdict-cache effectiveness for this run (zero
	// when the cache was disabled). Deterministic across worker counts
	// for an uninterrupted run; a resumed run reports only its own
	// cache traffic, never the pre-checkpoint portion.
	CacheStats CacheStats
	// Health is the crawl-health accounting: failures, retries and the
	// error taxonomy. Always populated (all zeros for a clean crawl).
	Health *CrawlHealth
}

// TotalFailed is the number of crawled URLs whose fetch never completed.
func (a *Analysis) TotalFailed() int {
	if a.Health == nil {
		return 0
	}
	return a.Health.TotalFailed
}

// TotalAnalyzed is the number of crawled URLs that reached classification
// and (for regular referrals) the detector stack. The reconciliation
// invariant the chaos suite locks in: Analyzed + Failed == Crawled.
func (a *Analysis) TotalAnalyzed() int { return a.TotalCrawled - a.TotalFailed() }

// OverallPctMalicious is the headline ">26% of URLs are malicious".
func (a *Analysis) OverallPctMalicious() float64 {
	return stats.Ratio(a.TotalMalicious, a.TotalRegular)
}

// Analyzer runs classification + detection + aggregation over crawls
// through the study engine (engine.go): one shard per exchange, each
// folded in record order by whichever worker claimed it, so the output
// is byte-identical for every worker count and cache setting.
type Analyzer struct {
	Classifier *Classifier
	Detector   *Detector
	// Workers is the number of engine workers taking shards; <= 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// DisableCache turns off the single-flight verdict cache, forcing
	// every record through the full detector stack (the pre-cache
	// behaviour; useful for ablations and benchmarks).
	DisableCache bool
	// Metrics, when set, receives pipeline counters (records by class,
	// cache traffic, inspections) and worker-occupancy gauges; Tracer
	// receives per-exchange classify/scan/parse/aggregate stage timings.
	// Both are nil-safe no-ops when unset and never alter any output.
	Metrics *obs.Registry
	Tracer  *obs.Tracer
}

// exchangeFold is one exchange's in-flight aggregation state: everything
// the fold accumulates for a single exchange, in record order.
type exchangeFold struct {
	name   string
	kind   exchange.Kind
	row    ExchangeStats
	health ExchangeHealth
	kinds  map[string]int
	series *stats.Series
	// domains / malDomains back the Table II distinct-domain columns.
	domains    map[string]bool
	malDomains map[string]bool
	// folded counts records folded so far — the exchange's streaming
	// progress cursor (records [0, folded) are reflected in this state).
	folded int
}

// foldState is the incremental aggregation accumulator each engine shard
// owns (engine.go), and the target the shard merge folds into. Records fold
// one at a time, in per-exchange record order; cross-exchange interleaving
// is free because every global aggregate (counters, histograms, sets,
// sums) is commutative and rendered in sorted order. Peak memory is
// O(distinct URLs + domains + series length), never O(bodies) — a folded
// record's body is released as soon as fold returns.
//
// Not safe for concurrent use: exactly one goroutine owns a foldState.
type foldState struct {
	an        *Analyzer
	exchanges []*exchangeFold
	out       *Analysis
	// distinct holds normalized entry URLs (the TotalDistinct set, keyed
	// by distinctKey).
	distinct map[string]bool
	// domainSet and shortSet back TotalDomains and MaliciousShortURLs.
	domainSet map[string]bool
	shortSet  map[string]bool
	// contentCats memoizes contentCategoryOf by body identity; see
	// foldState.contentCategory.
	contentCats map[bodyIdentity]string
}

// bodyIdentity identifies a record body by pointer and length rather than
// content. Served pages share one rendered byte array across every fetch
// (the web package's render cache hands out shallow response copies over
// immutable bodies), so equal identity implies equal bytes. Map keys pin
// their arrays, which is what makes the scheme sound: a freed array can
// never be recycled into a colliding identity while the memo holds it.
type bodyIdentity struct {
	p *byte
	n int
}

// newFoldState builds an empty accumulator for the named exchanges, in
// crawl order.
func newFoldState(an *Analyzer, names []string, kinds []exchange.Kind) *foldState {
	fs := &foldState{
		an: an,
		out: &Analysis{
			CategoryCounts:    stats.NewCounter(),
			TLDCounts:         stats.NewCounter(),
			ContentCategories: stats.NewCounter(),
			RedirectHist:      stats.NewIntHist(),
			Series:            make(map[string]*stats.Series),
			Health:            &CrawlHealth{ErrorKinds: stats.NewCounter()},
		},
		distinct:    map[string]bool{},
		domainSet:   map[string]bool{},
		shortSet:    map[string]bool{},
		contentCats: map[bodyIdentity]string{},
	}
	for i, name := range names {
		fs.exchanges = append(fs.exchanges, &exchangeFold{
			name:       name,
			kind:       kinds[i],
			row:        ExchangeStats{Name: name, Kind: kinds[i]},
			health:     ExchangeHealth{Name: name},
			kinds:      map[string]int{},
			series:     stats.NewSeries(),
			domains:    map[string]bool{},
			malDomains: map[string]bool{},
		})
	}
	return fs
}

// fold merges one record's outcome into the accumulator. Must be called
// in record order within each exchange; calls for different exchanges may
// interleave arbitrarily.
func (fs *foldState) fold(ei int, rec *crawler.Record, o recOutcome) {
	ef := fs.exchanges[ei]
	ef.row.Crawled++
	fs.distinct[distinctKey(rec.EntryURL)] = true
	if rec.Attempts > 1 {
		ef.health.Retries += rec.Attempts - 1
	}

	v := o.v
	switch o.class {
	case Self:
		ef.row.Self++
	case Popular:
		ef.row.Popular++
	case Failed:
		ef.row.Failed++
		ef.health.Failed++
		kind := rec.ErrKind
		if kind == "" {
			kind = "transport"
		}
		ef.kinds[kind]++
		fs.out.Health.ErrorKinds.Add(kind)
	case Regular:
		ef.row.Regular++
		if d := urlutil.DomainOf(rec.EntryURL); d != "" {
			ef.domains[d] = true
			fs.domainSet[d] = true
		}
		if v.Malicious {
			ef.row.Malicious++
			fs.an.Metrics.Counter("pipeline.malicious").Inc()
			if d := urlutil.DomainOf(rec.EntryURL); d != "" {
				ef.malDomains[d] = true
			}
			fs.recordMalicious(ef.name, rec, v)
		}
	}
	ef.series.Observe(v.Malicious)
	ef.folded++
}

// finish assembles the final Analysis from the folded state, in exchange
// order. The foldState must not be used after finish.
func (fs *foldState) finish(cstats CacheStats) *Analysis {
	out := fs.out
	for _, ef := range fs.exchanges {
		ef.row.Domains = len(ef.domains)
		ef.row.MalwareDomains = len(ef.malDomains)
		ef.health.Crawled = ef.row.Crawled
		ef.health.Kinds = sortedKinds(ef.kinds)
		out.PerExchange = append(out.PerExchange, ef.row)
		out.Health.PerExchange = append(out.Health.PerExchange, ef.health)
		out.Health.TotalFailed += ef.health.Failed
		out.Health.TotalRetries += ef.health.Retries
		out.Series[ef.name] = ef.series
		out.TotalCrawled += ef.row.Crawled
		out.TotalRegular += ef.row.Regular
		out.TotalMalicious += ef.row.Malicious
	}
	out.TotalDistinct = len(fs.distinct)
	out.TotalDomains = len(fs.domainSet)
	out.MaliciousShortURLs = sortedSet(fs.shortSet)
	out.CacheStats = cstats
	return out
}

// distinctKey keys the distinct-URL set: the normalized URL, or the raw
// string when normalization fails.
func distinctKey(rawURL string) string {
	key, err := urlutil.Normalize(rawURL)
	if err != nil {
		return rawURL
	}
	return key
}

// recordMalicious folds one malicious URL into the category/TLD/content
// aggregates. scope names the exchange for the parse-stage tracer span
// around the content-categorization HTML parse.
func (fs *foldState) recordMalicious(scope string, rec *crawler.Record, v Verdict) {
	out := fs.out
	if v.Category == CatMisc {
		out.MiscCount++
	} else {
		out.CategoryCounts.Add(string(v.Category))
	}
	if tld := urlutil.TLDOf(rec.EntryURL); tld != "" {
		out.TLDCounts.Add(normalizeTLD(tld))
	}
	parse := fs.an.Tracer.Start(scope, obs.StageParse)
	out.ContentCategories.Add(fs.contentCategory(rec.Body))
	parse.End()
	if rec.Redirects > 0 {
		out.RedirectHist.Observe(rec.Redirects)
	}
	if v.Category == CatShortened {
		if norm, err := urlutil.Normalize(rec.EntryURL); err == nil {
			fs.shortSet[norm] = true
		}
	}
}

// normalizeTLD folds the simulator's ".sim"-suffixed infrastructure hosts
// out of the Figure 6 axes; everything else passes through.
func normalizeTLD(tld string) string {
	if tld == "sim" {
		return "other"
	}
	return tld
}

// contentCategory is contentCategoryOf memoized by body identity. Under
// exchange rotation the same page is re-crawled hundreds of times per
// epoch, and every fetch of it carries the same shared body array, so the
// HTML title parse runs once per distinct page instead of once per
// malicious record. Bodies the render cache never saw (fresh arrays each
// serve) miss the memo and simply re-parse — slower, never wrong. The
// fold owns the memo single-threadedly and it is not part of the
// checkpointed state: it is a pure derivation cache, and a resumed run
// rebuilds it as it folds.
func (fs *foldState) contentCategory(body []byte) string {
	if len(body) == 0 {
		return "Others"
	}
	id := bodyIdentity{&body[0], len(body)}
	if c, ok := fs.contentCats[id]; ok {
		return c
	}
	c := contentCategoryOf(body)
	// The cap keeps the engine's bounded-memory promise even if
	// every body were a fresh array (each memo entry pins its body): past
	// it, categories are recomputed instead of remembered.
	if len(fs.contentCats) < identityMemoLimit {
		fs.contentCats[id] = c
	}
	return c
}

// identityMemoLimit bounds the body-identity memos (content categories,
// verdict keys). Distinct cached pages number in the thousands at the
// largest study scales, so the limit only binds when bodies bypass the
// render cache and every record would otherwise add a body-pinning entry.
const identityMemoLimit = 1 << 16

// contentCategoryOf derives the Figure 7 content category from the page
// itself: sites title themselves "Name — Category" (as the universe's
// page templates do, standing in for the VirusTotal URL categorization
// the paper used); pages without a parsable category fall back to keyword
// heuristics.
func contentCategoryOf(body []byte) string {
	if len(body) == 0 {
		return "Others"
	}
	doc := htmlparse.Borrow(string(body))
	defer htmlparse.Release(doc)
	if el := doc.First("title"); el != nil {
		title := el.Text
		if i := strings.LastIndex(title, "— "); i >= 0 {
			cat := strings.TrimSpace(title[i+len("— "):])
			for _, known := range contentCategories {
				if cat == known {
					// The constant, not the title's substring: the memo
					// must not pin the parsed copy of the body.
					return known
				}
			}
		}
		lower := strings.ToLower(title)
		switch {
		case strings.Contains(lower, "offer") || strings.Contains(lower, "download") ||
			strings.Contains(lower, "shop") || strings.Contains(lower, "pay"):
			return "Business"
		case strings.Contains(lower, "ad") && len(lower) < 30:
			return "Advertisement"
		}
	}
	return "Others"
}

// contentCategories lists the Figure 7 categories a page title may name.
var contentCategories = [...]string{"Business", "Advertisement", "Entertainment", "Information Technology", "Others"}

// ShortURLStats joins the analysis's malicious shortened URLs with the
// shortener registry's public hit statistics — Table IV.
func (a *Analysis) ShortURLStats(reg *shortener.Registry) []shortener.HitStats {
	return reg.StatsFor(a.MaliciousShortURLs)
}

// sortedKinds flattens an error-taxonomy map into rows ordered by count
// descending, ties broken by kind name — a deterministic presentation
// order for reports and goldens.
func sortedKinds(kinds map[string]int) []KindCount {
	out := make([]KindCount, 0, len(kinds))
	for k, n := range kinds {
		out = append(out, KindCount{Kind: k, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

func sortedSet(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
