package report

import (
	"encoding/json"
	"io"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/shortener"
	"repro/internal/stats"
)

// JSONReport is the machine-readable form of a full analysis — every
// table and figure as structured data, for downstream tooling and
// plotting.
type JSONReport struct {
	Headline struct {
		Crawled      int     `json:"crawled"`
		Distinct     int     `json:"distinct"`
		Domains      int     `json:"domains"`
		Regular      int     `json:"regular"`
		Malicious    int     `json:"malicious"`
		PctMalicious float64 `json:"pctMalicious"`
	} `json:"headline"`
	Table1 []JSONExchangeRow `json:"table1"`
	Table2 []JSONDomainRow   `json:"table2"`
	Table3 struct {
		Categories []JSONShare `json:"categories"`
		MiscCount  int         `json:"miscCount"`
		MiscShare  float64     `json:"miscShare"`
	} `json:"table3"`
	Table4      []JSONShortRow    `json:"table4"`
	Figure3     []JSONSeries      `json:"figure3"`
	Figure5     []stats.IntBucket `json:"figure5"`
	Figure6     []JSONShare       `json:"figure6"`
	Figure7     []JSONShare       `json:"figure7"`
	CrawlHealth *JSONCrawlHealth  `json:"crawlHealth,omitempty"`
	// Metrics carries the observability export when the run was
	// instrumented (-metrics); absent otherwise, keeping default JSON
	// output identical to uninstrumented runs.
	Metrics *obs.Export `json:"metrics,omitempty"`
}

// JSONShortRow aliases the shortener hit statistics into the report schema.
type JSONShortRow = shortener.HitStats

// JSONCrawlHealth is the machine-readable crawl-health section.
type JSONCrawlHealth struct {
	TotalFailed  int                  `json:"totalFailed"`
	TotalRetries int                  `json:"totalRetries"`
	FailRate     float64              `json:"failRate"`
	ErrorKinds   []JSONShare          `json:"errorKinds,omitempty"`
	PerExchange  []JSONExchangeHealth `json:"perExchange"`
}

// JSONExchangeHealth is one exchange's crawl-health row.
type JSONExchangeHealth struct {
	Name      string      `json:"name"`
	Crawled   int         `json:"crawled"`
	Failed    int         `json:"failed"`
	PctFailed float64     `json:"pctFailed"`
	Retries   int         `json:"retries"`
	Kinds     []JSONShare `json:"kinds,omitempty"`
}

// JSONExchangeRow is a Table I row.
type JSONExchangeRow struct {
	Name         string  `json:"name"`
	Kind         string  `json:"kind"`
	Crawled      int     `json:"crawled"`
	Self         int     `json:"self"`
	Popular      int     `json:"popular"`
	Regular      int     `json:"regular"`
	Malicious    int     `json:"malicious"`
	PctMalicious float64 `json:"pctMalicious"`
}

// JSONDomainRow is a Table II row.
type JSONDomainRow struct {
	Name           string  `json:"name"`
	Domains        int     `json:"domains"`
	MalwareDomains int     `json:"malwareDomains"`
	PctMalware     float64 `json:"pctMalware"`
}

// JSONShare is one share breakdown entry (Tables III, Figures 6/7).
type JSONShare struct {
	Key   string  `json:"key"`
	Count int     `json:"count"`
	Share float64 `json:"share"`
}

// JSONSeries is one exchange's Figure 3 curve, downsampled, with bursts.
type JSONSeries struct {
	Exchange string        `json:"exchange"`
	Kind     string        `json:"kind"`
	Points   []stats.Point `json:"points"`
	Bursts   []stats.Burst `json:"bursts"`
}

// BuildJSON assembles the structured report.
func BuildJSON(a *core.Analysis, short []shortener.HitStats) *JSONReport {
	out := &JSONReport{}
	out.Headline.Crawled = a.TotalCrawled
	out.Headline.Distinct = a.TotalDistinct
	out.Headline.Domains = a.TotalDomains
	out.Headline.Regular = a.TotalRegular
	out.Headline.Malicious = a.TotalMalicious
	out.Headline.PctMalicious = a.OverallPctMalicious()

	for _, row := range a.PerExchange {
		out.Table1 = append(out.Table1, JSONExchangeRow{
			Name: row.Name, Kind: row.Kind.String(),
			Crawled: row.Crawled, Self: row.Self, Popular: row.Popular,
			Regular: row.Regular, Malicious: row.Malicious,
			PctMalicious: row.PctMalicious(),
		})
		out.Table2 = append(out.Table2, JSONDomainRow{
			Name: row.Name, Domains: row.Domains,
			MalwareDomains: row.MalwareDomains, PctMalware: row.PctMalwareDomains(),
		})
		s := a.Series[row.Name]
		if s == nil {
			continue
		}
		window := s.Len() / 20
		if window < 1 {
			window = 1
		}
		out.Figure3 = append(out.Figure3, JSONSeries{
			Exchange: row.Name,
			Kind:     row.Kind.String(),
			Points:   s.Downsample(48),
			Bursts:   s.Bursts(window, 3),
		})
	}
	for _, cat := range core.Categories {
		out.Table3.Categories = append(out.Table3.Categories, JSONShare{
			Key:   string(cat),
			Count: a.CategoryCounts.Get(string(cat)),
			Share: a.CategoryCounts.Share(string(cat)),
		})
	}
	out.Table3.MiscCount = a.MiscCount
	out.Table3.MiscShare = stats.Ratio(a.MiscCount, a.TotalMalicious)
	out.Table4 = short
	out.Figure5 = a.RedirectHist.Buckets()
	for _, it := range a.TLDCounts.Items() {
		out.Figure6 = append(out.Figure6, JSONShare{Key: it.Key, Count: it.Count, Share: it.Share})
	}
	for _, it := range a.ContentCategories.Items() {
		out.Figure7 = append(out.Figure7, JSONShare{Key: it.Key, Count: it.Count, Share: it.Share})
	}
	if h := a.Health; h != nil {
		jh := &JSONCrawlHealth{
			TotalFailed:  h.TotalFailed,
			TotalRetries: h.TotalRetries,
			FailRate:     stats.Ratio(h.TotalFailed, a.TotalCrawled),
		}
		for _, it := range h.ErrorKinds.Items() {
			jh.ErrorKinds = append(jh.ErrorKinds, JSONShare{Key: it.Key, Count: it.Count, Share: it.Share})
		}
		for _, row := range h.PerExchange {
			jr := JSONExchangeHealth{
				Name: row.Name, Crawled: row.Crawled, Failed: row.Failed,
				PctFailed: row.PctFailed(), Retries: row.Retries,
			}
			for _, kc := range row.Kinds {
				jr.Kinds = append(jr.Kinds, JSONShare{
					Key: kc.Kind, Count: kc.Count,
					Share: stats.Ratio(kc.Count, row.Failed),
				})
			}
			jh.PerExchange = append(jh.PerExchange, jr)
		}
		out.CrawlHealth = jh
	}
	return out
}

// EncodeJSON emits an assembled JSONReport, letting callers attach
// optional sections (e.g. Metrics) between BuildJSON and encoding.
func EncodeJSON(w io.Writer, rep *JSONReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
