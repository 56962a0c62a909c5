package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/crawler"
	"repro/internal/exchange"
	"repro/internal/har"
)

// CrawlFromHAR reconstructs a crawl from a HAR capture — the workflow the
// original study used, where all offline analysis ran against the
// Firebug/NetExport archives. Each HAR page with entries becomes one
// crawl record: the page title is the entry URL, the page's last entry in
// log order is the final hop (whose archived content text is the
// downloaded body), and the entry count gives the redirect count. The
// entries are grouped by page in one pass, and the crawl keeps no
// reference to the log.
func CrawlFromHAR(exchangeName string, kind exchange.Kind, log *har.Log) (*crawler.Crawl, error) {
	if log == nil {
		return nil, fmt.Errorf("core: nil HAR log")
	}
	// Per page id: how many entries refer to it, and the last of them.
	type pageEntries struct{ n, last int }
	byPage := make(map[string]pageEntries, len(log.Pages))
	for i := range log.Entries {
		g := byPage[log.Entries[i].Pageref]
		g.n++
		g.last = i
		byPage[log.Entries[i].Pageref] = g
	}
	out := &crawler.Crawl{Exchange: exchangeName, Kind: kind}
	for seq, page := range log.Pages {
		g, ok := byPage[page.ID]
		if !ok {
			continue
		}
		final := &log.Entries[g.last]
		ts, err := time.Parse("2006-01-02T15:04:05.000Z07:00", page.StartedDateTime)
		if err != nil {
			// Fall back to second-resolution timestamps from other tools.
			ts, _ = time.Parse(time.RFC3339, page.StartedDateTime)
		}
		rec := crawler.Record{
			Exchange:    exchangeName,
			Kind:        kind,
			Seq:         seq,
			Timestamp:   ts,
			EntryURL:    page.Title,
			FinalURL:    final.Request.URL,
			Redirects:   g.n - 1,
			Status:      final.Response.Status,
			ContentType: final.Response.Content.MimeType,
			Body:        []byte(final.Response.Content.Text),
		}
		out.Records = append(out.Records, rec)
	}
	if n := len(out.Records); n > 0 {
		out.Started = out.Records[0].Timestamp
		out.Ended = out.Records[n-1].Timestamp
	}
	return out, nil
}

// HARFileName names an exchange's HAR archive: the exchange name lower
// cased, spaces dashed, with a ".har" suffix.
func HARFileName(exchangeName string) string {
	return strings.ToLower(strings.ReplaceAll(exchangeName, " ", "-")) + ".har"
}

// ExchangeByFileName resolves a HAR archive's file name (HARFileName, in
// any case) back to the paper-spec exchange it belongs to.
func ExchangeByFileName(name string) (exchange.PaperSpec, bool) {
	for _, spec := range exchange.PaperSpecs() {
		if strings.EqualFold(name, HARFileName(spec.Name)) {
			return spec, true
		}
	}
	return exchange.PaperSpec{}, false
}
