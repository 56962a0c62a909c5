package report

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

// degradedAnalysis extends the sample analysis with crawl-health data
// from a faulty crawl.
func degradedAnalysis() *core.Analysis {
	a := sampleAnalysis()
	a.PerExchange[0].Failed = 40
	a.PerExchange[1].Failed = 10
	kinds := stats.NewCounter()
	kinds.AddN("timeout", 30)
	kinds.AddN("conn-reset", 15)
	kinds.AddN("http-5xx", 5)
	a.Health = &core.CrawlHealth{
		PerExchange: []core.ExchangeHealth{
			{Name: "AutoX", Crawled: 1000, Failed: 40, Retries: 120,
				Kinds: []core.KindCount{{Kind: "timeout", Count: 25}, {Kind: "conn-reset", Count: 15}}},
			{Name: "ManualY", Crawled: 200, Failed: 10, Retries: 33,
				Kinds: []core.KindCount{{Kind: "timeout", Count: 5}, {Kind: "http-5xx", Count: 5}}},
		},
		TotalFailed:  50,
		TotalRetries: 153,
		ErrorKinds:   kinds,
	}
	return a
}

// healthyAnalysis carries an all-zero Health block, as a clean crawl does.
func healthyAnalysis() *core.Analysis {
	a := sampleAnalysis()
	a.Health = &core.CrawlHealth{
		PerExchange: []core.ExchangeHealth{
			{Name: "AutoX", Crawled: 1000},
			{Name: "ManualY", Crawled: 200},
		},
		ErrorKinds: stats.NewCounter(),
	}
	return a
}

func TestCrawlHealthReportDegraded(t *testing.T) {
	out := CrawlHealthReport(degradedAnalysis())
	for _, want := range []string{
		"CRAWL HEALTH", "AutoX", "ManualY", "TOTAL",
		"# Analyzed", "960", // 1000 crawled - 40 failed
		"4.0%", // AutoX failure rate
		"timeout", "conn-reset", "http-5xx",
		"60.0%", // timeout share of the taxonomy (30/50)
		"153",   // total retries
	} {
		if !strings.Contains(out, want) {
			t.Errorf("degraded health report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "healthy crawl") {
		t.Error("degraded report claims a healthy crawl")
	}
}

func TestCrawlHealthReportHealthy(t *testing.T) {
	out := CrawlHealthReport(healthyAnalysis())
	if !strings.Contains(out, "healthy crawl") {
		t.Errorf("healthy report missing the healthy-crawl line:\n%s", out)
	}
	if strings.Contains(out, "Error taxonomy") {
		t.Error("healthy report renders an error taxonomy")
	}
}

func TestCrawlHealthReportNilHealth(t *testing.T) {
	out := CrawlHealthReport(sampleAnalysis())
	if !strings.Contains(out, "no crawl-health data") {
		t.Errorf("nil-Health report should say no data was recorded:\n%s", out)
	}
}

func TestJSONCrawlHealth(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, BuildJSON(degradedAnalysis(), nil)); err != nil {
		t.Fatal(err)
	}
	var rep JSONReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	h := rep.CrawlHealth
	if h == nil {
		t.Fatal("crawlHealth missing from JSON report")
	}
	if h.TotalFailed != 50 || h.TotalRetries != 153 {
		t.Fatalf("totals = %d failed / %d retries, want 50 / 153", h.TotalFailed, h.TotalRetries)
	}
	if len(h.PerExchange) != 2 || h.PerExchange[0].Name != "AutoX" || h.PerExchange[0].Failed != 40 {
		t.Fatalf("perExchange rows wrong: %+v", h.PerExchange)
	}
	if len(h.ErrorKinds) == 0 || h.ErrorKinds[0].Key != "timeout" || h.ErrorKinds[0].Count != 30 {
		t.Fatalf("errorKinds wrong: %+v", h.ErrorKinds)
	}
	if len(h.PerExchange[0].Kinds) != 2 {
		t.Fatalf("per-exchange kinds wrong: %+v", h.PerExchange[0].Kinds)
	}
}

func TestJSONCrawlHealthOmittedWhenNil(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, BuildJSON(sampleAnalysis(), nil)); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("crawlHealth")) {
		t.Error("crawlHealth key emitted for an analysis without Health data")
	}
}
