package report

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/shortener"
	"repro/internal/stats"
)

func sampleAnalysis() *core.Analysis {
	a := &core.Analysis{
		CategoryCounts:    stats.NewCounter(),
		TLDCounts:         stats.NewCounter(),
		ContentCategories: stats.NewCounter(),
		RedirectHist:      stats.NewIntHist(),
		Series:            map[string]*stats.Series{},
	}
	a.PerExchange = []core.ExchangeStats{
		{Name: "AutoX", Kind: exchange.AutoSurf, Crawled: 1000, Self: 60, Popular: 110,
			Regular: 830, Malicious: 280, Domains: 240, MalwareDomains: 36},
		{Name: "ManualY", Kind: exchange.ManualSurf, Crawled: 200, Self: 20, Popular: 15,
			Regular: 165, Malicious: 20, Domains: 30, MalwareDomains: 5},
	}
	a.TotalCrawled = 1200
	a.TotalDistinct = 700
	a.TotalDomains = 270
	a.TotalRegular = 995
	a.TotalMalicious = 300
	a.CategoryCounts.AddN(string(core.CatBlacklisted), 75)
	a.CategoryCounts.AddN(string(core.CatJavaScript), 19)
	a.CategoryCounts.AddN(string(core.CatRedirection), 6)
	a.MiscCount = 200
	a.TLDCounts.AddN("com", 210)
	a.TLDCounts.AddN("net", 66)
	a.TLDCounts.AddN("de", 6)
	a.TLDCounts.AddN("org", 3)
	a.TLDCounts.AddN("ru", 15)
	a.ContentCategories.AddN("Business", 176)
	a.ContentCategories.AddN("Advertisement", 65)
	a.ContentCategories.AddN("Entertainment", 26)
	a.ContentCategories.AddN("Information Technology", 26)
	a.ContentCategories.AddN("Others", 7)
	for _, v := range []int{1, 1, 1, 2, 2, 3, 7} {
		a.RedirectHist.Observe(v)
	}
	sAuto := stats.NewSeries()
	for i := 0; i < 500; i++ {
		sAuto.Observe(i%4 == 0)
	}
	a.Series["AutoX"] = sAuto
	sManual := stats.NewSeries()
	for i := 0; i < 300; i++ {
		sManual.Observe(false)
	}
	for i := 0; i < 60; i++ {
		sManual.Observe(true)
	}
	for i := 0; i < 300; i++ {
		sManual.Observe(false)
	}
	a.Series["ManualY"] = sManual
	return a
}

func TestTable1(t *testing.T) {
	out := Table1(sampleAnalysis())
	for _, want := range []string{"TABLE I", "AutoX", "Auto-surf", "1,000", "33.7%", "TOTAL", "30.2%"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2(t *testing.T) {
	out := Table2(sampleAnalysis())
	for _, want := range []string{"TABLE II", "240", "36", "15.0%", "16.7%"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 missing %q:\n%s", want, out)
		}
	}
}

func TestTable3(t *testing.T) {
	out := Table3(sampleAnalysis())
	for _, want := range []string{"TABLE III", "Blacklisted", "75.0%", "Malicious JavaScript", "19.0%", "Miscellaneous", "66.7%"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table3 missing %q:\n%s", want, out)
		}
	}
	// Zero-count categories must still be listed.
	if !strings.Contains(out, string(core.CatFlash)) {
		t.Error("Table3 must list zero-count Flash category")
	}
}

func TestTable4(t *testing.T) {
	rows := []shortener.HitStats{
		{ShortURL: "http://goo.gl.sim/ab", LongURL: "http://x.com/", ShortHits: 3746526,
			LongHits: 3746577, TopCountry: "Brazil", TopReferrer: "torrentcompleto.com"},
	}
	out := Table4(rows)
	for _, want := range []string{"TABLE IV", "goo.gl.sim/ab", "3,746,526", "Brazil"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table4 missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(Table4(nil), "none observed") {
		t.Error("empty Table4 must say so")
	}
}

func TestFigure2(t *testing.T) {
	out := Figure2(sampleAnalysis())
	for _, want := range []string{"FIGURE 2", "Auto-surf", "Manual-surf", "AutoX", "ManualY", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure2 missing %q:\n%s", want, out)
		}
	}
}

func TestFigure3BurstAnnotations(t *testing.T) {
	out := Figure3(sampleAnalysis())
	if !strings.Contains(out, "bursts: none") {
		t.Errorf("auto-surf series should report no bursts:\n%s", out)
	}
	if !strings.Contains(out, "paid-campaign signature") {
		t.Errorf("manual-surf burst not annotated:\n%s", out)
	}
}

func TestFigure5(t *testing.T) {
	out := Figure5(sampleAnalysis())
	for _, want := range []string{"FIGURE 5", "1 redirects", "7 redirects"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure5 missing %q:\n%s", want, out)
		}
	}
}

func TestFigure6And7(t *testing.T) {
	a := sampleAnalysis()
	f6 := Figure6(a)
	if !strings.Contains(f6, "com") || !strings.Contains(f6, "70.0%") {
		t.Errorf("Figure6 content wrong:\n%s", f6)
	}
	if !strings.Contains(f6, "Others") {
		t.Errorf("Figure6 must fold the tail into Others:\n%s", f6)
	}
	f7 := Figure7(a)
	if !strings.Contains(f7, "Business") || !strings.Contains(f7, "58.7%") {
		t.Errorf("Figure7 content wrong:\n%s", f7)
	}
}

func TestHeadline(t *testing.T) {
	out := Headline(sampleAnalysis())
	for _, want := range []string{"1,200", "700", "270", "30.2%"} {
		if !strings.Contains(out, want) {
			t.Errorf("Headline missing %q:\n%s", want, out)
		}
	}
}

func TestTableAlignment(t *testing.T) {
	tbl := NewTable("A", "Value").Row("x", "1").Row("longer-name", "22,222")
	out := tbl.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// All rows same width.
	w := len(lines[0])
	for _, l := range lines[1:] {
		if len(l) > w+2 {
			t.Fatalf("ragged table:\n%s", out)
		}
	}
}

func TestComma(t *testing.T) {
	cases := map[int]string{
		0: "0", 999: "999", 1000: "1,000", 1003087: "1,003,087", 214527: "214,527",
	}
	for n, want := range cases {
		if got := comma(n); got != want {
			t.Errorf("comma(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestBarClamping(t *testing.T) {
	if got := bar(-0.5, 10); strings.Contains(got, "#") {
		t.Errorf("negative bar = %q", got)
	}
	if got := bar(1.5, 10); strings.Contains(got, ".") {
		t.Errorf("overfull bar = %q", got)
	}
}

func TestWriteJSON(t *testing.T) {
	a := sampleAnalysis()
	var buf strings.Builder
	rows := []shortener.HitStats{{ShortURL: "http://goo.gl.sim/a", LongURL: "http://x/", ShortHits: 5, LongHits: 5, TopCountry: "USA", TopReferrer: "ex.sim"}}
	if err := EncodeJSON(&buf, BuildJSON(a, rows)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"crawled": 1200`, `"pctMalicious"`, `"table1"`, `"table2"`,
		`"miscCount": 200`, `"table4"`, `"figure5"`, `"figure6"`, `"figure7"`,
		`"bursts"`, `"AutoX"`, `goo.gl.sim/a`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON report missing %q", want)
		}
	}
	rep := BuildJSON(a, rows)
	if len(rep.Table1) != 2 || len(rep.Table3.Categories) != 5 {
		t.Fatalf("report shape: table1=%d cats=%d", len(rep.Table1), len(rep.Table3.Categories))
	}
}
