package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
)

func TestTracerAggregates(t *testing.T) {
	tr := NewTracer()
	tr.Observe("ExA", StageScan, 10*time.Millisecond)
	tr.Observe("ExA", StageScan, 30*time.Millisecond)
	tr.Observe("ExA", StageFetch, 5*time.Millisecond)
	tr.Observe("ExB", StageClassify, time.Millisecond)

	rows := tr.Table()
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3: %+v", len(rows), rows)
	}
	// Sorted by scope, then journey order: ExA/fetch, ExA/scan, ExB/classify.
	if rows[0].Scope != "ExA" || rows[0].Stage != StageFetch {
		t.Fatalf("row 0 = %+v", rows[0])
	}
	if rows[1].Stage != StageScan || rows[1].Count != 2 {
		t.Fatalf("row 1 = %+v", rows[1])
	}
	if got := rows[1].TotalSeconds; got < 0.039 || got > 0.041 {
		t.Fatalf("scan total = %v, want ~0.04", got)
	}
	if rows[1].MeanSeconds <= 0 || rows[1].P95Seconds < rows[1].P50Seconds {
		t.Fatalf("scan stats inconsistent: %+v", rows[1])
	}
	if rows[2].Scope != "ExB" {
		t.Fatalf("row 2 = %+v", rows[2])
	}
}

func TestSpanRecordsMonotonicTime(t *testing.T) {
	tr := NewTracer()
	sp := tr.Start("ex", StageScan)
	time.Sleep(2 * time.Millisecond)
	sp.End()
	rows := tr.Table()
	if len(rows) != 1 || rows[0].Count != 1 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].TotalSeconds < 0.002 {
		t.Fatalf("span recorded %vs, want >= 2ms", rows[0].TotalSeconds)
	}
}

func TestTracerConcurrent(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	tr := NewTracer()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				sp := tr.Start("ex", StageScan)
				sp.End()
				tr.Table() // readers race against writers by design
			}
		}()
	}
	wg.Wait()
	rows := tr.Table()
	if len(rows) != 1 || rows[0].Count != 2000 {
		t.Fatalf("rows = %+v, want one row with count 2000", rows)
	}
}

func TestExportText(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("pipeline.cache.hits").Add(42)
	reg.Gauge("pipeline.workers.peak").Set(8)
	reg.Histogram("study.analyze_seconds").Observe(1.25)
	tr := NewTracer()
	tr.Observe("ExA", StageScan, 3*time.Millisecond)

	text := NewExport(reg, tr).Text()
	for _, want := range []string{
		"counters (deterministic):",
		"pipeline.cache.hits", "42",
		"gauges:", "pipeline.workers.peak",
		"histograms (timing-dependent):", "study.analyze_seconds",
		"stage latency", "ExA", "scan",
		"runtime: goroutines=",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("text missing %q:\n%s", want, text)
		}
	}
}

func TestExportTextEmpty(t *testing.T) {
	text := NewExport(nil, nil).Text()
	if strings.Contains(text, "counters") || !strings.Contains(text, "runtime:") {
		t.Fatalf("empty export text = %q", text)
	}
}

func TestSecsFormatting(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want string
	}{
		{1.5, "1.5s"},
		{0.002, "2ms"},
		{0.0000005, "500ns"},
	} {
		if got := secs(tc.in); got != tc.want {
			t.Errorf("secs(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("serve.requests").Add(7)
	tr := NewTracer()
	tr.Observe("serve", StageFetch, time.Millisecond)
	srv := httptest.NewServer(Handler(reg, tr))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(string(body), "serve.requests") {
		t.Fatalf("text body missing counter:\n%s", body)
	}

	resp, err = http.Get(srv.URL + "/debug/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("json content type = %q", ct)
	}
	var e Export
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if len(e.Counters) != 1 || e.Counters[0].Name != "serve.requests" || e.Counters[0].Value != 7 {
		t.Fatalf("json counters = %+v", e.Counters)
	}
	if len(e.Stages) != 1 || e.Stages[0].Count != 1 {
		t.Fatalf("json stages = %+v", e.Stages)
	}
}
