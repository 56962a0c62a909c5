package main

import (
	"bytes"
	"testing"

	"repro/internal/testutil"
)

// goldenArgs pins the report to a fixed seed and a fast scale so the
// snapshot covers Tables I-IV and every figure in a couple of seconds.
var goldenArgs = []string{"-scale", "900", "-seed", "1"}

func captureReport(t *testing.T, extra ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := run(append(append([]string{}, goldenArgs...), extra...), &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenReport snapshots the full text output — headline, Tables
// I-IV, Figures 2-7, crawl health — against testdata/report.golden.
// Regenerate with:
//
//	go test ./cmd/slumreport -run TestGolden -update
func TestGoldenReport(t *testing.T) {
	testutil.CheckGolden(t, "report.golden", captureReport(t))
}

// TestGoldenReportFaulty snapshots the same study crawled through the
// hostile fault profile. Every fault decision is a pure function of
// (seed, url, attempt), so the degraded report — including which fetches
// failed and the exact error taxonomy — is as reproducible as the clean
// one.
func TestGoldenReportFaulty(t *testing.T) {
	testutil.CheckGolden(t, "report_faulty.golden", captureReport(t, "-faults", "hostile"))
}

// TestGoldenReportWorkerInvariance reruns the golden configuration at
// several worker counts: the engine must emit byte-identical reports
// however many workers share the exchange shards.
func TestGoldenReportWorkerInvariance(t *testing.T) {
	base := captureReport(t)
	for _, workers := range []string{"1", "2", "8"} {
		if got := captureReport(t, "-workers", workers); !bytes.Equal(got, base) {
			t.Fatalf("-workers %s output differs from default\n%s",
				workers, testutil.FirstDiff(got, base))
		}
	}
}

// TestGoldenReportFaultyWorkerInvariance repeats the invariance check
// under fault injection: retries, failures, and partial redirect chains
// must not introduce any schedule dependence.
func TestGoldenReportFaultyWorkerInvariance(t *testing.T) {
	base := captureReport(t, "-faults", "hostile")
	for _, workers := range []string{"1", "3"} {
		got := captureReport(t, "-faults", "hostile", "-workers", workers)
		if !bytes.Equal(got, base) {
			t.Fatalf("-faults hostile -workers %s output differs from default\n%s",
				workers, testutil.FirstDiff(got, base))
		}
	}
}
