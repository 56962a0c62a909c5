package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

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

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("report output diverged from golden file (%d bytes vs %d); "+
			"rerun with -update if the change is intentional\n%s",
			len(got), len(want), firstDiff(got, want))
	}
}

// TestGoldenReport snapshots the full text output — headline, Tables
// I-IV, Figures 2-7, crawl health — against testdata/report.golden.
// Regenerate with:
//
//	go test ./cmd/slumreport -run TestGolden -update
func TestGoldenReport(t *testing.T) {
	checkGolden(t, "report.golden", captureReport(t))
}

// TestGoldenReportFaulty snapshots the same study crawled through the
// hostile fault profile. Every fault decision is a pure function of
// (seed, url, attempt), so the degraded report — including which fetches
// failed and the exact error taxonomy — is as reproducible as the clean
// one.
func TestGoldenReportFaulty(t *testing.T) {
	checkGolden(t, "report_faulty.golden", captureReport(t, "-faults", "hostile"))
}

// TestGoldenReportWorkerInvariance reruns the golden configuration at
// several worker counts: the engine must emit byte-identical reports
// however many workers share the exchange shards.
func TestGoldenReportWorkerInvariance(t *testing.T) {
	base := captureReport(t)
	for _, workers := range []string{"1", "2", "8"} {
		if got := captureReport(t, "-workers", workers); !bytes.Equal(got, base) {
			t.Fatalf("-workers %s output differs from default\n%s",
				workers, firstDiff(got, base))
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
				workers, firstDiff(got, base))
		}
	}
}

func firstDiff(got, want []byte) string {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			hiG, hiW := i+40, i+40
			if hiG > len(got) {
				hiG = len(got)
			}
			if hiW > len(want) {
				hiW = len(want)
			}
			return fmt.Sprintf("first difference at byte %d:\n got: %q\nwant: %q",
				i, got[lo:hiG], want[lo:hiW])
		}
	}
	return fmt.Sprintf("outputs share a %d-byte prefix but differ in length", n)
}
