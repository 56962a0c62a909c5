package main

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/testutil"
)

// TestGoldenReportFleet locks the distributed workflow to the golden
// bytes, clean and faulty alike: two -shards subset runs with different
// worker counts write into one checkpoint directory and print nothing,
// and a -merge pass prints the golden report.
func TestGoldenReportFleet(t *testing.T) {
	for _, tc := range []struct {
		golden string
		extra  []string
	}{
		{"report.golden", nil},
		{"report_faulty.golden", []string{"-faults", "hostile"}},
	} {
		args := append([]string{"-checkpoint", t.TempDir()}, tc.extra...)
		if out := captureReport(t, append(args, "-shards", "0-3", "-workers", "2")...); len(out) != 0 {
			t.Errorf("%s: subset run printed %d bytes of report, want none", tc.golden, len(out))
		}
		if out := captureReport(t, append(args, "-shards", "4-8", "-workers", "3")...); len(out) != 0 {
			t.Errorf("%s: subset run printed %d bytes of report, want none", tc.golden, len(out))
		}
		testutil.CheckGolden(t, tc.golden, captureReport(t, append(args, "-merge")...))
	}
}

// TestDistributedShardsMerge runs two disjoint -shards subsets into a
// shared directory and merges: the -merge report must byte-match a plain
// single-invocation run, and subset runs themselves print no report.
func TestDistributedShardsMerge(t *testing.T) {
	want := captureReport(t, "-workers", "4")
	dir := t.TempDir()
	if out := captureReport(t, "-checkpoint", dir, "-shards", "0-3", "-workers", "2"); len(out) != 0 {
		t.Errorf("subset run printed %d bytes of report, want none", len(out))
	}
	if out := captureReport(t, "-checkpoint", dir, "-shards", "4-8", "-workers", "3"); len(out) != 0 {
		t.Errorf("subset run printed %d bytes of report, want none", len(out))
	}
	if got := captureReport(t, "-checkpoint", dir, "-merge"); !bytes.Equal(got, want) {
		t.Error("-merge output differs from a single-invocation run")
	}
	// Merge-only mode never consumes the shard files; reruns must work.
	if again := captureReport(t, "-checkpoint", dir, "-merge"); !bytes.Equal(again, want) {
		t.Error("second -merge pass differs — merge consumed or mutated shard state")
	}
	// A merge under the wrong seed must refuse.
	var buf bytes.Buffer
	if err := run([]string{"-seed", "2", "-scale", "900", "-checkpoint", dir, "-merge"}, &buf); err == nil {
		t.Error("-merge under a different seed accepted")
	}
}

// TestFleetSizeInvariance is the CLI face of the determinism contract:
// every worker count emits byte-identical reports.
func TestFleetSizeInvariance(t *testing.T) {
	base := captureReport(t, "-workers", "1")
	for _, workers := range []string{"2", "4", "8"} {
		if got := captureReport(t, "-workers", workers); !bytes.Equal(got, base) {
			t.Errorf("-workers %s output differs from -workers 1", workers)
		}
	}
}

// TestFlagValidation covers the unusable -shards/-merge combinations.
func TestFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-merge"}, &buf); err == nil {
		t.Error("-merge without -checkpoint accepted")
	}
	if err := run([]string{"-shards", "0-2"}, &buf); err == nil {
		t.Error("-shards without -checkpoint accepted")
	}
	if err := run([]string{"-scale", "0"}, &buf); err == nil {
		t.Error("-scale 0 accepted")
	}
	if err := run([]string{"-shards", "9-1", "-checkpoint", t.TempDir()}, &buf); err == nil {
		t.Error("backwards -shards range accepted")
	}
}

// TestFleetFlagValidation covers shard lists the study cannot satisfy
// and distributed runs of a multi-epoch study.
func TestFleetFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	for _, args := range [][]string{
		{"-shards", "0,0", "-checkpoint", t.TempDir()},
		{"-shards", "99", "-checkpoint", t.TempDir()},
		{"-epochs", "2", "-merge", "-checkpoint", t.TempDir()},
	} {
		if err := run(append([]string{"-scale", "1500"}, args...), &buf); err == nil {
			t.Errorf("%v accepted, want error", args)
		}
	}
}

// TestParseShards tables the -shards grammar.
func TestParseShards(t *testing.T) {
	cases := []struct {
		in   string
		want []int
		ok   bool
	}{
		{"", nil, true},
		{"0", []int{0}, true},
		{"0,2,5", []int{0, 2, 5}, true},
		{"5-8", []int{5, 6, 7, 8}, true},
		{"0,2-4, 7", []int{0, 2, 3, 4, 7}, true},
		{"3-3", []int{3}, true},
		{"4-2", nil, false},
		{"a", nil, false},
		{"1,,2", nil, false},
		{"1-x", nil, false},
	}
	for _, tc := range cases {
		got, err := parseShards(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("parseShards(%q): err=%v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseShards(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
