package main

import (
	"bytes"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestRunEpochsDeltaMatchesFull locks the CLI-level incremental-re-crawl
// contract: a multi-epoch study run with -delta-dir prints bytes
// identical to the same study re-crawling everything — also under
// per-epoch blacklist decay, where every preload is refused — and the
// output carries the per-epoch headers plus the longitudinal sections.
// The delta directory does not exist beforehand; the run creates it.
func TestRunEpochsDeltaMatchesFull(t *testing.T) {
	for _, tc := range []struct {
		epochs int
		extra  []string
	}{
		{2, nil},
		{3, []string{"-blacklist-decay", "0.4"}},
	} {
		args := append([]string{"-scale", "1500", "-seed", "3", "-epochs", strconv.Itoa(tc.epochs),
			"-churn", "0.4", "-blacklist-lag", "1"}, tc.extra...)
		var full bytes.Buffer
		if err := run(args, &full); err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(t.TempDir(), "deltas")
		var delta bytes.Buffer
		if err := run(append(args, "-delta-dir", dir), &delta); err != nil {
			t.Fatalf("%v -delta-dir: %v", args, err)
		}
		if !bytes.Equal(full.Bytes(), delta.Bytes()) {
			t.Errorf("%v: -delta-dir output differs from the full re-crawl", args)
		}
		if files, _ := filepath.Glob(filepath.Join(dir, "epoch*.slumdelta")); len(files) != tc.epochs {
			t.Errorf("%v: %d delta files, want %d", args, len(files), tc.epochs)
		}
		for _, want := range []string{"=== EPOCH 0 ===", "=== EPOCH 1 ===",
			"LONGITUDINAL: MALICE RATE OVER EPOCHS",
			"LONGITUDINAL: BLACKLIST LAG DISTRIBUTION",
			"LONGITUDINAL: CROSS-EPOCH CAMPAIGN BURSTS"} {
			if !strings.Contains(full.String(), want) {
				t.Errorf("%v: multi-epoch output missing %q", args, want)
			}
		}
	}
}

// TestRunEpochsWorkerInvariance: a multi-epoch study prints the same
// bytes for every worker count, with or without per-epoch checkpoint
// directories, and after a kill mid-study (-abort-after) and a relaunch
// of the same command; no epoch checkpoints are left behind.
func TestRunEpochsWorkerInvariance(t *testing.T) {
	args := []string{"-scale", "1500", "-seed", "3", "-epochs", "2", "-churn", "0.4", "-blacklist-lag", "1"}
	var two, three bytes.Buffer
	if err := run(append([]string{"-workers", "2"}, args...), &two); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := run(append([]string{"-workers", "3", "-checkpoint", dir, "-checkpoint-every", "50"}, args...), &three); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(two.Bytes(), three.Bytes()) {
		t.Error("multi-epoch output depends on the worker count or checkpointing")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "epoch*")); len(left) != 0 {
		t.Errorf("epoch checkpoints left behind: %v", left)
	}

	// Four epochs of about 670 records each: -abort-after 1500 kills the
	// study inside epoch 2.
	args = []string{"-scale", "1500", "-seed", "3", "-epochs", "4", "-churn", "0.3", "-blacklist-lag", "1"}
	var want, got bytes.Buffer
	if err := run(args, &want); err != nil {
		t.Fatal(err)
	}
	ckpt := append([]string{"-checkpoint", t.TempDir(), "-checkpoint-every", "97"}, args...)
	if err := run(append(ckpt, "-abort-after", "1500"), &bytes.Buffer{}); err == nil {
		t.Fatal("aborted longitudinal run returned nil error")
	}
	if left, _ := filepath.Glob(filepath.Join(ckpt[1], "epoch*", "shard-*.ckpt")); len(left) == 0 {
		t.Fatal("no epoch shard checkpoints on disk after the kill")
	}
	if err := run(ckpt, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Error("kill and relaunch of a 4-epoch study differs from the uninterrupted run")
	}
	if left, _ := filepath.Glob(filepath.Join(ckpt[1], "epoch*")); len(left) != 0 {
		t.Errorf("epoch checkpoints left behind after the relaunch: %v", left)
	}
}

// TestRunEpochsRejectsJSON: the longitudinal path refuses -json.
func TestRunEpochsRejectsJSON(t *testing.T) {
	if err := run([]string{"-scale", "1500", "-epochs", "2", "-json"}, &bytes.Buffer{}); err == nil {
		t.Fatal("-json with -epochs > 1 accepted")
	}
}

// TestRunEpochsOneMatchesClassic: "-epochs 1" must be the classic
// single-epoch report, byte for byte — no headers, no longitudinal
// sections, same goldens.
func TestRunEpochsOneMatchesClassic(t *testing.T) {
	var classic, one bytes.Buffer
	if err := run([]string{"-scale", "1500", "-seed", "3"}, &classic); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scale", "1500", "-seed", "3", "-epochs", "1"}, &one); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(classic.Bytes(), one.Bytes()) {
		t.Error("-epochs 1 output differs from the flagless run")
	}
	if strings.Contains(one.String(), "=== EPOCH") {
		t.Error("single-epoch output carries epoch headers")
	}
}

// TestRunEpochsFlagValidation covers the longitudinal flag surface.
func TestRunEpochsFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-scale", "1500", "-delta-dir", "/tmp/nope"},                                  // requires -epochs > 1
		{"-scale", "1500", "-epochs", "2", "-json"},                                    // unsupported combo
		{"-scale", "1500", "-epochs", "2", "-shards", "0", "-checkpoint", "/tmp/nope"}, // unsupported combo
		{"-scale", "1500", "-epochs", "2", "-churn", "1.5"},                            // out of range
		{"-scale", "1500", "-epochs", "2", "-blacklist-lag", "-1"},                     // out of range
		{"-scale", "1500", "-epochs", "2", "-blacklist-decay", "-0.25"},                // out of range
	}
	for _, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
