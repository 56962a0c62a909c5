package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStreamDatasetMatchesBatchCLI writes the same crawl with and without
// -hardir, under different -workers: HAR capture must not change a byte
// of the dataset.
func TestStreamDatasetMatchesBatchCLI(t *testing.T) {
	dir := t.TempDir()
	harOut := filepath.Join(dir, "har.jsonl")
	plainOut := filepath.Join(dir, "plain.jsonl")
	args := []string{"-scale", "900", "-seed", "4", "-faults", "flaky"}
	if err := run(append(append([]string{}, args...), "-out", harOut, "-hardir", filepath.Join(dir, "hars"))); err != nil {
		t.Fatal(err)
	}
	if err := run(append(append([]string{}, args...), "-out", plainOut, "-workers", "3")); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(plainOut)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(harOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("-hardir dataset differs from the plain one (%d vs %d bytes)", len(got), len(want))
	}
}

// TestStreamDatasetKillResumeCLI kills a checkpointed -hardir crawl via
// -abort-after and reruns the same command with another -workers value;
// the final dataset and every HAR archive must be byte-identical to an
// uninterrupted run's, with no shard checkpoint or part file left behind.
func TestStreamDatasetKillResumeCLI(t *testing.T) {
	dir := t.TempDir()
	refOut, refHARs := filepath.Join(dir, "ref.jsonl"), filepath.Join(dir, "ref-hars")
	out, hars := filepath.Join(dir, "ds.jsonl"), filepath.Join(dir, "hars")
	ckpt := filepath.Join(dir, "ckpt")
	args := []string{"-scale", "900", "-seed", "4", "-faults", "flaky"}
	if err := run(append(append([]string{}, args...), "-out", refOut, "-hardir", refHARs)); err != nil {
		t.Fatal(err)
	}
	resumeArgs := append(append([]string{}, args...), "-out", out, "-hardir", hars, "-checkpoint", ckpt, "-checkpoint-every", "41")
	if err := run(append(append([]string{}, resumeArgs...), "-abort-after", "200", "-workers", "2")); err == nil {
		t.Fatal("aborted crawl returned nil error")
	}
	if shards, _ := filepath.Glob(filepath.Join(ckpt, "shard-*.ckpt")); len(shards) == 0 {
		t.Fatal("no shard checkpoint after the abort")
	}
	if err := run(append(append([]string{}, resumeArgs...), "-workers", "1")); err != nil {
		t.Fatal(err)
	}
	sameFile(t, refOut, out)
	want, _ := filepath.Glob(filepath.Join(refHARs, "*"))
	got, _ := filepath.Glob(filepath.Join(hars, "*"))
	if len(want) != 9 || len(got) != len(want) {
		t.Fatalf("HAR directories hold %d and %d files, want 9 archives each", len(want), len(got))
	}
	for _, path := range want {
		sameFile(t, path, filepath.Join(hars, filepath.Base(path)))
	}
	if left, _ := filepath.Glob(filepath.Join(ckpt, "*")); len(left) != 0 {
		t.Errorf("checkpoint directory not emptied: %v", left)
	}
	if parts, _ := filepath.Glob(out + ".*"); len(parts) != 0 {
		t.Errorf("part files left behind: %v", parts)
	}
}

// sameFile asserts got holds exactly want's bytes.
func sameFile(t *testing.T, want, got string) {
	t.Helper()
	w, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	g, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w, g) {
		t.Errorf("resumed %s differs from the uninterrupted run's (%d vs %d bytes)", filepath.Base(got), len(g), len(w))
	}
}

// TestStreamRejectsHARDir pins that a checkpoint directory resumes only
// the crawl it was written by: a crawl killed without -hardir is not
// resumed with it, nor one killed with -hardir without it — one side
// has no HAR parts for the other's offsets.
func TestStreamRejectsHARDir(t *testing.T) {
	for _, killedWithHAR := range []bool{false, true} {
		dir := t.TempDir()
		base := []string{"-scale", "900", "-out", filepath.Join(dir, "ds.jsonl"), "-checkpoint", filepath.Join(dir, "ckpt"),
			"-checkpoint-every", "5"}
		withHAR := append(append([]string{}, base...), "-hardir", filepath.Join(dir, "hars"))
		killed, resumed := base, withHAR
		if killedWithHAR {
			killed, resumed = withHAR, base
		}
		if err := run(append(append([]string{}, killed...), "-abort-after", "40")); err == nil {
			t.Fatal("aborted crawl returned nil error")
		}
		err := run(resumed)
		if err == nil || !strings.Contains(err.Error(), "HAR capture") {
			t.Errorf("killed with -hardir %t, resumed with %t: got %v, want refusal", killedWithHAR, !killedWithHAR, err)
		}
	}
}
