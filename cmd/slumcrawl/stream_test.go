package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStreamDatasetMatchesBatchCLI writes the same crawl through the
// engine (no -hardir) and through the in-memory -hardir path: the
// dataset files must be byte-identical.
func TestStreamDatasetMatchesBatchCLI(t *testing.T) {
	dir := t.TempDir()
	batchOut := filepath.Join(dir, "batch.jsonl")
	streamOut := filepath.Join(dir, "stream.jsonl")
	args := []string{"-scale", "900", "-seed", "4", "-faults", "flaky"}
	if err := run(append(append([]string{}, args...), "-out", batchOut, "-hardir", filepath.Join(dir, "hars"))); err != nil {
		t.Fatal(err)
	}
	if err := run(append(append([]string{}, args...), "-out", streamOut, "-workers", "3")); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(batchOut)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(streamOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("engine dataset differs from the -hardir one (%d vs %d bytes)", len(got), len(want))
	}
}

// TestStreamDatasetKillResumeCLI kills a checkpointed crawl via
// -abort-after and reruns the same command with another -workers value;
// the final dataset must be byte-identical to an uninterrupted run, with
// no shard checkpoint or part file left behind.
func TestStreamDatasetKillResumeCLI(t *testing.T) {
	dir := t.TempDir()
	refOut := filepath.Join(dir, "ref.jsonl")
	out := filepath.Join(dir, "ds.jsonl")
	ckpt := filepath.Join(dir, "ckpt")
	args := []string{"-scale", "900", "-seed", "4", "-faults", "flaky"}
	if err := run(append(append([]string{}, args...), "-out", refOut)); err != nil {
		t.Fatal(err)
	}
	resumeArgs := append(append([]string{}, args...), "-out", out, "-checkpoint", ckpt, "-checkpoint-every", "41")
	if err := run(append(append([]string{}, resumeArgs...), "-abort-after", "200", "-workers", "2")); err == nil {
		t.Fatal("aborted crawl returned nil error")
	}
	if shards, _ := filepath.Glob(filepath.Join(ckpt, "shard-*.ckpt")); len(shards) == 0 {
		t.Fatal("no shard checkpoint after the abort")
	}
	if err := run(append(append([]string{}, resumeArgs...), "-workers", "1")); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(refOut)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("resumed dataset differs from uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
	if left, _ := filepath.Glob(filepath.Join(ckpt, "*")); len(left) != 0 {
		t.Errorf("checkpoint directory not emptied: %v", left)
	}
	if parts, _ := filepath.Glob(out + ".*"); len(parts) != 0 {
		t.Errorf("part files left behind: %v", parts)
	}
}

// TestStreamRejectsHARDir pins that the in-memory -hardir path takes no
// checkpoint: HAR capture needs whole crawls, which a resumed shard never
// has.
func TestStreamRejectsHARDir(t *testing.T) {
	for _, extra := range [][]string{{"-checkpoint", t.TempDir()}, {"-abort-after", "10"}} {
		err := run(append([]string{"-hardir", t.TempDir()}, extra...))
		if err == nil || !strings.Contains(err.Error(), "-hardir") {
			t.Errorf("-hardir with %v: got %v, want refusal", extra, err)
		}
	}
}
