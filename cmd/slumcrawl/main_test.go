package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCrawlAndArtifacts(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "ds.jsonl")
	harDir := filepath.Join(dir, "hars")
	if err := run([]string{"-scale", "900", "-seed", "4", "-out", out, "-hardir", harDir}); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(out)
	if err != nil || fi.Size() == 0 {
		t.Fatalf("dataset missing or empty: %v", err)
	}
	hars, err := filepath.Glob(filepath.Join(harDir, "*.har"))
	if err != nil || len(hars) != 9 {
		t.Fatalf("HAR archives = %d (%v), want 9", len(hars), err)
	}
}

// TestBadOutputPath: an output whose part files cannot be created, and
// a -checkpoint naming an existing regular file, are refused — with or
// without -hardir, and before the crawl starts (the core
// TestStreamDatasetFailsBeforeCrawl pins the ordering).
func TestBadOutputPath(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "missing", "ds.jsonl")
	for _, args := range [][]string{
		{"-out", bad},
		{"-out", bad, "-hardir", filepath.Join(dir, "hars")},
	} {
		if err := run(append([]string{"-scale", "900"}, args...)); err == nil || !strings.Contains(err.Error(), "missing") {
			t.Errorf("%v: got %v, want an error naming the unwritable path", args, err)
		}
	}
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "ds.jsonl")
	if err := run([]string{"-scale", "900", "-out", out, "-checkpoint", file}); err == nil {
		t.Error("-checkpoint naming a regular file accepted")
	}
	if parts, _ := filepath.Glob(out + "*"); len(parts) != 0 {
		t.Errorf("refused run left files behind: %v", parts)
	}
}

func TestMain(m *testing.M) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err == nil {
		os.Stderr = null
	}
	os.Exit(m.Run())
}
