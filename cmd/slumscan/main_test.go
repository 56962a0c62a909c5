package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// crawl writes the seed-4, scale-900 crawl's dataset to path and, unless
// harDir is empty, its HAR archives under harDir — what slumcrawl writes.
func crawl(t *testing.T, path, harDir string) {
	t.Helper()
	cfg := core.DefaultStudyConfig()
	cfg.Seed = 4
	cfg.Scale = 900
	st, err := core.NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.StreamDataset(path, harDir, core.RunOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestScanDataset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ds.jsonl")
	crawl(t, path, "")
	if err := run([]string{"-in", path, "-scale", "900", "-seed", "4", "-table", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestScanMissingFile(t *testing.T) {
	if err := run([]string{"-in", "/no/such/file.jsonl"}); err == nil {
		t.Fatal("missing input accepted")
	}
}

func TestScanCorruptDataset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.jsonl")
	if err := os.WriteFile(path, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", path, "-scale", "900"}); err == nil {
		t.Fatal("corrupt dataset accepted")
	}
}

func TestMain(m *testing.M) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err == nil {
		os.Stderr = null
		os.Stdout = null
	}
	os.Exit(m.Run())
}

func TestScanFromHARArchives(t *testing.T) {
	dir := t.TempDir()
	harDir := filepath.Join(dir, "hars")
	crawl(t, filepath.Join(dir, "ds.jsonl"), harDir)
	if err := run([]string{"-hardir", harDir, "-scale", "900", "-seed", "4", "-table", "1"}); err != nil {
		t.Fatal(err)
	}
	// Empty dir must error.
	if err := run([]string{"-hardir", t.TempDir()}); err == nil {
		t.Fatal("empty HAR dir accepted")
	}
}

// TestScanHARMatchesDataset: on a clean crawl, where every fetch succeeds
// and so has its HAR page, slumscan over the HAR archives prints exactly
// what it prints over the dataset — every table's rows in the same order.
func TestScanHARMatchesDataset(t *testing.T) {
	dir := t.TempDir()
	ds, harDir := filepath.Join(dir, "ds.jsonl"), filepath.Join(dir, "hars")
	crawl(t, ds, harDir)
	want := scanOutput(t, "-in", ds, "-scale", "900", "-seed", "4")
	got := scanOutput(t, "-hardir", harDir, "-scale", "900", "-seed", "4")
	if len(want) == 0 || !bytes.Equal(want, got) {
		t.Errorf("slumscan -hardir printed\n%s\nslumscan -in printed\n%s", got, want)
	}
}

// scanOutput runs slumscan with args and returns what it printed.
func scanOutput(t *testing.T, args ...string) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stdout")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	err = run(args)
	os.Stdout = stdout
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
