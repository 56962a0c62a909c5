package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/har"
)

func writeDataset(t *testing.T, path string) {
	t.Helper()
	cfg := core.DefaultStudyConfig()
	cfg.Seed = 4
	cfg.Scale = 900
	st, err := core.RunStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := core.WriteDataset(f, st.Crawls); err != nil {
		t.Fatal(err)
	}
}

func TestScanDataset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ds.jsonl")
	writeDataset(t, path)
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
	if err := os.MkdirAll(harDir, 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultStudyConfig()
	cfg.Seed = 4
	cfg.Scale = 900
	// The archives slumcrawl -hardir writes: Study.Crawl captures HAR.
	st, err := core.NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Crawl(); err != nil {
		t.Fatal(err)
	}
	for _, c := range st.Crawls {
		if c.HAR == nil {
			t.Fatal("study crawl missing HAR")
		}
		name := filepath.Join(harDir, harFileName(c.Exchange))
		f, err := os.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := har.Encode(f, c.HAR); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	if err := run([]string{"-hardir", harDir, "-scale", "900", "-seed", "4", "-table", "1"}); err != nil {
		t.Fatal(err)
	}
	// Empty dir must error.
	if err := run([]string{"-hardir", t.TempDir()}); err == nil {
		t.Fatal("empty HAR dir accepted")
	}
}

func harFileName(exchangeName string) string {
	out := ""
	for _, r := range exchangeName {
		switch {
		case r == ' ':
			out += "-"
		case r >= 'A' && r <= 'Z':
			out += string(r - 'A' + 'a')
		default:
			out += string(r)
		}
	}
	return out + ".har"
}
