package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/crawler"
	"repro/internal/obs"
)

// writeDataset is the dataset oracle: the crawls as JSON lines, one
// record at a time, in crawl order.
func writeDataset(w io.Writer, crawls []*crawler.Crawl) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, c := range crawls {
		for i := range c.Records {
			if err := enc.Encode(datasetRecordOf(&c.Records[i])); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// streamDataset runs one dataset crawl of cfg into out, with HAR capture
// into harDir unless it is empty.
func streamDataset(cfg StudyConfig, out, harDir string, opts RunOptions) (DatasetStreamResult, error) {
	st, err := NewStudy(cfg)
	if err != nil {
		return DatasetStreamResult{}, err
	}
	return st.StreamDataset(out, harDir, opts)
}

// checkDatasetFile asserts out holds want and that no part file, temp
// file or shard checkpoint under dir survived the completed crawl.
func checkDatasetFile(t *testing.T, label, out, dir string, want []byte) {
	t.Helper()
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("%s: dataset differs from batch writeDataset (want %d bytes, got %d)", label, len(want), len(got))
	}
	left, _ := filepath.Glob(out + ".*")
	if dir != "" {
		shards, _ := filepath.Glob(filepath.Join(dir, "shard-*"))
		left = append(left, shards...)
	}
	if len(left) != 0 {
		t.Errorf("%s: left behind after completion: %v", label, left)
	}
}

// TestStreamDatasetMatchesBatch: the engine's dataset step, with or
// without HAR capture, writes exactly writeDataset over the oracle's
// crawls and its HAR archives, and no part file survives completion.
func TestStreamDatasetMatchesBatch(t *testing.T) {
	checkEngineCases(t, draws(2, caseAxes{sources: []string{"dataset"}, har: maybe}))
}

// TestStreamDatasetKillResume: a dataset crawl killed once or twice and
// resumed under other worker counts writes the same bytes, with shard
// checkpoints and part files cleaned up.
func TestStreamDatasetKillResume(t *testing.T) {
	checkEngineCases(t, draws(3, caseAxes{sources: []string{"dataset"}, kills: [2]int{1, 2}, har: maybe}))
}

// TestStreamDatasetRejectsAnalysisCheckpoint ensures the two per-shard
// checkpoint kinds cannot be crossed: an analysis (kind-3) shard must not
// resume a dataset crawl, and a dataset (kind-2) cursor must not resume
// an analysis run or feed a merge-only pass.
func TestStreamDatasetRejectsAnalysisCheckpoint(t *testing.T) {
	cfg := streamConfig(1, 4, "")
	dir := t.TempDir()
	anDir := filepath.Join(dir, "analysis")
	_, err := RunStudyStream(cfg, RunOptions{CheckpointDir: anDir, CheckpointEvery: 5, AbortAfter: 40})
	if !errors.Is(err, ErrAborted) {
		t.Fatal(err)
	}
	if shards, _ := filepath.Glob(filepath.Join(anDir, "shard-*.ckpt")); len(shards) == 0 {
		t.Fatal("no shard checkpoint on disk after the kill")
	}
	_, err = streamDataset(cfg, filepath.Join(dir, "d.jsonl"), "", RunOptions{CheckpointDir: anDir})
	if err == nil || !strings.Contains(err.Error(), "shard checkpoint, not a dataset one") {
		t.Errorf("dataset crawl over analysis checkpoints: got %v, want kind refusal", err)
	}

	crDir := filepath.Join(dir, "crawl")
	_, err = streamDataset(cfg, filepath.Join(dir, "d2.jsonl"), "", RunOptions{CheckpointDir: crDir, CheckpointEvery: 5, AbortAfter: 40})
	if !errors.Is(err, ErrAborted) {
		t.Fatal(err)
	}
	if _, err := RunStudyStream(cfg, RunOptions{CheckpointDir: crDir}); err == nil ||
		!strings.Contains(err.Error(), "dataset checkpoint, not a shard one") {
		t.Errorf("analysis over dataset checkpoints: got %v, want kind refusal", err)
	}
	if _, err := MergeShardStudy(cfg, crDir); err == nil {
		t.Error("merge-only pass accepted dataset checkpoints, want error")
	}

	// Analysis-only options have no meaning for a dataset crawl, and kept
	// cursors would outlive the parts they point into.
	for name, opts := range map[string]RunOptions{
		"Only":           {CheckpointDir: t.TempDir(), Only: []int{0}},
		"KeepShards":     {CheckpointDir: t.TempDir(), KeepShards: true},
		"Preload":        {Preload: &EpochDelta{}},
		"WriteDeltaPath": {WriteDeltaPath: filepath.Join(dir, "delta")},
	} {
		if _, err := streamDataset(cfg, filepath.Join(dir, "d3.jsonl"), "", opts); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: got %v, want refusal naming it", name, err)
		}
	}
}

// TestStreamDatasetRejectsHARBoundary: a cursor written without HAR
// capture must not resume a crawl that captures HAR, and the reverse —
// either way one side has no parts for the other's offsets.
func TestStreamDatasetRejectsHARBoundary(t *testing.T) {
	cfg := streamConfig(1, 4, "")
	for _, written := range []string{"", "hars"} {
		dir := t.TempDir()
		out, ckpt := filepath.Join(dir, "d.jsonl"), filepath.Join(dir, "ckpt")
		harDir := func(name string) string {
			if name == "" {
				return ""
			}
			return filepath.Join(dir, name)
		}
		opts := RunOptions{CheckpointDir: ckpt, CheckpointEvery: 5, AbortAfter: 40}
		if _, err := streamDataset(cfg, out, harDir(written), opts); !errors.Is(err, ErrAborted) {
			t.Fatal(err)
		}
		resumed := "hars"
		if written != "" {
			resumed = ""
		}
		_, err := streamDataset(cfg, out, harDir(resumed), RunOptions{CheckpointDir: ckpt})
		if err == nil || !strings.Contains(err.Error(), "HAR capture") || !strings.Contains(err.Error(), "refusing to resume") {
			t.Errorf("cursor with HAR capture %t resumed by a crawl with %t: got %v, want refusal",
				written != "", resumed != "", err)
		}
	}
}

// TestStreamDatasetPartRecovery covers the two resume cases of each part
// file — the JSONL part and the HAR pages and entries parts — against
// its checkpointed offset: a torn tail past the offset (an
// uncheckpointed write cut short by the kill) is cut away and the final
// dataset and archives are byte-identical; a part shorter than the
// offset lost checkpointed records, so the resume is refused with an
// error naming the file.
func TestStreamDatasetPartRecovery(t *testing.T) {
	cfg := streamConfig(3, 2, "flaky")
	ref, err := crawlThenAnalyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := writeDataset(&want, ref.Crawls); err != nil {
		t.Fatal(err)
	}
	// kill runs a crawl into a fresh directory until AbortAfter and
	// returns the chosen part of the first checkpointed shard and its
	// recorded offset.
	kill := func(t *testing.T, which string) (out, harDir, ckpt, path string, offset int64) {
		dir := t.TempDir()
		out, harDir, ckpt = filepath.Join(dir, "dataset.jsonl"), filepath.Join(dir, "hars"), filepath.Join(dir, "ckpt")
		if _, err := streamDataset(cfg, out, harDir, RunOptions{CheckpointDir: ckpt, CheckpointEvery: 7, AbortAfter: 200}); !errors.Is(err, ErrAborted) {
			t.Fatalf("got %v, want ErrAborted", err)
		}
		shards, _ := filepath.Glob(filepath.Join(ckpt, "shard-*.ckpt"))
		if len(shards) == 0 {
			t.Fatal("no shard checkpoint after the kill")
		}
		ck, err := LoadCheckpoint(shards[0])
		if err != nil {
			t.Fatal(err)
		}
		c := ck.cursor
		archive := filepath.Join(harDir, HARFileName(c.exchange))
		switch which {
		case "dataset":
			path, offset = partPath(out, c.index), c.offsets[0]
		case "pages":
			path, offset = archive+".pages", c.offsets[1]
		default:
			path, offset = archive+".entries", c.offsets[2]
		}
		if offset == 0 {
			t.Fatalf("%s part of %s checkpointed empty", which, c.exchange)
		}
		return out, harDir, ckpt, path, offset
	}

	parts := []string{"dataset", "pages", "entries"}
	t.Run("torn tail", func(t *testing.T) {
		for _, which := range parts {
			out, harDir, ckpt, path, offset := kill(t, which)
			if err := os.Truncate(path, offset); err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.WriteString(`{"torn`)
			f.Close()
			if _, err := streamDataset(cfg, out, harDir, RunOptions{CheckpointDir: ckpt}); err != nil {
				t.Fatal(err)
			}
			checkDatasetFile(t, which+" torn tail", out, ckpt, want.Bytes())
			checkHARDir(t, which+" torn tail", harDir, ref)
		}
	})
	t.Run("short part", func(t *testing.T) {
		for _, which := range parts {
			out, harDir, ckpt, path, offset := kill(t, which)
			if err := os.Truncate(path, offset-1); err != nil {
				t.Fatal(err)
			}
			_, err := streamDataset(cfg, out, harDir, RunOptions{CheckpointDir: ckpt})
			if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "refusing to resume") {
				t.Fatalf("%s: got %v, want a refusal naming %s", which, err, path)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("%s: refused resume wrote the dataset", which)
			}
			if hars, _ := filepath.Glob(filepath.Join(harDir, "*.har")); len(hars) != 0 {
				t.Errorf("%s: refused resume wrote archives: %v", which, hars)
			}
		}
	})
}

// TestStreamDatasetFailsBeforeCrawl: an output path whose part files
// cannot be created, and a checkpoint directory that is a regular file,
// fail before any exchange is crawled.
func TestStreamDatasetFailsBeforeCrawl(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		out  string
		opts RunOptions
	}{
		"unwritable out":     {filepath.Join(dir, "missing", "ds.jsonl"), RunOptions{}},
		"checkpoint is file": {filepath.Join(dir, "ds.jsonl"), RunOptions{CheckpointDir: file}},
	} {
		cfg := streamConfig(1, 2, "")
		cfg.Metrics = obs.NewRegistry()
		if _, err := streamDataset(cfg, c.out, "", c.opts); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if n := cfg.Metrics.Counter("crawl.urls").Value(); n != 0 {
			t.Errorf("%s: crawled %d URLs before failing", name, n)
		}
	}
}
