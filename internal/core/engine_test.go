package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/simrand"
	"repro/internal/testutil"
)

// streamConfig is the compact study shared by the engine tests: small
// enough to run the full invariance matrix, large enough that every
// exchange folds hundreds of records through multiple checkpoint
// intervals.
func streamConfig(seed uint64, workers int, profile string) StudyConfig {
	cfg := DefaultStudyConfig()
	cfg.Seed = seed
	cfg.Scale = 600
	cfg.MinMalPerPool = 12
	cfg.MinBenignPerPool = 18
	cfg.Workers = workers
	cfg.FaultProfile = profile
	return cfg
}

// crawlThenAnalyze is the independent oracle for the one-pass Run: the
// collection half (Study.Crawl — every exchange crawled concurrently by
// crawler.CrawlAll, with HAR capture) followed by Analyzer.Analyze over
// the kept crawls as recorded shards.
func crawlThenAnalyze(cfg StudyConfig) (*Study, error) {
	st, err := NewStudy(cfg)
	if err != nil {
		return nil, err
	}
	if err := st.Crawl(); err != nil {
		return nil, err
	}
	st.Analysis = st.Analyzer.Analyze(st.Crawls)
	return st, nil
}

// stripCacheStats clears cache traffic, which a resumed run legitimately
// under-reports (it never scans the pre-checkpoint records).
func stripCacheStats(a *Analysis) *Analysis {
	b := *a
	b.CacheStats = CacheStats{}
	return &b
}

func orName(profile string) string {
	if profile == "" {
		return "off"
	}
	return profile
}

// engineWorkers is the worker-count axis of the engine matrix.
var engineWorkers = []int{1, 2, 8}

// otherWorkers picks a worker count different from w.
func otherWorkers(rng *simrand.Source, w int) int {
	for {
		if o := engineWorkers[rng.Intn(len(engineWorkers))]; o != w {
			return o
		}
	}
}

// checkTableIV asserts a live run reproduced the reference's Table IV
// statistics exactly — visit replay is part of the contract, not an
// approximation.
func checkTableIV(t *testing.T, label string, ref, got *Study) {
	t.Helper()
	want := ref.Analysis.ShortURLStats(ref.Universe.Shorteners)
	if have := got.Analysis.ShortURLStats(got.Universe.Shorteners); !reflect.DeepEqual(want, have) {
		t.Errorf("%s: Table IV statistics differ from the reference", label)
	}
}

// TestStreamResumeDeterminism is the one engine invariance matrix. For
// seeds 1..5 and every combination of
//
//   - source: recorded crawls (Analyzer.Analyze), a live crawl
//     (Study.RunStream), or a live crawl through the dataset step
//     (Study.StreamDataset);
//   - workers: 1, 2 or 8;
//   - faults: off or flaky;
//   - run: uninterrupted, or killed at a seeded record count and resumed
//     from its shard checkpoints with a different worker count,
//
// the Analysis must be deeply equal to the reference — crawlThenAnalyze
// at one worker — with cache statistics included for uninterrupted runs
// (a resumed run never re-scans restored records). Live runs must also
// reproduce Table IV and leave no shard files behind. A dataset run's
// bytes must equal WriteDataset over the reference's crawls.
func TestStreamResumeDeterminism(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		for _, profile := range []string{"", "flaky"} {
			ref, err := crawlThenAnalyze(streamConfig(seed, 1, profile))
			if err != nil {
				t.Fatalf("seed=%d profile=%s: reference: %v", seed, orName(profile), err)
			}
			for _, workers := range engineWorkers {
				seed, profile, workers := seed, profile, workers
				t.Run(fmt.Sprintf("seed=%d/workers=%d/profile=%s", seed, workers, orName(profile)), func(t *testing.T) {
					t.Parallel()
					testutil.VerifyNoLeaks(t)
					checkEngineCases(t, ref, seed, workers, profile)
				})
			}
		}
	}
}

// checkEngineCases runs the source x run leaves of one matrix cell.
func checkEngineCases(t *testing.T, ref *Study, seed uint64, workers int, profile string) {
	cfg := streamConfig(seed, workers, profile)
	id := runIdentity{cfg.Seed, cfg.checkpointHash()}
	total := ref.Analysis.TotalCrawled
	recorded := func(w int) *Analyzer {
		an := *ref.Analyzer
		an.Workers = w
		return &an
	}
	for _, source := range []string{"recorded", "live", "dataset"} {
		for _, killed := range []bool{false, true} {
			rng := simrand.New(seed*1117 + uint64(workers)).Sub("cut:" + source + ":" + profile)
			cut := 1 + rng.Intn(total-1)
			resumeWorkers := otherWorkers(rng, workers)
			label := fmt.Sprintf("source=%s/run=uninterrupted", source)
			if killed {
				label = fmt.Sprintf("source=%s/run=killed at %d/%d, resumed with %d workers", source, cut, total, resumeWorkers)
			}
			dir := t.TempDir()
			opts := RunOptions{CheckpointDir: dir, CheckpointEvery: 13, AbortAfter: cut}
			var got *Analysis
			var live *Study
			var err error
			if source == "dataset" {
				checkDatasetCase(t, label, ref, cfg, opts, killed, resumeWorkers)
				continue
			}
			switch {
			case source == "recorded" && !killed:
				got = recorded(workers).Analyze(ref.Crawls)
			case source == "recorded":
				if _, err = recorded(workers).analyzeRecorded(ref.Crawls, opts, id); !errors.Is(err, ErrAborted) {
					t.Fatalf("%s: killed run returned %v, want ErrAborted", label, err)
				}
				opts.AbortAfter = 0
				got, err = recorded(resumeWorkers).analyzeRecorded(ref.Crawls, opts, id)
			case !killed:
				live, err = RunStudyStream(cfg, RunOptions{})
			default:
				if _, err = RunStudyStream(cfg, opts); !errors.Is(err, ErrAborted) {
					t.Fatalf("%s: killed run returned %v, want ErrAborted", label, err)
				}
				opts.AbortAfter = 0
				rcfg := cfg
				rcfg.Workers = resumeWorkers
				live, err = RunStudyStream(rcfg, opts)
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if live != nil {
				got = live.Analysis
				checkTableIV(t, label, ref, live)
			}
			want := ref.Analysis
			if killed {
				want, got = stripCacheStats(want), stripCacheStats(got)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s: Analysis differs from the reference", label)
			}
			if left, _ := filepath.Glob(filepath.Join(dir, "shard-*.ckpt")); len(left) != 0 {
				t.Errorf("%s: shard checkpoints left behind after a complete run: %v", label, left)
			}
		}
	}
}

// checkDatasetCase runs one dataset leaf of the engine matrix: a dataset
// crawl, uninterrupted or killed under opts and resumed with
// resumeWorkers, must write exactly WriteDataset(ref.Crawls).
func checkDatasetCase(t *testing.T, label string, ref *Study, cfg StudyConfig, opts RunOptions,
	killed bool, resumeWorkers int) {
	var want bytes.Buffer
	if err := WriteDataset(&want, ref.Crawls); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "dataset.jsonl")
	if !killed {
		opts = RunOptions{}
	} else {
		if _, err := streamDataset(cfg, out, opts); !errors.Is(err, ErrAborted) {
			t.Fatalf("%s: killed run returned %v, want ErrAborted", label, err)
		}
		opts.AbortAfter = 0
		cfg.Workers = resumeWorkers
	}
	res, err := streamDataset(cfg, out, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if res.Records != ref.Analysis.TotalCrawled || res.Failed != ref.Analysis.TotalFailed() {
		t.Errorf("%s: result %+v, want %d records, %d failed", label, res, ref.Analysis.TotalCrawled, ref.Analysis.TotalFailed())
	}
	checkDatasetFile(t, label, out, opts.CheckpointDir, want.Bytes())
}

// TestStreamMatchesBatch locks in the Study-level face of the engine
// against the crawlThenAnalyze oracle, for every worker count and fault
// profile: the one-pass Run and a live RunStream both produce its
// Analysis, cache totals included; Run keeps exactly the oracle's crawls
// — records, Started and Ended — but no HAR, which only Study.Crawl
// builds; RunStream keeps no crawls.
func TestStreamMatchesBatch(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	for _, profile := range []string{"", "flaky"} {
		for _, workers := range []int{1, 8} {
			label := fmt.Sprintf("workers=%d profile=%s", workers, orName(profile))
			cfg := streamConfig(3, workers, profile)
			ref, err := crawlThenAnalyze(cfg)
			if err != nil {
				t.Fatalf("%s: oracle: %v", label, err)
			}
			batch, err := RunStudy(cfg)
			if err != nil {
				t.Fatalf("%s: batch run: %v", label, err)
			}
			stream, err := RunStudyStream(cfg, RunOptions{})
			if err != nil {
				t.Fatalf("%s: stream run: %v", label, err)
			}
			if len(batch.Crawls) != len(ref.Crawls) {
				t.Fatalf("%s: batch run kept %d crawls, want %d", label, len(batch.Crawls), len(ref.Crawls))
			}
			for i, c := range batch.Crawls {
				want := *ref.Crawls[i]
				if want.HAR == nil {
					t.Errorf("%s: Study.Crawl of %s built no HAR", label, want.Exchange)
				}
				if c.HAR != nil {
					t.Errorf("%s: batch run of %s built HAR", label, c.Exchange)
				}
				want.HAR = nil
				if !reflect.DeepEqual(*c, want) {
					t.Errorf("%s: batch crawl of %s differs from Study.Crawl's", label, c.Exchange)
				}
			}
			if len(stream.Crawls) != 0 {
				t.Errorf("%s: streaming run retained %d crawls, want none", label, len(stream.Crawls))
			}
			if !reflect.DeepEqual(ref.Analysis, batch.Analysis) {
				t.Errorf("%s: batch Analysis differs from the oracle", label)
			}
			if !reflect.DeepEqual(ref.Analysis, stream.Analysis) {
				t.Errorf("%s: streaming Analysis differs from the oracle", label)
			}
		}
	}
}

// TestFleetMatchesBatch locks in the headline guarantee: live engine runs
// at worker counts other than the batch run's produce its exact Analysis
// — cache totals included — and exact Table IV statistics, for clean
// and faulty crawls.
func TestFleetMatchesBatch(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	for _, profile := range []string{"", "flaky"} {
		cfg := streamConfig(3, 0, profile)
		batch, err := RunStudy(cfg)
		if err != nil {
			t.Fatalf("batch run (profile=%s): %v", orName(profile), err)
		}
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("workers=%d profile=%s", workers, orName(profile))
			c := cfg
			c.Workers = workers
			got, err := RunStudyStream(c, RunOptions{})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !reflect.DeepEqual(batch.Analysis, got.Analysis) {
				t.Errorf("%s: Analysis differs from batch", label)
			}
			checkTableIV(t, label, batch, got)
		}
	}
}

// TestFleetInvarianceMatrix covers the distributed face of the engine:
// for seeds 1..5 and fault profiles {off, flaky}, the shards are split
// at a seeded point into two subset runs with seeded worker counts — the
// first killed once at a seeded record count and rerun — and a
// merge-only pass over the shared directory must reproduce the
// reference Analysis and Table IV.
func TestFleetInvarianceMatrix(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		for _, profile := range []string{"", "flaky"} {
			seed, profile := seed, profile
			t.Run(fmt.Sprintf("seed=%d/profile=%s", seed, orName(profile)), func(t *testing.T) {
				t.Parallel()
				testutil.VerifyNoLeaks(t)
				cfg := streamConfig(seed, 0, profile)
				ref, err := RunStudy(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rng := simrand.New(seed*7919 + 3).Sub("split:" + profile)
				n := len(ref.Exchanges)
				split := 1 + rng.Intn(n-1)
				var first, second []int
				firstRecords := 0
				for i := 0; i < n; i++ {
					if i < split {
						first = append(first, i)
						firstRecords += ref.Steps[i]
					} else {
						second = append(second, i)
					}
				}
				dir := t.TempDir()
				subset := func(only []int, abortAfter int) error {
					c := cfg
					c.Workers = engineWorkers[rng.Intn(len(engineWorkers))]
					return runSubset(t, c, RunOptions{
						CheckpointDir: dir, CheckpointEvery: 13, Only: only, AbortAfter: abortAfter,
					})
				}
				cut := 1 + rng.Intn(firstRecords-1)
				if err := subset(first, cut); !errors.Is(err, ErrAborted) {
					t.Fatalf("killed subset %v at %d: got %v, want ErrAborted", first, cut, err)
				}
				for _, only := range [][]int{first, second} {
					if err := subset(only, 0); err != nil {
						t.Fatalf("subset %v: %v", only, err)
					}
				}
				got, err := MergeShardStudy(cfg, dir)
				if err != nil {
					t.Fatalf("merge: %v", err)
				}
				label := fmt.Sprintf("split %v|%v, first killed at %d", first, second, cut)
				if !reflect.DeepEqual(stripCacheStats(ref.Analysis), got.Analysis) {
					t.Errorf("%s: merged Analysis differs from the reference", label)
				}
				checkTableIV(t, label, ref, got)
			})
		}
	}
}

// runSubset builds a study for cfg and runs it over a shard subset.
func runSubset(t *testing.T, cfg StudyConfig, opts RunOptions) error {
	t.Helper()
	st, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.RunStream(opts); err != nil {
		return err
	}
	if st.Analysis != nil {
		t.Errorf("subset run %v produced an Analysis", opts.Only)
	}
	return nil
}

// TestFleetDoubleKill kills a checkpointed run twice — different worker
// counts each time, the second kill landing inside the resumed run —
// before letting a third invocation finish. Per-shard checkpoint state
// must compose.
func TestFleetDoubleKill(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := streamConfig(4, 4, "flaky")
	ref, err := RunStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := ref.Analysis.TotalCrawled
	dir := t.TempDir()
	const every = 11
	run := func(workers, abortAfter int) (*Study, error) {
		c := cfg
		c.Workers = workers
		return RunStudyStream(c, RunOptions{CheckpointDir: dir, CheckpointEvery: every, AbortAfter: abortAfter})
	}
	if _, err := run(4, total/3); !errors.Is(err, ErrAborted) {
		t.Fatalf("first kill: got %v, want ErrAborted", err)
	}
	if _, err := run(2, total/4); !errors.Is(err, ErrAborted) {
		t.Fatalf("second kill: got %v, want ErrAborted", err)
	}
	got, err := run(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripCacheStats(ref.Analysis), stripCacheStats(got.Analysis)) {
		t.Error("double kill + resume: Analysis differs from the uninterrupted run")
	}
	checkTableIV(t, "double kill", ref, got)
}

// TestFleetDistributedSubsets covers the multi-invocation workflow: two
// separate processes cover disjoint shard subsets into a shared
// directory, and a merge-only pass — no crawling — reconstructs the
// reference report, Table IV included.
func TestFleetDistributedSubsets(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := streamConfig(2, 0, "flaky")
	ref, err := RunStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(ref.Exchanges)
	dir := t.TempDir()
	var first, second []int
	for i := 0; i < n; i++ {
		if i < n/2 {
			first = append(first, i)
		} else {
			second = append(second, i)
		}
	}
	for _, only := range [][]int{first, second} {
		if _, err := RunStudyStream(cfg, RunOptions{CheckpointDir: dir, Only: only}); err != nil {
			t.Fatalf("subset %v: %v", only, err)
		}
	}
	got, err := MergeShardStudy(cfg, dir)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if !reflect.DeepEqual(stripCacheStats(ref.Analysis), got.Analysis) {
		t.Error("distributed subsets: merged Analysis differs from the reference")
	}
	checkTableIV(t, "distributed subsets", ref, got)
}

// TestShardMergeOrderInvariance merges the same complete shard set in
// several randomized orders; every permutation must produce a deeply
// equal Analysis (the byte-level form of this property is FuzzShardMerge).
func TestShardMergeOrderInvariance(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := streamConfig(5, 4, "flaky")
	dir := t.TempDir()
	st, err := RunStudyStream(cfg, RunOptions{CheckpointDir: dir, KeepShards: true})
	if err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "shard-*.ckpt"))
	if err != nil || len(paths) != len(st.Exchanges) {
		t.Fatalf("want %d kept shard files, got %d (err %v)", len(st.Exchanges), len(paths), err)
	}
	cks := make([]*Checkpoint, len(paths))
	for i, p := range paths {
		if cks[i], err = LoadCheckpoint(p); err != nil {
			t.Fatalf("load %s: %v", p, err)
		}
	}
	rng := simrand.New(99).Sub("merge-order")
	var want *Analysis
	for trial := 0; trial < 5; trial++ {
		order := rng.Perm(len(cks))
		m := NewShardMerger()
		for _, i := range order {
			if err := m.Add(cks[i]); err != nil {
				t.Fatalf("trial %d: add shard %d: %v", trial, i, err)
			}
		}
		if !m.Complete() {
			t.Fatalf("trial %d: merger incomplete after adding every shard", trial)
		}
		a, err := m.Analysis()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if want == nil {
			want = a
			continue
		}
		if !reflect.DeepEqual(want, a) {
			t.Errorf("trial %d: merge order %v produced a different Analysis", trial, order)
		}
	}
	if !reflect.DeepEqual(stripCacheStats(st.Analysis), want) {
		t.Error("re-merged Analysis differs from the run's own merge")
	}
}

// TestStreamResumeRejectsMismatchedConfig ensures shard checkpoints can
// never silently resume under a different seed or study shape, while a
// different worker count resumes cleanly.
func TestStreamResumeRejectsMismatchedConfig(t *testing.T) {
	cfg := streamConfig(1, 4, "")
	dir := t.TempDir()
	_, err := RunStudyStream(cfg, RunOptions{CheckpointDir: dir, CheckpointEvery: 5, AbortAfter: 40})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("aborted run: got %v, want ErrAborted", err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "shard-*.ckpt")); len(files) == 0 {
		t.Fatal("no shard checkpoints on disk after the kill")
	}

	wrongSeed := cfg
	wrongSeed.Seed = 2
	if _, err := RunStudyStream(wrongSeed, RunOptions{CheckpointDir: dir}); err == nil {
		t.Error("resume under a different seed succeeded, want error")
	}
	wrongScale := cfg
	wrongScale.Scale = 500
	if _, err := RunStudyStream(wrongScale, RunOptions{CheckpointDir: dir}); err == nil {
		t.Error("resume under a different scale succeeded, want error")
	}
	// Worker count is deliberately NOT part of the config hash: output is
	// worker-count-invariant, so an operator may resume on different
	// hardware.
	moreWorkers := cfg
	moreWorkers.Workers = 8
	if _, err := RunStudyStream(moreWorkers, RunOptions{CheckpointDir: dir}); err != nil {
		t.Errorf("resume under a different worker count failed: %v", err)
	}
}

// TestFleetRejectsMismatches locks the merge refusal paths — shard files
// must never merge under a different seed, from a killed run, or from an
// empty directory — and the option plumbing's unusable combinations.
func TestFleetRejectsMismatches(t *testing.T) {
	cfg := streamConfig(1, 4, "")
	dir := t.TempDir()
	_, err := RunStudyStream(cfg, RunOptions{CheckpointDir: dir, CheckpointEvery: 5, AbortAfter: 40})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("aborted run: got %v, want ErrAborted", err)
	}
	wrongSeed := cfg
	wrongSeed.Seed = 2
	if _, err := MergeShardStudy(wrongSeed, dir); err == nil {
		t.Error("merge under a different seed succeeded, want error")
	}
	if _, err := MergeShardStudy(cfg, dir); err == nil {
		t.Error("merge of partial (killed mid-run) shards succeeded, want error")
	}
	if _, err := MergeShardStudy(cfg, t.TempDir()); err == nil {
		t.Error("merge of an empty directory succeeded, want error")
	}

	// Option plumbing.
	if _, err := RunStudyStream(cfg, RunOptions{Only: []int{0}}); err == nil {
		t.Error("subset run without a checkpoint dir succeeded, want error")
	}
	if _, err := RunStudyStream(cfg, RunOptions{CheckpointDir: t.TempDir(), Only: []int{0, 0}}); err == nil {
		t.Error("duplicate shard index accepted, want error")
	}
	if _, err := RunStudyStream(cfg, RunOptions{CheckpointDir: t.TempDir(), Only: []int{99}}); err == nil {
		t.Error("out-of-range shard index accepted, want error")
	}
}

// TestFleetResumeFreshWhenNoCheckpoints: a checkpoint directory with
// nothing in it is a fresh start, so the same invocation serves the
// first run and every rerun.
func TestFleetResumeFreshWhenNoCheckpoints(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := streamConfig(3, 2, "")
	ref, err := RunStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunStudyStream(cfg, RunOptions{CheckpointDir: filepath.Join(t.TempDir(), "new")})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Analysis, got.Analysis) {
		t.Error("run over an empty checkpoint dir differs from the reference")
	}
}

// TestFleetShardFilesSurviveKeep checks KeepShards leaves one valid,
// complete shard checkpoint per exchange.
func TestFleetShardFilesSurviveKeep(t *testing.T) {
	cfg := streamConfig(1, 4, "")
	dir := t.TempDir()
	st, err := RunStudyStream(cfg, RunOptions{CheckpointDir: dir, KeepShards: true})
	if err != nil {
		t.Fatal(err)
	}
	id := runIdentity{cfg.Seed, cfg.checkpointHash()}
	for i, ex := range st.Exchanges {
		ck, err := LoadCheckpoint(ShardPath(dir, i))
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if ck.KindName() != "shard" {
			t.Errorf("shard %d: kind %s, want shard", i, ck.KindName())
		}
		if got, want := ck.shard.folded(), st.Steps[i]; got != want {
			t.Errorf("shard %d: %d records, want %d", i, got, want)
		}
		sr := newShardRun(nil, i, ex.Config().Name, ex.Config().Kind, st.Steps[i])
		if err := validateShard(ck, sr, len(st.Exchanges), id); err != nil {
			t.Errorf("shard %d: %v", i, err)
		}
	}
	if _, err := os.Stat(ShardPath(dir, 0)); err != nil {
		t.Fatal(err)
	}
}
