package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/crawler"
	"repro/internal/exchange"
	"repro/internal/har"
	"repro/internal/httpsim"
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

// reference is the oracle's run: the study with its kept crawls and
// Analysis, and each exchange's HAR archive — har.Encode of its whole
// log — by file name.
type reference struct {
	*Study
	archives map[string][]byte
}

// crawlThenAnalyze is the independent oracle for every engine run: the
// collection half outside the engine — each exchange crawled in turn with
// its crawler.ExchangeOptions, its records kept and its HAR built as one
// log (crawlWithHAR) — followed by Analyzer.Analyze over the kept crawls
// as recorded shards.
func crawlThenAnalyze(cfg StudyConfig) (*reference, error) {
	st, err := NewStudy(cfg)
	if err != nil {
		return nil, err
	}
	if st.Config.DriveShortenerTraffic {
		st.driveShortenerTraffic()
	}
	ref := &reference{Study: st, archives: map[string][]byte{}}
	transport := st.transportOver(st.Universe.Internet)
	for i, ex := range st.Exchanges {
		c, l, err := crawlWithHAR(ex, transport, crawler.ExchangeOptions(st.crawlOptions(), i, st.Steps[i]))
		if err != nil {
			return nil, err
		}
		var archive bytes.Buffer
		if err := har.Encode(&archive, l); err != nil {
			return nil, err
		}
		st.Crawls = append(st.Crawls, c)
		ref.archives[HARFileName(c.Exchange)] = archive.Bytes()
	}
	st.Analysis = st.Analyzer.Analyze(st.Crawls)
	return ref, nil
}

// crawlWithHAR crawls one exchange, keeping a copy of every record and
// building the whole capture as one har.Log with the per-record functions
// the dataset step shares: a page, and an entry per hop, for every
// successful fetch.
func crawlWithHAR(ex *exchange.Exchange, transport httpsim.RoundTripper, opts crawler.Options) (*crawler.Crawl, *har.Log, error) {
	c := &crawler.Crawl{Exchange: ex.Config().Name, Kind: ex.Config().Kind}
	l := har.NewLog()
	started, ended, err := crawler.CrawlExchangeStream(ex, transport, opts,
		func(rec *crawler.Record, res *httpsim.Result, pageClock time.Time) error {
			c.Records = append(c.Records, *rec)
			if rec.FetchErr == "" {
				p := har.NewPage(len(l.Pages)+1, rec.EntryURL, pageClock)
				l.Pages = append(l.Pages, p)
				l.Entries = har.AppendResult(l.Entries, p.ID, crawler.BrowserUA, pageClock, res)
			}
			return nil
		})
	c.Started, c.Ended = started, ended
	return c, l, err
}

// checkHARDir asserts dir holds exactly the reference's archives,
// byte for byte, and nothing else — no part file or temp file survived
// the completed crawl.
func checkHARDir(t *testing.T, label, dir string, ref *reference) {
	t.Helper()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	seen := map[string]bool{}
	for _, f := range files {
		w, ok := ref.archives[f.Name()]
		if !ok {
			t.Errorf("%s: unexpected file %s in the HAR directory", label, f.Name())
			continue
		}
		seen[f.Name()] = true
		got, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !bytes.Equal(w, got) {
			t.Errorf("%s: %s differs from har.Encode of the oracle's log (want %d bytes, got %d)", label, f.Name(), len(w), len(got))
		}
	}
	for name := range ref.archives {
		if !seen[name] {
			t.Errorf("%s: archive %s missing", label, name)
		}
	}
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
//     (Study.RunStream), or a live crawl through the dataset step with
//     HAR capture (Study.StreamDataset);
//   - workers: 1, 2 or 8;
//   - faults: off or flaky;
//   - run: uninterrupted, or killed at a seeded record count and resumed
//     from its shard checkpoints with a different worker count,
//
// the Analysis must be deeply equal to the reference — crawlThenAnalyze
// at one worker — with cache statistics included for uninterrupted runs
// (a resumed run never re-scans restored records). Live runs must also
// reproduce Table IV and leave no shard files behind. A dataset run's
// bytes must equal writeDataset over the reference's crawls, and each
// of its HAR archives har.Encode of the reference's log.
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
func checkEngineCases(t *testing.T, ref *reference, seed uint64, workers int, profile string) {
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
				checkTableIV(t, label, ref.Study, live)
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
// crawl with HAR capture, uninterrupted or killed under opts and resumed
// with resumeWorkers, must write exactly writeDataset(ref.Crawls) and
// the reference's HAR archives.
func checkDatasetCase(t *testing.T, label string, ref *reference, cfg StudyConfig, opts RunOptions,
	killed bool, resumeWorkers int) {
	var want bytes.Buffer
	if err := writeDataset(&want, ref.Crawls); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	out, harDir := filepath.Join(dir, "dataset.jsonl"), filepath.Join(dir, "hars")
	if !killed {
		opts = RunOptions{}
	} else {
		if _, err := streamDataset(cfg, out, harDir, opts); !errors.Is(err, ErrAborted) {
			t.Fatalf("%s: killed run returned %v, want ErrAborted", label, err)
		}
		opts.AbortAfter = 0
		cfg.Workers = resumeWorkers
	}
	res, err := streamDataset(cfg, out, harDir, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if res.Records != ref.Analysis.TotalCrawled || res.Failed != ref.Analysis.TotalFailed() {
		t.Errorf("%s: result %+v, want %d records, %d failed", label, res, ref.Analysis.TotalCrawled, ref.Analysis.TotalFailed())
	}
	checkDatasetFile(t, label, out, opts.CheckpointDir, want.Bytes())
	checkHARDir(t, label, harDir, ref)
}

// TestStreamMatchesBatch locks in the Study-level face of the engine
// against the crawlThenAnalyze oracle, for every worker count and fault
// profile: the one-pass Run and a live RunStream both produce its
// Analysis, cache totals included; Run keeps exactly the oracle's crawls
// — records, Started and Ended; RunStream keeps no crawls.
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
			batch, err := runStudy(cfg)
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
				if !reflect.DeepEqual(c, ref.Crawls[i]) {
					t.Errorf("%s: batch crawl of %s differs from the oracle's", label, c.Exchange)
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
		batch, err := runStudy(cfg)
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
				ref, err := runStudy(cfg)
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
	ref, err := runStudy(cfg)
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
	ref, err := runStudy(cfg)
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
		order := make([]int, len(cks))
		for i := range order {
			order[i] = i
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		m := NewShardMerger()
		for _, i := range order {
			if err := m.Add(cks[i]); err != nil {
				t.Fatalf("trial %d: add shard %d: %v", trial, i, err)
			}
		}
		if msg := m.incomplete(); msg != "" {
			t.Fatalf("trial %d: merger incomplete after adding every shard: %s", trial, msg)
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
	ref, err := runStudy(cfg)
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
