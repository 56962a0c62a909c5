package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crawler"
	"repro/internal/exchange"
	"repro/internal/httpsim"
)

// The study engine. Every path that turns records into an Analysis —
// Study.Run and Study.RunStream (a live crawl), Analyzer.Analyze
// (recorded crawls, so slumscan), and the longitudinal runner (one engine
// run per epoch) — and the dataset crawl (Study.StreamDataset) partition the
// work by exchange: shard i is exchange i's record stream, crawled or
// replayed by one of W worker goroutines pulling shards off a shared
// queue. The queue is ordered longest-plan-first, so a straggler shard
// starts as early as possible and a worker that finishes a short shard
// immediately takes the next one. Each record then goes through the
// run's per-record step: an analysis run scans it through one shared
// single-flight verdict cache (so hit/miss totals are deterministic) and
// folds it; a dataset crawl encodes it as a JSONL line and appends it to
// the shard's part file. With a checkpoint directory each shard
// periodically persists its own SLUMCKPT file — kind 3 for a fold, kind
// 2 for a part-file cursor — so a run can be killed anywhere and a later
// invocation, with any worker count, resumes every shard from its last
// durable prefix. Finished analysis shards merge through the snapshot
// algebra in shard.go into an Analysis that is identical for every worker
// count, kill point and record source; finished dataset parts join in
// exchange order. DESIGN.md states the full contract.

// ErrAborted reports that a run was stopped by RunOptions.AbortAfter —
// the deterministic stand-in for a kill signal used by the kill/resume
// tests and the CI smoke jobs. The state on disk is whatever periodic
// shard checkpoints were last atomically written, exactly as after a
// real SIGKILL.
var ErrAborted = errors.New("core: run aborted")

// errStopped unwinds the shard workers once the run has decided to stop
// (abort, or a sibling shard's failure); it never escapes the engine.
var errStopped = errors.New("core: run stopped")

// RunOptions tunes one engine run of a study (Study.RunStream,
// Study.StreamDataset).
type RunOptions struct {
	// CheckpointDir, when non-empty, enables per-shard checkpointing:
	// every CheckpointEvery records a shard rewrites its checkpoint at
	// ShardPath(CheckpointDir, i), and a completed shard
	// always persists its final state before the merge. Shard files
	// already in the directory are always resumed (missing files start
	// fresh), so the same invocation serves a first run and every rerun
	// after a kill. The files are removed after a successful full run
	// unless KeepShards is set, so a checkpoint exists exactly while a
	// run is resumable.
	CheckpointDir string
	// CheckpointEvery is the per-shard fold-count interval between
	// checkpoint writes; <= 0 means 5000.
	CheckpointEvery int
	// AbortAfter, when > 0, simulates a kill: the run stops with
	// ErrAborted once this process has folded that many records across
	// all shards while records remain, without writing a final
	// checkpoint. A run with no more records than that completes
	// normally. Testing hook; 0 disables.
	AbortAfter int
	// Only restricts the run to these shard indices — distributed mode,
	// where separate invocations cover disjoint subsets and a merge-only
	// pass (MergeShardStudy) folds the shard files into the report.
	// Requires CheckpointDir; no Analysis is produced and the shard files
	// are always kept.
	Only []int
	// KeepShards leaves completed shard checkpoints on disk after a
	// successful full run.
	KeepShards bool
	// Preload, when set, seeds the verdict cache from a prior epoch's
	// delta (see ValidateDelta for the provenance checks the caller must
	// run first). The intel gate is enforced here: entries are seeded
	// only when the delta's IntelHash matches this study universe's
	// IntelFingerprint — a shifted feed rebuilds every engine's
	// signature subset, so on mismatch the run falls back to scanning
	// everything, which is slower but always identical. Ignored when the
	// cache is disabled.
	Preload *EpochDelta
	// WriteDeltaPath, when non-empty, writes a kind-4 epoch delta for
	// this study's epoch after a successful full run, ready for the next
	// epoch's Preload. Requires the verdict cache.
	WriteDeltaPath string
}

// ShardPath returns shard index i's checkpoint filename under dir.
func ShardPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d.ckpt", i))
}

// shardRun is one shard's in-flight state. Ownership passes from the
// coordinator to exactly one worker goroutine via the queue channel, so
// no field needs locking.
type shardRun struct {
	idx     int // exchange / shard index
	name    string
	planned int // the shard's total record count
	// The per-record step: an analysis shard folds into fold, a dataset
	// shard appends to part. Exactly one is set.
	fold *foldState
	part *datasetPart
	// visits records the shortener traffic a live crawl drives (see
	// shardVisitRecorder); recorded sources leave it empty.
	visits  map[string]*shardVisit
	startAt int // records [0, startAt) are restored, replayed, not stepped
	seen    int // records delivered by the source so far
	folded  int // records stepped (folded or written) by this process
}

func newShardRun(an *Analyzer, idx int, name string, kind exchange.Kind, planned int) *shardRun {
	return &shardRun{
		idx: idx, name: name, planned: planned,
		fold:   newFoldState(an, []string{name}, []exchange.Kind{kind}),
		visits: map[string]*shardVisit{},
	}
}

func (sr *shardRun) snapshot(nShards int) *shardSnapshot {
	return &shardSnapshot{
		shardSlot: sr.slot(nShards),
		fold:      sr.fold.snapshot(),
		visits:    sr.visits,
	}
}

func (sr *shardRun) slot(nShards int) shardSlot {
	return shardSlot{index: sr.idx, shards: nShards, planned: sr.planned}
}

// shardSource delivers one shard's records, in order, to sink, stopping
// at the first error sink returns. A live source hands over each fetch
// result and page clock with its record; a recorded one passes nil.
type shardSource func(sr *shardRun, sink crawler.Sink) error

// runIdentity is the provenance stamped into, and checked against, every
// shard checkpoint of a run.
type runIdentity struct {
	seed, cfgHash uint64
}

// engine is one run's shared state across its shard workers.
type engine struct {
	an    *Analyzer
	cache *ShardedVerdictCache // nil when caching is disabled
	// keys memoizes the cache keys of the records this run scans.
	keys    keyMemo
	opts    RunOptions
	id      runIdentity
	runs    []*shardRun
	nShards int
	every   int
	// toFold is the number of records this run steps if it completes;
	// AbortAfter only fires while some remain.
	toFold   int64
	folded   atomic.Int64
	aborted  atomic.Bool
	stopC    chan struct{}
	stopOnce sync.Once
}

// stop tells every shard worker to wind down at its next record.
func (e *engine) stop() { e.stopOnce.Do(func() { close(e.stopC) }) }

// runEngine executes the engine over runs — any subset of an nShards
// partition — and, when runs cover the whole partition, returns their
// merged Analysis; a subset run returns nil after persisting its shard
// files. cache may be nil (caching disabled).
func (an *Analyzer) runEngine(runs []*shardRun, nShards int, src shardSource, cache *ShardedVerdictCache,
	opts RunOptions, id runIdentity) (*Analysis, error) {
	e, err := an.newEngine(runs, nShards, cache, opts, id)
	if err != nil {
		return nil, err
	}
	if err := e.execute(src); err != nil {
		return nil, err
	}
	if len(runs) != nShards {
		return nil, nil
	}

	snaps := make([]*shardSnapshot, len(runs))
	for i, sr := range runs {
		snaps[i] = sr.snapshot(nShards)
	}
	fs, err := mergeFold(snaps)
	if err != nil {
		return nil, err
	}
	cstats := CacheStats{}
	if cache != nil {
		s := cache.Stats()
		cstats = CacheStats{Hits: int(s.Hits), Misses: int(s.Misses)}
	}
	an.Metrics.Counter("pipeline.cache.hits").Add(int64(cstats.Hits))
	an.Metrics.Counter("pipeline.cache.misses").Add(int64(cstats.Misses))
	e.removeShards()
	return fs.finish(cstats), nil
}

// newEngine prepares a run over runs — any subset of an nShards
// partition: it creates the checkpoint directory and resumes every shard
// that has a checkpoint there. Nothing is crawled or read yet, so a bad
// directory fails before any work.
func (an *Analyzer) newEngine(runs []*shardRun, nShards int, cache *ShardedVerdictCache,
	opts RunOptions, id runIdentity) (*engine, error) {
	dir := opts.CheckpointDir
	if len(runs) != nShards && dir == "" {
		return nil, fmt.Errorf("core: a shard-subset run needs a checkpoint dir — its shard files are the output")
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("core: checkpoint dir: %w", err)
		}
		if err := resumeShards(runs, nShards, dir, id); err != nil {
			return nil, err
		}
	}
	e := &engine{an: an, cache: cache, opts: opts, id: id, runs: runs, nShards: nShards,
		every: opts.CheckpointEvery, stopC: make(chan struct{})}
	if e.every <= 0 {
		e.every = 5000
	}
	resumed := 0
	for _, sr := range runs {
		resumed += sr.startAt
		e.toFold += int64(sr.planned - sr.startAt)
	}
	an.Metrics.Counter("pipeline.checkpoint.resumed_records").Add(int64(resumed))
	return e, nil
}

// execute runs every shard through its source and the per-record step
// on W workers, and returns once all are complete or the run stopped:
// ErrAborted after AbortAfter, otherwise the first shard failure.
func (e *engine) execute(src shardSource) error {
	an := e.an
	workers := an.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	an.Metrics.Gauge("pipeline.workers.configured").Set(int64(workers))
	an.Metrics.Gauge("pipeline.shards").Set(int64(len(e.runs)))

	// Longest-plan-first: the biggest shard is claimed first, so the
	// wall clock approaches max(longest shard, total/W) instead of
	// whatever an arbitrary order leaves for last.
	order := append([]*shardRun(nil), e.runs...)
	sort.SliceStable(order, func(a, b int) bool {
		if order[a].planned != order[b].planned {
			return order[a].planned > order[b].planned
		}
		return order[a].idx < order[b].idx
	})
	queue := make(chan *shardRun, len(order))
	for _, sr := range order {
		queue <- sr
	}
	close(queue)

	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sr := range queue {
				select {
				case <-e.stopC:
					// Stopping: drain without starting new shards (their
					// checkpoints, if any, are untouched and resume cleanly).
					continue
				default:
				}
				if err := e.runShard(sr, src); err != nil && !errors.Is(err, errStopped) {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	e.stop()

	if firstErr != nil {
		return firstErr
	}
	if e.aborted.Load() {
		return fmt.Errorf("%w after %d records (checkpoints: %s)", ErrAborted, e.folded.Load(), e.opts.CheckpointDir)
	}
	return nil
}

// removeShards deletes a complete run's shard checkpoints, unless
// KeepShards: shard files exist exactly while a run is interrupted and
// resumable.
func (e *engine) removeShards() {
	if e.opts.CheckpointDir == "" || e.opts.KeepShards {
		return
	}
	for _, sr := range e.runs {
		os.Remove(ShardPath(e.opts.CheckpointDir, sr.idx))
	}
}

// resumeShards restores every shard that has a checkpoint under dir.
func resumeShards(runs []*shardRun, nShards int, dir string, id runIdentity) error {
	for _, sr := range runs {
		ck, err := LoadCheckpoint(ShardPath(dir, sr.idx))
		switch {
		case errors.Is(err, os.ErrNotExist):
			continue // no checkpoint for this shard: start it fresh
		case err != nil:
			return err
		}
		if err := validateShard(ck, sr, nShards, id); err != nil {
			return err
		}
		if sr.part != nil {
			sr.part.restore(ck.cursor)
			sr.startAt = ck.cursor.records
			continue
		}
		if err := sr.fold.restore(ck.shard.fold); err != nil {
			return err
		}
		// Visits deliberately start empty: the restored fold already
		// reflects the covered records, but their shortener traffic is
		// regenerated exactly by the deterministic fetch replay —
		// restoring the recorded deltas too would double-count every hit.
		sr.startAt = ck.shard.folded()
	}
	return nil
}

// validateShard checks a loaded checkpoint against the run and the shard
// slot it is about to resume: its kind must match the run's per-record
// step, a dataset cursor's HAR capture the crawl's, and its seed,
// configuration, slot and exchange the run's.
func validateShard(ck *Checkpoint, sr *shardRun, nShards int, id runIdentity) error {
	want := ckptShard
	if sr.part != nil {
		want = ckptDataset
	}
	if ck.kind != want {
		return fmt.Errorf("core: %s is a %s checkpoint, not a %s one", ShardPath("", sr.idx), ck.kind, want)
	}
	if want == ckptDataset && len(ck.cursor.offsets) != len(sr.part.parts) {
		return fmt.Errorf("core: shard %d cursor has HAR capture %t, this crawl %t — refusing to resume",
			sr.idx, len(ck.cursor.offsets) > 1, len(sr.part.parts) > 1)
	}
	if ck.Seed != id.seed {
		return fmt.Errorf("core: shard %d checkpoint was taken under seed %d, not %d — refusing to resume", sr.idx, ck.Seed, id.seed)
	}
	if ck.ConfigHash != id.cfgHash {
		return fmt.Errorf("core: shard %d checkpoint config hash %016x does not match current configuration %016x "+
			"(scale/pools/faults/retries/epochs must match the original run) — refusing to resume", sr.idx, ck.ConfigHash, id.cfgHash)
	}
	var (
		s    shardSlot
		name string
	)
	if want == ckptDataset {
		s, name = ck.cursor.shardSlot, ck.cursor.exchange
	} else {
		s, name = ck.shard.shardSlot, ck.shard.name()
	}
	if s.index != sr.idx {
		return fmt.Errorf("core: shard file for index %d claims index %d", sr.idx, s.index)
	}
	if s.shards != nShards {
		return fmt.Errorf("core: shard %d belongs to a %d-shard partition, run has %d", sr.idx, s.shards, nShards)
	}
	if name != sr.name {
		return fmt.Errorf("core: shard %d is exchange %q, run has %q", sr.idx, name, sr.name)
	}
	if s.planned != sr.planned {
		return fmt.Errorf("core: shard %d plans %d records, run plans %d", sr.idx, s.planned, sr.planned)
	}
	return nil
}

// runShard executes one shard's pipeline on the calling worker: pull its
// records from the source, put each through the per-record step (step),
// and checkpoint periodically. Returns errStopped when the run-wide stop
// fired (abort or a sibling's failure) — never a shard-local error
// disguised as one.
func (e *engine) runShard(sr *shardRun, src shardSource) error {
	an := e.an
	counters := newRecordCounters(an.Metrics)
	var stepErr error
	fail := func(err error) error {
		stepErr = err
		e.stop()
		return errStopped
	}
	sink := func(rec *crawler.Record, res *httpsim.Result, pageClock time.Time) error {
		select {
		case <-e.stopC:
			return errStopped
		default:
		}
		pos := sr.seen
		sr.seen++
		if pos < sr.startAt {
			// Covered by the restored checkpoint: replayed (a live crawl
			// still fetches it, keeping the virtual clock and the
			// shortener counters exact) but never stepped again.
			an.Metrics.Counter("pipeline.skipped").Inc()
			return nil
		}
		if err := e.step(sr, rec, res, pageClock, counters); err != nil {
			return fail(err)
		}
		sr.folded++
		counters.records.Inc()
		total := e.folded.Add(1)
		if e.opts.CheckpointDir != "" && (sr.startAt+sr.folded)%e.every == 0 {
			if err := e.writeShard(sr); err != nil {
				return fail(err)
			}
			an.Metrics.Counter("pipeline.checkpoint.writes").Inc()
		}
		if e.opts.AbortAfter > 0 && total >= int64(e.opts.AbortAfter) && total < e.toFold {
			e.aborted.Store(true)
			e.stop()
			return errStopped
		}
		return nil
	}
	err := src(sr, sink)
	if stepErr != nil {
		return stepErr
	}
	if err != nil {
		if errors.Is(err, errStopped) {
			return errStopped
		}
		return fmt.Errorf("core: shard %s: %w", sr.name, err)
	}
	if sr.startAt+sr.folded != sr.planned {
		return fmt.Errorf("core: shard %s delivered %d records, planned %d", sr.name, sr.startAt+sr.folded, sr.planned)
	}
	// Shard complete: persist the final state so a merge-only pass —
	// possibly in another process — can consume it.
	if e.opts.CheckpointDir != "" {
		return e.writeShard(sr)
	}
	return nil
}

// step is the per-record work of the run: scan→fold for an analysis
// shard, encode→append for a dataset shard (res and pageClock feed its
// HAR capture).
func (e *engine) step(sr *shardRun, rec *crawler.Record, res *httpsim.Result, pageClock time.Time,
	counters *recordCounters) error {
	if sr.part != nil {
		return sr.part.append(rec, res, pageClock)
	}
	o := e.an.scanOne(e.cache, &e.keys, sr.name, rec)
	counters.classified[o.class].Inc()
	sr.fold.fold(0, rec, o)
	return nil
}

// writeShard atomically persists a shard's current state: a fold
// snapshot (kind 3), or a dataset cursor (kind 2) once the part files
// are synced, so no recorded offset points past its part's durable
// length.
func (e *engine) writeShard(sr *shardRun) error {
	path := ShardPath(e.opts.CheckpointDir, sr.idx)
	if sr.part == nil {
		return writeCheckpointFile(path, ckptShard, e.id.seed, e.id.cfgHash, encodeShardPayload(sr.snapshot(e.nShards)))
	}
	for _, q := range sr.part.parts {
		if err := q.f.Sync(); err != nil {
			return fmt.Errorf("core: sync %s: %w", q.path, err)
		}
	}
	return writeCheckpointFile(path, ckptDataset, e.id.seed, e.id.cfgHash, encodeCursorPayload(sr.cursor(e.nShards)))
}

// newCache returns the run-scoped verdict cache, or nil when disabled:
// one stripe whose capacity covers every record runs can step plus the
// preload's verdicts. Each record creates at most one entry, so nothing
// is ever evicted and CacheStats stay exact.
func (an *Analyzer) newCache(runs []*shardRun, preload *EpochDelta) *ShardedVerdictCache {
	if an.DisableCache {
		return nil
	}
	capacity := 0
	if preload != nil {
		capacity = len(preload.Verdicts)
	}
	for _, sr := range runs {
		capacity += sr.planned
	}
	return NewShardedVerdictCache(ShardedCacheConfig{Shards: 1, Capacity: capacity})
}

// Analyze runs the engine over recorded crawls, one shard per crawl, and
// returns the full Analysis. It is identical for every worker count and
// cache setting, and identical to a live run that produced the same
// records.
func (an *Analyzer) Analyze(crawls []*crawler.Crawl) *Analysis {
	a, err := an.analyzeRecorded(crawls, RunOptions{}, runIdentity{})
	if err != nil {
		// Without checkpoints, abort or a shard subset, nothing in the
		// engine can fail over recorded records.
		panic(err)
	}
	return a
}

// analyzeRecorded is Analyze with engine options: the recorded source
// for every shard.
func (an *Analyzer) analyzeRecorded(crawls []*crawler.Crawl, opts RunOptions, id runIdentity) (*Analysis, error) {
	runs := make([]*shardRun, len(crawls))
	for i, c := range crawls {
		runs[i] = newShardRun(an, i, c.Exchange, c.Kind, len(c.Records))
	}
	src := func(sr *shardRun, sink crawler.Sink) error {
		recs := crawls[sr.idx].Records
		for i := range recs {
			if err := sink(&recs[i], nil, time.Time{}); err != nil {
				return err
			}
		}
		return nil
	}
	return an.runEngine(runs, len(runs), src, an.newCache(runs, nil), opts, id)
}

// RunStream executes the study as one engine run over a live crawl:
// each shard crawls its exchange session (crawler.CrawlExchangeStream)
// and scans and folds every record as it arrives. Nothing accumulates
// per record — no record slices, no HAR — so peak memory is O(workers +
// aggregate state), not O(URLs), and st.Crawls stays empty. On success
// with a full scope, st.Analysis is identical to Study.Run's, except
// that a resumed run's CacheStats cover only this process's scans.
func (st *Study) RunStream(opts RunOptions) error { return st.runLive(opts, false) }

// runLive is the one live engine run behind Run and RunStream. With keep
// set, every shard's source also appends its records to st.Crawls.
func (st *Study) runLive(opts RunOptions, keep bool) error {
	an := st.Analyzer
	names, kinds := st.exchangeNamesKinds()
	scope, err := shardScope(opts.Only, len(names))
	if err != nil {
		return err
	}
	runs := make([]*shardRun, len(scope))
	for p, i := range scope {
		runs[p] = newShardRun(an, i, names[i], kinds[i], st.Steps[i])
	}

	cache := an.newCache(runs, opts.Preload)
	if opts.WriteDeltaPath != "" && cache == nil {
		return fmt.Errorf("core: epoch delta output requires the verdict cache")
	}
	if opts.Preload != nil && cache != nil {
		if opts.Preload.IntelHash == st.Universe.IntelFingerprint() {
			n := cache.Preload(opts.Preload.Verdicts)
			an.Metrics.Counter("stream.delta.preloaded").Add(int64(n))
		} else {
			an.Metrics.Counter("stream.delta.skipped_intel_shift").Inc()
		}
	}
	if st.Config.DriveShortenerTraffic {
		st.driveShortenerTraffic()
	}

	src := st.liveSource
	if keep {
		st.Crawls = make([]*crawler.Crawl, len(names))
		src = st.keepingSource
	}
	start := time.Now()
	a, err := an.runEngine(runs, len(names), src, cache, opts,
		runIdentity{st.Config.Seed, st.Config.checkpointHash()})
	st.folded = 0
	for _, sr := range runs {
		st.folded += sr.folded
	}
	if err != nil {
		return err
	}
	st.Config.Metrics.Histogram("study.stream_seconds").Observe(time.Since(start).Seconds())
	st.publishRenderMetrics()
	if a == nil {
		return nil // shard subset: the shard files are the product
	}
	st.Analysis = a
	if opts.WriteDeltaPath != "" {
		delta := &EpochDelta{
			Epoch:     st.Config.Epoch,
			IntelHash: st.Universe.IntelFingerprint(),
			Verdicts:  cache.Export(),
		}
		for _, s := range st.Universe.ChangedSites {
			delta.ChangedHosts = append(delta.ChangedHosts, s.Host)
		}
		if err := WriteEpochDelta(opts.WriteDeltaPath, st.Config, delta); err != nil {
			return err
		}
		st.WrittenDelta = delta
	}
	return nil
}

// liveSource crawls shard sr's exchange session, handing each record to
// sink as it is fetched.
func (st *Study) liveSource(sr *shardRun, sink crawler.Sink) error {
	_, _, err := st.crawlShard(sr, sink)
	return err
}

// keepingSource is liveSource that also keeps every stepped record, and
// the crawl window, in st.Crawls[sr.idx] — the shard's own slot, written
// only by the worker running it.
func (st *Study) keepingSource(sr *shardRun, sink crawler.Sink) error {
	c := &crawler.Crawl{Exchange: sr.name, Kind: st.Exchanges[sr.idx].Config().Kind,
		Records: make([]crawler.Record, 0, st.Steps[sr.idx])}
	st.Crawls[sr.idx] = c
	started, ended, err := st.crawlShard(sr, func(rec *crawler.Record, res *httpsim.Result, pageClock time.Time) error {
		if err := sink(rec, res, pageClock); err != nil {
			return err
		}
		c.Records = append(c.Records, *rec)
		return nil
	})
	c.Started, c.Ended = started, ended
	return err
}

// crawlShard runs shard sr's exchange session through the crawl-path
// stack and returns its virtual crawl window. Recorder inside, fault
// injector outside: synthesized faults never reach the services, so they
// must not be recorded as visits either.
func (st *Study) crawlShard(sr *shardRun, sink crawler.Sink) (started, ended time.Time, err error) {
	recorder := &shardVisitRecorder{inner: st.Universe.Internet, reg: st.Universe.Shorteners, visits: sr.visits}
	exOpts := crawler.ExchangeOptions(st.crawlOptions(), sr.idx, st.Steps[sr.idx])
	return crawler.CrawlExchangeStream(st.Exchanges[sr.idx], st.transportOver(recorder), exOpts, sink)
}

// shardScope validates and normalizes an Only selection: indices must be
// in range and distinct; empty means every shard. Returned ascending.
func shardScope(only []int, n int) ([]int, error) {
	if len(only) == 0 {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out, nil
	}
	seen := make(map[int]bool, len(only))
	out := make([]int, 0, len(only))
	for _, i := range only {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("core: shard index %d out of range (study has %d shards)", i, n)
		}
		if seen[i] {
			return nil, fmt.Errorf("core: duplicate shard index %d", i)
		}
		seen[i] = true
		out = append(out, i)
	}
	sort.Ints(out)
	return out, nil
}

// RunStudyStream is the one-call live entry point: build the study, then
// execute it as one engine run.
func RunStudyStream(cfg StudyConfig, opts RunOptions) (*Study, error) {
	st, err := NewStudy(cfg)
	if err != nil {
		return nil, err
	}
	if err := st.RunStream(opts); err != nil {
		return nil, err
	}
	return st, nil
}

// MergeShardStudy builds the study universe for cfg without crawling,
// loads every shard checkpoint under dir, merges them into one Analysis,
// and replays the shards' recorded shortener traffic so Table IV is
// exact. The resulting report is byte-identical to a single-process run
// of the same configuration — this is the merge-only pass distributed
// runs finish with.
func MergeShardStudy(cfg StudyConfig, dir string) (*Study, error) {
	st, err := NewStudy(cfg)
	if err != nil {
		return nil, err
	}
	matches, err := filepath.Glob(filepath.Join(dir, "shard-*.ckpt"))
	if err != nil {
		return nil, fmt.Errorf("core: merge: %w", err)
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("core: merge: no shard checkpoints under %s", dir)
	}
	sort.Strings(matches)
	merger := NewShardMerger()
	for _, path := range matches {
		ck, err := LoadCheckpoint(path)
		if err != nil {
			return nil, err
		}
		if err := merger.Add(ck); err != nil {
			return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
		}
	}
	if err := merger.ValidateStudy(st); err != nil {
		return nil, err
	}
	a, err := merger.Analysis()
	if err != nil {
		return nil, err
	}
	// Rebuild the background member traffic the original run drove, then
	// replay the crawl-time visit deltas on top — together they are the
	// full Table IV accounting.
	if cfg.DriveShortenerTraffic {
		st.driveShortenerTraffic()
	}
	if err := merger.ApplyVisits(st.Universe.Shorteners); err != nil {
		return nil, err
	}
	st.Analysis = a
	return st, nil
}
