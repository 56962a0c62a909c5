package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/crawler"
	"repro/internal/exchange"
	"repro/internal/har"
	"repro/internal/httpsim"
	"repro/internal/obs"
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

// The engine-case generator is the equivalence oracle for every way of
// running a study. A case is a study configuration — seed, fault
// profile (off, flaky or hostile), source, epochs with churn, lag and
// decay, delta mode, verdict cache — plus a plan of invocations: each
// step has a worker count, a checkpoint interval, an optional shard
// subset and an optional kill point, and the plan ends with a full run
// or a merge-only pass. The case's output must equal its oracle's:
// crawlThenAnalyze for a plain study, rebuildEveryEpoch for one run
// through RunLongitudinalStudy.

// draw is how often the generator sets a boolean axis.
type draw int

const (
	never draw = iota
	maybe
	always
)

func (d draw) pick(r *rand.Rand) bool { return d == always || d == maybe && r.Intn(2) == 0 }

// caseAxes restricts what the generator draws.
type caseAxes struct {
	sources []string // "recorded", "live" and/or "dataset"
	// epochs are the fewest and most epochs of a live study run through
	// RunLongitudinalStudy; zero runs a plain study.
	epochs [2]int
	kills  [2]int // fewest and most kills per plan
	// split runs a live single-epoch study as two Only subsets, the first
	// taking the kills; merge then finishes it with MergeShardStudy
	// instead of a full run.
	split, merge draw
	cacheOff     draw // run with the verdict cache off
	delta        draw // multi-epoch: incremental re-crawl through a delta dir
	decay        draw // multi-epoch: blacklist decay 0.4, which shifts the intel layer every epoch
	boundary     draw // multi-epoch: the first kill lands on an epoch boundary
	// straddle, with two kills of a multi-epoch study, lands the first
	// inside epoch 0 and the second past its end.
	straddle draw
	budget   draw // a fresh final step gets AbortAfter equal to its records, which must not abort it
	batch    draw // live, one plain step: Study.Run, which keeps its crawls
	har      draw // dataset: capture HAR archives too
	// seed, faults and workers pin the study seed, the fault profile
	// ("off", "flaky" or "hostile") and the first step's worker count,
	// which subtest names state; zero values draw them.
	seed    uint64
	faults  string
	workers int
}

// allAxes is the whole space the generator covers.
var allAxes = caseAxes{
	sources: []string{"recorded", "live", "dataset"},
	epochs:  [2]int{0, 4}, kills: [2]int{0, 2},
	split: maybe, merge: maybe, cacheOff: maybe, delta: maybe, decay: maybe, boundary: maybe, straddle: maybe, budget: maybe, batch: maybe, har: maybe,
}

// caseStep is one invocation of a case's plan.
type caseStep struct {
	workers, every int
	only           []int // shard subset; nil runs every shard
	abortAfter     int   // RunOptions.AbortAfter
	kill           bool  // abortAfter lands before the run's last record
	fresh          bool  // nothing of this step's scope is checkpointed yet
	boundary       bool  // the kill lands exactly on an epoch boundary
	later          bool  // the kill lands past the end of epoch 0
	scope          int   // records this step's scope holds in all
}

func (s caseStep) String() string {
	out := fmt.Sprintf("w%d/every%d", s.workers, s.every)
	if s.only != nil {
		out += fmt.Sprintf("/only%v", s.only)
	}
	if s.abortAfter > 0 {
		out += fmt.Sprintf("/abort@%d", s.abortAfter)
	}
	return out
}

// engineCase is one draw: a configuration and the plan that runs it.
type engineCase struct {
	cfg                      StudyConfig
	source                   string
	delta, batch, har, merge bool
	steps                    []caseStep
}

func (c *engineCase) String() string {
	cfg := c.cfg
	s := fmt.Sprintf("seed=%d faults=%q source=%s cache=%t", cfg.Seed, cfg.FaultProfile, c.source, !cfg.DisableVerdictCache)
	if cfg.Epochs > 0 {
		s += fmt.Sprintf(" epochs=%d churn=%g lag=%d decay=%g delta=%t", cfg.Epochs, cfg.ChurnFrac, cfg.BlacklistLag, cfg.BlacklistDecay, c.delta)
	}
	if c.source == "dataset" {
		s += fmt.Sprintf(" har=%t", c.har)
	}
	if c.batch {
		s += " batch"
	}
	s += fmt.Sprintf(" plan=%v", c.steps)
	if c.merge {
		s += "+merge"
	}
	return s
}

// drawConfig draws everything about a case but its plan, which needs
// the oracle's record counts.
func drawConfig(r *rand.Rand, ax caseAxes) *engineCase {
	c := &engineCase{source: ax.sources[r.Intn(len(ax.sources))]}
	seed, faults := 1+uint64(r.Intn(1<<20)), []string{"", "flaky", "hostile"}[r.Intn(3)]
	if ax.seed != 0 {
		seed = ax.seed
	}
	if ax.faults != "" {
		faults = strings.TrimPrefix(ax.faults, "off")
	}
	c.cfg = streamConfig(seed, 0, faults)
	c.cfg.DisableVerdictCache = c.source != "dataset" && ax.cacheOff.pick(r)
	lo, hi := ax.epochs[0], ax.epochs[1]
	if c.source == "live" && hi > 0 && (lo > 0 || r.Intn(3) == 0) {
		lo = max(lo, 1)
		c.cfg.Epochs = lo + r.Intn(hi-lo+1)
		c.cfg.ChurnFrac = []float64{0.1, 0.25, 0.4}[r.Intn(3)]
		c.delta = c.cfg.Epochs > 1 && !c.cfg.DisableVerdictCache && ax.delta.pick(r)
		c.cfg.BlacklistLag = r.Intn(3)
		if c.delta {
			// A lag of at least one keeps the intel layer stable between
			// epochs, so some verdict carries over and checkDeltas can
			// require a preload.
			c.cfg.BlacklistLag = 1 + r.Intn(2)
		}
		if ax.decay.pick(r) {
			c.cfg.BlacklistDecay = 0.4
		}
	}
	c.har = c.source == "dataset" && ax.har.pick(r)
	return c
}

// caseOracle is what a case is checked against.
type caseOracle struct {
	*reference                // plain studies: crawlThenAnalyze
	epochs     []EpochOutcome // longitudinal studies: rebuildEveryEpoch with no preloads
	deltaDir   string         // delta mode: the delta files of a rebuild that preloads them
	// shortURLs are Table IV's malicious short URLs and every other short
	// URL the crawl entered through: the hit ledgers a run must reproduce.
	shortURLs []string
}

// newCaseOracle runs the oracle for c at one worker with the verdict
// cache on, whatever the case draws for either. A delta-mode case is held
// to the epochs of a full re-crawl, which no preload reaches, and to the
// delta files of a second rebuild that preloads each epoch from the last
// one's file; that rebuild's epochs must equal the full re-crawl's too.
func newCaseOracle(t *testing.T, c *engineCase) *caseOracle {
	cfg := c.cfg
	cfg.Workers, cfg.DisableVerdictCache = 1, false
	if cfg.Epochs > 0 {
		o := &caseOracle{epochs: rebuildEveryEpoch(t, cfg, "").Epochs}
		if c.delta {
			o.deltaDir = t.TempDir()
			if pre := rebuildEveryEpoch(t, cfg, o.deltaDir).Epochs; !reflect.DeepEqual(pre, o.epochs) {
				t.Errorf("%v: preloading delta files changed the oracle's epochs", c)
			}
		}
		return o
	}
	ref, err := crawlThenAnalyze(cfg)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	o := &caseOracle{reference: ref, shortURLs: ref.Analysis.MaliciousShortURLs}
	for _, c := range ref.Crawls {
		for i := range c.Records {
			if u := c.Records[i].EntryURL; ref.Universe.Shorteners.IsShortURL(u) && !slices.Contains(o.shortURLs, u) {
				o.shortURLs = append(o.shortURLs, u)
			}
		}
	}
	return o
}

// checkShortStats asserts a live or merged run reproduced the oracle's
// shortener hit ledgers, Table IV's rows among them, exactly: visit
// replay is part of the contract, not an approximation.
func (o *caseOracle) checkShortStats(t *testing.T, label string, got *Study) {
	t.Helper()
	if !reflect.DeepEqual(o.Universe.Shorteners.StatsFor(o.shortURLs), got.Universe.Shorteners.StatsFor(o.shortURLs)) {
		t.Errorf("%s: shortener hit statistics differ from the oracle's", label)
	}
}

// records counts the records a run over only (nil: every shard) folds.
func (o *caseOracle) records(only []int) int {
	n := 0
	for _, e := range o.epochs {
		n += e.Analysis.TotalCrawled
	}
	if o.reference == nil {
		return n
	}
	if only == nil {
		return o.Analysis.TotalCrawled
	}
	for _, i := range only {
		n += o.Steps[i]
	}
	return n
}

// epochEnd is the number of records the first e epochs hold.
func (o *caseOracle) epochEnd(e int) int {
	n := 0
	for _, ep := range o.epochs[:e] {
		n += ep.Analysis.TotalCrawled
	}
	return n
}

var caseWorkers = []int{1, 2, 8}

// drawPlan draws the invocations that run c to completion.
func (c *engineCase) drawPlan(r *rand.Rand, ax caseAxes, o *caseOracle) {
	prev := 0
	workers := func() int {
		if prev == 0 && ax.workers != 0 {
			prev = ax.workers
			return prev
		}
		for {
			if w := caseWorkers[r.Intn(len(caseWorkers))]; w != prev {
				prev = w
				return w
			}
		}
	}
	every := func() int { return []int{7, 13, 41, 97}[r.Intn(4)] }
	kills := ax.kills[0] + r.Intn(ax.kills[1]-ax.kills[0]+1)
	straddle := c.cfg.Epochs > 1 && kills == 2 && ax.straddle.pick(r)
	scopes := [][]int{nil}
	if c.source == "live" && c.cfg.Epochs == 0 && ax.split.pick(r) {
		perm := r.Perm(len(o.Steps))
		cut := 1 + r.Intn(len(perm)-1)
		first, second := append([]int(nil), perm[:cut]...), append([]int(nil), perm[cut:]...)
		sort.Ints(first)
		sort.Ints(second)
		scopes = [][]int{first, second}
		c.merge = ax.merge.pick(r)
	}
	for p, only := range scopes {
		scope := o.records(only)
		left, fresh := scope, true
		for k := 0; p == 0 && k < kills && left >= 2; k++ {
			s := caseStep{workers: workers(), every: every(), only: only, kill: true, fresh: fresh, scope: scope,
				abortAfter: 1 + r.Intn(left-1)}
			if r.Intn(2) == 0 {
				// A late kill finds most shards finished, so the resume
				// restores complete shard files and replays their crawls.
				s.abortAfter = left - 1 - r.Intn(max(left/4, 1))
			}
			switch {
			case straddle && k == 0:
				s.abortAfter = 1 + r.Intn(o.epochEnd(1)-1)
			case straddle:
				// A relaunch refolds at most all of epoch 0, so a budget of
				// a whole epoch takes its second kill into a later one.
				end := o.epochEnd(1)
				s.abortAfter, s.later = end+r.Intn(max(left-1-end, 1)), true
			case k == 0 && c.cfg.Epochs > 1 && ax.boundary.pick(r):
				// Every completed epoch drops its checkpoints, so a kill
				// on a boundary leaves the relaunch nothing to resume.
				s.abortAfter, s.boundary = o.epochEnd(1+r.Intn(c.cfg.Epochs-1)), true
			}
			c.steps = append(c.steps, s)
			left -= s.abortAfter + s.workers - 1
			fresh = s.boundary
		}
		s := caseStep{workers: workers(), every: every(), only: only, fresh: fresh, scope: scope}
		switch {
		case len(c.steps) == 0 && len(scopes) == 1 && c.source == "live" && c.cfg.Epochs == 0 && ax.batch.pick(r):
			c.batch = true
		case fresh && ax.budget.pick(r):
			s.abortAfter = scope
		}
		c.steps = append(c.steps, s)
	}
	if len(scopes) > 1 && !c.merge {
		// A full run over the complete shard files folds nothing more.
		c.steps = append(c.steps, caseStep{workers: workers(), every: every(), scope: o.records(nil)})
	}
}

// caseDirs are one case's output paths, none of which exists at first.
type caseDirs struct{ ckpt, delta, out, har string }

// caseRun is what one step produced.
type caseRun struct {
	analysis *Analysis
	study    *Study
	epochs   []EpochOutcome
	dataset  DatasetStreamResult
}

// run executes one step of c, or the merge-only pass when s is nil.
func (c *engineCase) run(t *testing.T, o *caseOracle, s *caseStep, d caseDirs, reg *obs.Registry) (caseRun, error) {
	cfg := c.cfg
	cfg.Metrics = reg
	if s == nil {
		st, err := MergeShardStudy(cfg, d.ckpt)
		if err != nil {
			return caseRun{}, err
		}
		return caseRun{analysis: st.Analysis, study: st}, nil
	}
	cfg.Workers = s.workers
	opts := RunOptions{CheckpointDir: d.ckpt, CheckpointEvery: s.every, AbortAfter: s.abortAfter, Only: s.only}
	switch {
	case c.source == "recorded":
		an := *o.Analyzer
		an.Workers, an.DisableCache, an.Metrics = s.workers, cfg.DisableVerdictCache, reg
		a, err := an.analyzeRecorded(o.Crawls, opts, runIdentity{cfg.Seed, cfg.checkpointHash()})
		return caseRun{analysis: a}, err
	case c.source == "dataset":
		har := ""
		if c.har {
			har = d.har
		}
		res, err := streamDataset(cfg, d.out, har, opts)
		return caseRun{dataset: res}, err
	case cfg.Epochs > 0:
		lo := LongitudinalOptions{Run: opts}
		if c.delta {
			lo.DeltaDir = d.delta
		}
		res, err := RunLongitudinalStudy(cfg, lo)
		if res == nil {
			return caseRun{}, err
		}
		return caseRun{epochs: res.Epochs}, err
	}
	st, err := NewStudy(cfg)
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	if c.batch {
		err = st.Run()
	} else {
		err = st.RunStream(opts)
	}
	return caseRun{analysis: st.Analysis, study: st}, err
}

// wantAnalysis returns the analysis a run must produce and the one it
// did, with cache traffic cleared where the run cannot match it: a
// resumed, subset or merged run scans only part of the records. A run
// with the cache off must report no cache traffic at all.
func (c *engineCase) wantAnalysis(want, got *Analysis) (*Analysis, *Analysis) {
	if c.cfg.DisableVerdictCache {
		return stripCacheStats(want), got
	}
	if len(c.steps) > 1 || c.merge || c.steps[0].only != nil {
		return stripCacheStats(want), stripCacheStats(got)
	}
	return want, got
}

// check runs case c and compares everything it produced with o.
func (c *engineCase) check(t *testing.T, o *caseOracle) {
	base := t.TempDir()
	d := caseDirs{filepath.Join(base, "ckpt"), filepath.Join(base, "deltas"),
		filepath.Join(base, "dataset.jsonl"), filepath.Join(base, "hars")}
	if c.batch {
		d.ckpt = ""
	}
	var got caseRun
	var reg *obs.Registry
	for i := range c.steps {
		s := &c.steps[i]
		reg = obs.NewRegistry()
		var err error
		got, err = c.run(t, o, s, d, reg)
		label := fmt.Sprintf("%v: step %d (%v)", c, i, s)
		if s.kill != errors.Is(err, ErrAborted) || !s.kill && err != nil {
			t.Fatalf("%s: got %v, want abort %t", label, err, s.kill)
		}
		folded := int(reg.Counter("pipeline.records").Value())
		switch {
		case s.boundary && folded != s.abortAfter,
			s.kill && (folded < s.abortAfter || folded >= s.abortAfter+s.workers),
			!s.kill && s.fresh && folded != s.scope:
			t.Errorf("%s: folded %d records", label, folded)
		}
		if s.later && len(got.epochs) == 0 {
			t.Errorf("%s: a kill past the end of epoch 0 kept no epoch", label)
		}
		if s.kill && s.fresh && c.cfg.Epochs > 0 {
			// A fresh kill keeps exactly the epochs its budget covered,
			// and prefetches no universe past a budget exhausted on a
			// boundary.
			done := 0
			for done < c.cfg.Epochs && o.epochEnd(done+1) <= s.abortAfter {
				done++
			}
			c.checkEpochs(t, label, o.epochs[:done], got.epochs, false)
			advanced := done
			if o.epochEnd(done) == s.abortAfter {
				advanced--
			}
			if n := reg.Counter("study.universe.advanced").Value(); n != int64(advanced) {
				t.Errorf("%s: advanced %d universes, want %d", label, n, advanced)
			}
		}
	}
	if c.merge {
		reg = obs.NewRegistry()
		var err error
		if got, err = c.run(t, o, nil, d, reg); err != nil {
			t.Fatalf("%v: merge: %v", c, err)
		}
	}

	label := c.String()
	switch {
	case c.source == "dataset":
		var want bytes.Buffer
		if err := writeDataset(&want, o.Crawls); err != nil {
			t.Fatal(err)
		}
		if got.dataset.Records != o.Analysis.TotalCrawled || got.dataset.Failed != o.Analysis.TotalFailed() {
			t.Errorf("%s: result %+v, want %d records, %d failed", label, got.dataset, o.Analysis.TotalCrawled, o.Analysis.TotalFailed())
		}
		checkDatasetFile(t, label, d.out, d.ckpt, want.Bytes())
		if c.har {
			checkHARDir(t, label, d.har, o.reference)
		}
		return
	case c.cfg.Epochs > 0:
		c.checkEpochs(t, label, o.epochs, got.epochs, len(c.steps) > 1)
		if left, _ := filepath.Glob(filepath.Join(d.ckpt, "epoch*")); len(left) != 0 {
			t.Errorf("%s: epoch checkpoints left behind: %v", label, left)
		}
		if c.delta {
			c.checkDeltas(t, label, o, d.delta, reg, len(c.steps) > 1)
		}
		return
	}
	if got.analysis == nil {
		t.Fatalf("%s: the final step produced no Analysis", label)
	}
	want, have := c.wantAnalysis(o.Analysis, got.analysis)
	if !reflect.DeepEqual(want, have) {
		t.Errorf("%s: Analysis differs from the oracle's", label)
	}
	if got.study == nil {
		return
	}
	o.checkShortStats(t, label, got.study)
	switch {
	case c.batch && !reflect.DeepEqual(got.study.Crawls, o.Crawls):
		t.Errorf("%s: Study.Run kept crawls that differ from the oracle's", label)
	case !c.batch && len(got.study.Crawls) != 0:
		t.Errorf("%s: a streaming run kept %d crawls", label, len(got.study.Crawls))
	}
	if !c.merge {
		if left, _ := filepath.Glob(filepath.Join(d.ckpt, "shard-*")); len(left) != 0 {
			t.Errorf("%s: shard checkpoints left behind after a complete run: %v", label, left)
		}
	}
}

// checkEpochs compares a multi-epoch run's outcomes with want, cache
// traffic cleared when the run was resumed.
func (c *engineCase) checkEpochs(t *testing.T, label string, want, got []EpochOutcome, resumed bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d epochs completed, want %d", label, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if resumed || c.cfg.DisableVerdictCache {
			w.Analysis = stripCacheStats(w.Analysis)
		}
		if resumed {
			g.Analysis = stripCacheStats(g.Analysis)
		}
		if !reflect.DeepEqual(w, g) {
			t.Errorf("%s: epoch %d differs from the oracle's", label, i)
		}
	}
}

// checkDeltas asserts every delta file equals the oracle's byte for byte
// — unless the run was resumed: a resumed epoch's file lacks the
// verdicts of the records it restored — and that the final step's
// preloads were not vacuous: with a stable intel layer some verdict
// carried over, under decay the intel gate refused the shifted preloads.
func (c *engineCase) checkDeltas(t *testing.T, label string, o *caseOracle, dir string, reg *obs.Registry, resumed bool) {
	t.Helper()
	for e := range o.epochs {
		if resumed {
			break
		}
		want, err := os.ReadFile(DeltaPath(o.deltaDir, e))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(DeltaPath(dir, e)); err != nil || !bytes.Equal(want, got) {
			t.Errorf("%s: epoch %d delta file differs from the oracle's (err %v)", label, e, err)
		}
	}
	switch {
	case c.cfg.BlacklistDecay > 0 && reg.Counter("stream.delta.skipped_intel_shift").Value() == 0:
		t.Errorf("%s: the intel gate never fired under per-epoch decay", label)
	case c.cfg.BlacklistDecay == 0 && c.cfg.BlacklistLag > 0 && reg.Counter("stream.delta.preloaded").Value() == 0:
		t.Errorf("%s: no verdict was preloaded — the incremental path is vacuous", label)
	}
}

// namedAxes is one subtest of checkEngineCases: a name and the axes its
// one case is drawn from.
type namedAxes struct {
	name string
	ax   caseAxes
}

// draws names n subtests case=0..n-1 drawing from ax.
func draws(n int, ax caseAxes) []namedAxes {
	out := make([]namedAxes, n)
	for i := range out {
		out[i] = namedAxes{fmt.Sprintf("case=%d", i), ax}
	}
	return out
}

// checkEngineCases draws one case per subtest from the test's seeded
// generator (testutil.Rand: a failure prints the REPRO_TEST_SEED line
// that replays the same draws) and checks each in parallel.
func checkEngineCases(t *testing.T, subtests []namedAxes) {
	testutil.VerifyNoLeaks(t)
	rng := testutil.Rand(t)
	for _, sub := range subtests {
		seed, ax := rng.Int63(), sub.ax
		t.Run(sub.name, func(t *testing.T) {
			t.Parallel()
			h := fnv.New64a()
			h.Write([]byte(t.Name()))
			r := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
			c := drawConfig(r, ax)
			o := newCaseOracle(t, c)
			c.drawPlan(r, ax, o)
			t.Log(c)
			c.check(t, o)
		})
	}
}

// TestStreamResumeDeterminism draws from every axis of the generator.
// Each subtest's name pins its study seed, fault profile and first worker
// count. Its place in the sweep pins its source and whether its plan
// kills, so that every source runs five times uninterrupted and five
// times killed and resumed, and a dataset case captures HAR archives on
// odd seeds.
func TestStreamResumeDeterminism(t *testing.T) {
	var subtests []namedAxes
	for s := 0; s < 5; s++ {
		for f, faults := range []string{"off", "flaky"} {
			for w, workers := range caseWorkers {
				cell := (s + 3*f + w) % 6
				ax := allAxes
				ax.seed, ax.faults, ax.workers = uint64(s+1), faults, workers
				ax.sources = allAxes.sources[cell%3 : cell%3+1]
				ax.kills = [][2]int{{0, 0}, {1, 2}}[cell/3]
				ax.har = []draw{always, never}[s%2]
				subtests = append(subtests, namedAxes{fmt.Sprintf("seed=%d/workers=%d/profile=%s", s+1, workers, faults), ax})
			}
		}
	}
	checkEngineCases(t, subtests)
}

// TestStreamMatchesBatch: one plain live run, through Study.Run (keeping
// exactly the oracle's crawls) or RunStream (keeping none), reproduces
// the oracle's Analysis, cache totals included.
func TestStreamMatchesBatch(t *testing.T) {
	checkEngineCases(t, draws(3, caseAxes{sources: []string{"live"}, batch: maybe}))
}

// TestFleetMatchesBatch: live runs at any worker count reproduce the
// oracle's Analysis and Table IV, for clean and faulty crawls.
func TestFleetMatchesBatch(t *testing.T) {
	checkEngineCases(t, draws(2, caseAxes{sources: []string{"live"}}))
}

// TestFleetInvarianceMatrix: the shards split into two Only subsets run
// with different worker counts, the first killed once, and a merge-only
// pass reproduces the oracle's Analysis and Table IV.
func TestFleetInvarianceMatrix(t *testing.T) {
	var subtests []namedAxes
	for seed := uint64(1); seed <= 5; seed++ {
		for _, faults := range []string{"off", "flaky"} {
			subtests = append(subtests, namedAxes{fmt.Sprintf("seed=%d/profile=%s", seed, faults), caseAxes{
				sources: []string{"live"}, kills: [2]int{1, 1},
				split: always, merge: always, seed: seed, faults: faults,
			}})
		}
	}
	checkEngineCases(t, subtests)
}

// TestFleetDoubleKill: a checkpointed run killed twice, under a
// different worker count each time, composes its shard checkpoints.
func TestFleetDoubleKill(t *testing.T) {
	checkEngineCases(t, draws(3, caseAxes{sources: []string{"live"}, kills: [2]int{2, 2}}))
}

// TestFleetDistributedSubsets: two invocations cover disjoint shard
// subsets of one directory, and a merge-only pass or a full run over it
// reconstructs the oracle's report.
func TestFleetDistributedSubsets(t *testing.T) {
	checkEngineCases(t, draws(2, caseAxes{sources: []string{"live"}, split: always, merge: maybe}))
}

// TestFleetResumeFreshWhenNoCheckpoints: a checkpoint directory that does
// not exist yet is a fresh start, so the same invocation serves the first
// run and every rerun.
func TestFleetResumeFreshWhenNoCheckpoints(t *testing.T) {
	checkEngineCases(t, draws(1, caseAxes{sources: []string{"live"}}))
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
