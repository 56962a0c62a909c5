package core

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/testutil"
)

// longitudinalConfig is the compact multi-epoch study the longitudinal
// tests share: small enough that a 4-epoch matrix stays cheap, large
// enough that churn, lagged intel and campaign phases all have bite.
func longitudinalConfig(seed uint64, workers int) StudyConfig {
	cfg := DefaultStudyConfig()
	cfg.Seed = seed
	cfg.Scale = 1200
	cfg.Workers = workers
	cfg.Epochs = 3
	cfg.ChurnFrac = 0.3
	cfg.BlacklistLag = 2
	return cfg
}

// TestCheckpointHashRefusesLongitudinalMismatch is the satellite-3
// regression test: a checkpoint taken under one longitudinal
// configuration must refuse to resume under different -epochs, -epoch,
// -churn, -blacklist-lag or -blacklist-decay settings. Before the config
// hash covered those fields, every mutation below validated cleanly and
// a resume would silently fold records from a DIFFERENT universe into
// the restored accumulator.
func TestCheckpointHashRefusesLongitudinalMismatch(t *testing.T) {
	base := longitudinalConfig(7, 1)
	base.Epochs = 4
	base.Epoch = 1
	base.BlacklistDecay = 0.1
	ck := &Checkpoint{Seed: base.Seed, ConfigHash: base.checkpointHash(), kind: ckptShard, shard: sampleShard()}
	validate := func(cfg StudyConfig) error {
		return validateShard(ck, sampleRun(false), 2, runIdentity{cfg.Seed, cfg.checkpointHash()})
	}
	if err := validate(base); err != nil {
		t.Fatalf("checkpoint does not validate against its own config: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*StudyConfig)
	}{
		{"epochs", func(c *StudyConfig) { c.Epochs = 2 }},
		{"epoch", func(c *StudyConfig) { c.Epoch = 2 }},
		{"churn", func(c *StudyConfig) { c.ChurnFrac = 0.31 }},
		{"blacklist-lag", func(c *StudyConfig) { c.BlacklistLag = 1 }},
		{"blacklist-decay", func(c *StudyConfig) { c.BlacklistDecay = 0.2 }},
	}
	for _, m := range mutations {
		cfg := base
		m.mut(&cfg)
		if err := validate(cfg); err == nil {
			t.Errorf("checkpoint accepted a run with mismatched %s", m.name)
		}
	}

	// "-epochs 1" and "no longitudinal flags at all" are the same run and
	// must resume into each other.
	a, b := DefaultStudyConfig(), DefaultStudyConfig()
	b.Epochs = 1
	if a.checkpointHash() != b.checkpointHash() {
		t.Error("Epochs 0 and Epochs 1 hash differently — classic checkpoints would refuse -epochs 1 resumes")
	}
}

// TestEpochDeltaCodecRoundTrip locks the kind-4 codec: encode/decode is
// a fixpoint, files survive the disk trip, and ValidateDelta enforces
// seed, epoch-index and producer-config provenance.
func TestEpochDeltaCodecRoundTrip(t *testing.T) {
	cfg := longitudinalConfig(5, 1)
	producer := cfg
	producer.Epoch = 1
	d := &EpochDelta{
		Epoch:        1,
		IntelHash:    0xfeedbeef,
		ChangedHosts: []string{"b.example", "a.example"}, // encoder sorts
		Verdicts: []DeltaVerdict{
			{Key: "http://z.example/\x001234", Malicious: true, Category: "Blacklisted domains"},
			{Key: "http://a.example/\x00abcd", Malicious: false},
		},
	}
	path := filepath.Join(t.TempDir(), "epoch001.slumdelta")
	if err := WriteEpochDelta(path, producer, d); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.KindName() != "epoch-delta" {
		t.Fatalf("kind = %s", ck.KindName())
	}

	consumer := cfg
	consumer.Epoch = 2
	got, err := ck.ValidateDelta(consumer)
	if err != nil {
		t.Fatalf("delta refused by its own consumer config: %v", err)
	}
	if got.Epoch != 1 || got.IntelHash != 0xfeedbeef {
		t.Fatalf("decoded header = %+v", got)
	}
	if !reflect.DeepEqual(got.ChangedHosts, []string{"a.example", "b.example"}) {
		t.Fatalf("changed hosts = %v", got.ChangedHosts)
	}
	if len(got.Verdicts) != 2 || got.Verdicts[0].Key >= got.Verdicts[1].Key {
		t.Fatalf("verdicts not sorted: %+v", got.Verdicts)
	}

	refusals := []struct {
		name string
		mut  func(*StudyConfig)
	}{
		{"seed", func(c *StudyConfig) { c.Seed = 6 }},
		{"epoch gap", func(c *StudyConfig) { c.Epoch = 3 }},
		{"epoch zero", func(c *StudyConfig) { c.Epoch = 0 }},
		{"blacklist lag", func(c *StudyConfig) { c.BlacklistLag = 1 }},
		{"churn", func(c *StudyConfig) { c.ChurnFrac = 0.5 }},
		{"scale", func(c *StudyConfig) { c.Scale = 1100 }},
	}
	for _, r := range refusals {
		bad := consumer
		r.mut(&bad)
		if _, err := ck.ValidateDelta(bad); err == nil {
			t.Errorf("delta accepted under mismatched %s", r.name)
		}
	}

	// A non-delta checkpoint must be rejected by kind, not crash.
	ack := &Checkpoint{kind: ckptShard}
	if _, err := ack.ValidateDelta(consumer); err == nil {
		t.Error("shard checkpoint accepted as an epoch delta")
	}
}

// TestDeltaModeMatchesFullRecrawl: a multi-epoch study in delta mode
// (each epoch preloading the prior epoch's verdicts) produces per-epoch
// outcomes deeply equal — cache stats included, thanks to seeded-miss
// mirroring — to a full re-crawl that preloads nothing, and delta files
// equal to those of a rebuild that preloads them. With a stable intel
// layer and a lag of at least one some verdict really carries over; under
// per-epoch decay the intel gate refuses the preloads, and the output
// still matches (the fallback is slow, never wrong).
func TestDeltaModeMatchesFullRecrawl(t *testing.T) {
	ax := caseAxes{sources: []string{"live"}, epochs: [2]int{2, 4}, delta: always}
	decayed := ax
	decayed.decay = always
	checkEngineCases(t, []namedAxes{{"decay=0", ax}, {"decay=0.4", decayed}})
}

// TestLongitudinalBudgetBoundaryAbort pins the abort-budget boundary
// contract. A study-wide budget exhausted exactly at an epoch boundary
// once still built the next epoch and handed it AbortAfter=1, and a
// budget equal to one epoch's steps even aborted inside that epoch after
// its final record. Now the epoch that exactly exhausts the budget
// completes and the runner aborts before building the next epoch's
// study; a budget covering the whole study never aborts.
func TestLongitudinalBudgetBoundaryAbort(t *testing.T) {
	checkEngineCases(t, draws(2, caseAxes{sources: []string{"live"}, epochs: [2]int{2, 3}, kills: [2]int{1, 1}, boundary: always, budget: always}))
}

// rebuildEveryEpoch is the from-scratch oracle for RunLongitudinalStudy:
// each epoch's study is built anew by NewStudy (no universe advance, no
// prefetch). With a deltaDir each epoch writes its delta file there, and
// each preload is read back from the file the previous epoch wrote,
// through LoadCheckpoint and ValidateDelta, instead of being handed over
// in memory; with none, nothing is preloaded.
func rebuildEveryEpoch(t *testing.T, cfg StudyConfig, deltaDir string) *LongitudinalResult {
	t.Helper()
	res := &LongitudinalResult{Config: cfg}
	for e := 0; e < cfg.Epochs; e++ {
		ecfg := cfg
		ecfg.Epoch = e
		st, err := NewStudy(ecfg)
		if err != nil {
			t.Fatalf("oracle epoch %d: %v", e, err)
		}
		var opts RunOptions
		if deltaDir != "" {
			opts.WriteDeltaPath = DeltaPath(deltaDir, e)
		}
		if deltaDir != "" && e > 0 {
			ck, err := LoadCheckpoint(DeltaPath(deltaDir, e-1))
			if err != nil {
				t.Fatalf("oracle epoch %d: %v", e, err)
			}
			if opts.Preload, err = ck.ValidateDelta(ecfg); err != nil {
				t.Fatalf("oracle epoch %d: %v", e, err)
			}
		}
		if err := st.RunStream(opts); err != nil {
			t.Fatalf("oracle epoch %d: %v", e, err)
		}
		res.Epochs = append(res.Epochs, outcomeOf(st))
	}
	return res
}

// TestLongitudinalIncrementalInvariance pins what the render memo and
// the universe advance count, against the rebuildEveryEpoch oracle
// (from-scratch universes, no pipelining, disk-only deltas; the engine
// cases compare their outputs): the counters are schedule-invariant
// across worker counts, and the fast path is non-vacuous — universes
// advance instead of regenerating, and cross-epoch render reuse strictly
// beats the oracle's hit/miss split.
func TestLongitudinalIncrementalInvariance(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	watched := []string{
		"web.render.hits", "web.render.misses", "web.render.uncached", "web.render.retired",
		"study.universe.advanced", "study.universe.advance_fallback",
	}
	counters := func(reg *obs.Registry) map[string]int64 {
		vals := map[string]int64{}
		for _, c := range watched {
			vals[c] = reg.Counter(c).Value()
		}
		return vals
	}
	run := func(workers int) map[string]int64 {
		t.Helper()
		reg := obs.NewRegistry()
		cfg := longitudinalConfig(8, workers)
		cfg.Metrics = reg
		if _, err := RunLongitudinalStudy(cfg, LongitudinalOptions{DeltaDir: t.TempDir()}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return counters(reg)
	}
	cFast1, cFast8 := run(1), run(8)
	reg := obs.NewRegistry()
	ocfg := longitudinalConfig(8, 1)
	ocfg.Metrics = reg
	rebuildEveryEpoch(t, ocfg, t.TempDir())
	cSlow1 := counters(reg)

	if !reflect.DeepEqual(cFast1, cFast8) {
		t.Errorf("render/advance counters are schedule-dependent:\nworkers=1: %v\nworkers=8: %v", cFast1, cFast8)
	}
	epochs := int64(ocfg.Epochs)
	if cFast1["study.universe.advanced"] != epochs-1 || cFast1["study.universe.advance_fallback"] != 0 {
		t.Errorf("fast path advanced %d universes (fallback %d), want %d (0)",
			cFast1["study.universe.advanced"], cFast1["study.universe.advance_fallback"], epochs-1)
	}
	if cSlow1["study.universe.advanced"] != 0 {
		t.Errorf("from-scratch rebuild advanced %d universes, want 0", cSlow1["study.universe.advanced"])
	}
	if cFast1["web.render.uncached"] != 0 || cSlow1["web.render.uncached"] != 0 {
		t.Fatalf("render caches hit capacity (uncached fast=%d slow=%d) — hit/miss splits are no longer exact",
			cFast1["web.render.uncached"], cSlow1["web.render.uncached"])
	}
	if cFast1["web.render.misses"] == 0 {
		t.Error("no render misses at all — the counters are disconnected")
	}
	if cFast1["web.render.misses"] >= cSlow1["web.render.misses"] {
		t.Errorf("incremental path rendered %d pages, from-scratch rebuild %d — cross-epoch reuse is vacuous",
			cFast1["web.render.misses"], cSlow1["web.render.misses"])
	}
	if cFast1["web.render.retired"] == 0 {
		t.Error("no render caches retired despite churn — the retain pass is vacuous")
	}
}

// TestLongitudinalDefaultNeverFallsBack answers whether the
// GenerateEpoch fallback is taken outside the rebuild oracle: a default
// (pipelined, no delta dir) multi-epoch study advances every epoch's
// universe from the previous one and never regenerates one.
func TestLongitudinalDefaultNeverFallsBack(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := longitudinalConfig(12, 2)
	cfg.Epochs = 4
	cfg.Metrics = reg
	if _, err := RunLongitudinalStudy(cfg, LongitudinalOptions{}); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("study.universe.advanced").Value(); n != int64(cfg.Epochs-1) {
		t.Errorf("study.universe.advanced = %d, want %d", n, cfg.Epochs-1)
	}
	if n := reg.Counter("study.universe.advance_fallback").Value(); n != 0 {
		t.Errorf("study.universe.advance_fallback = %d, want 0", n)
	}
}

// TestStreamDoubleKill kills a checkpointed multi-epoch study twice —
// first inside epoch 0, then, after relaunching under another worker
// count, inside a later epoch — before a third launch finishes it. The
// per-epoch checkpoint directories must compose across both kills.
func TestStreamDoubleKill(t *testing.T) {
	checkEngineCases(t, draws(1, caseAxes{sources: []string{"live"}, epochs: [2]int{3, 3}, kills: [2]int{2, 2}, straddle: always}))
}

// TestLongitudinalSeriesAndRates sanity-checks the cross-epoch report
// inputs: concatenated per-exchange series are monotone with the right
// total, and the per-epoch malice-rate series has one point per epoch.
func TestLongitudinalSeriesAndRates(t *testing.T) {
	cfg := longitudinalConfig(9, 2)
	cfg.Epochs = 2
	res, err := RunLongitudinalStudy(cfg, LongitudinalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 2 {
		t.Fatalf("epochs = %d, want 2", len(res.Epochs))
	}
	name := res.Epochs[0].Analysis.PerExchange[0].Name
	s := res.ExchangeSeries(name)
	wantLen := res.Epochs[0].Analysis.Series[name].Len() + res.Epochs[1].Analysis.Series[name].Len()
	if s.Len() != wantLen {
		t.Fatalf("concat series length %d, want %d", s.Len(), wantLen)
	}
	wantFinal := res.Epochs[0].Analysis.Series[name].Final() + res.Epochs[1].Analysis.Series[name].Final()
	if s.Final() != wantFinal {
		t.Fatalf("concat series final %d, want %d", s.Final(), wantFinal)
	}
}

// TestLongitudinalKillResumeMatrix: for 1, 2 and 4 epochs, a
// checkpointed RunLongitudinalStudy killed at a drawn point and relaunched
// yields the oracle's per-epoch outcomes (minus cache traffic, which a
// resumed run legitimately under-reports) and leaves no epoch
// checkpoints behind.
func TestLongitudinalKillResumeMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("kill/resume matrix is expensive; run without -short")
	}
	var subtests []namedAxes
	for _, epochs := range []int{1, 2, 4} {
		subtests = append(subtests, namedAxes{fmt.Sprintf("epochs=%d", epochs),
			caseAxes{sources: []string{"live"}, epochs: [2]int{epochs, epochs}, kills: [2]int{1, 1}}})
	}
	checkEngineCases(t, subtests)
}
