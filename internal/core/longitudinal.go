package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/shortener"
	"repro/internal/stats"
)

// Longitudinal study runner: one engine run per epoch from the same
// seed, with optional incremental re-crawl. Epoch N's universe embeds the
// churn history 1..N (prefix-stable, see web.applyChurn), the intel layer
// lags ground truth by the configured number of epochs, and exchange
// campaigns advance through their lifecycle phases — so the sequence of
// per-epoch analyses IS the longitudinal measurement: malice rate over
// time, blacklist coverage erosion, campaign bursts that span epochs.
//
// In delta mode every completed epoch writes a kind-4 SLUMCKPT delta and
// the next epoch preloads its verdict cache from it, so only pages whose
// content changed (or everything, after an intel shift) re-run the
// detector stack. The folded reports are byte-identical to full
// re-crawls by construction: the fold consumes only Malicious/Category,
// the cache key pins content, and the intel gate pins the engines.

// LongitudinalOptions tunes RunLongitudinalStudy.
type LongitudinalOptions struct {
	// DeltaDir, when non-empty, enables incremental re-crawl: each epoch
	// writes epochNNN.slumdelta into the directory and epoch N+1 seeds
	// its verdict cache from epoch N's file. The directory is created if
	// missing. Requires the verdict cache.
	DeltaDir string
	// Run is the base engine configuration. CheckpointDir, when set,
	// holds one subdirectory per epoch (epoch000, epoch001, ...) of shard
	// checkpoints, resumed automatically (epochs that completed have
	// deleted theirs and simply re-run — deterministically — when an
	// interrupted study is re-launched). AbortAfter, when > 0, is a
	// STUDY-WIDE fold budget: the run aborts with ErrAborted once that
	// many records have been folded across epochs in this process.
	// Preload, WriteDeltaPath and Only are managed by the runner and must
	// be left unset.
	Run RunOptions
}

// EpochOutcome is one epoch's slice of a longitudinal result.
type EpochOutcome struct {
	// Epoch is the 0-based epoch index.
	Epoch int
	// Analysis is the epoch's full analysis, byte-identical to what a
	// standalone single-epoch run at this epoch would produce.
	Analysis *Analysis
	// IntelConsensus / IntelFeed / IntelTotal report how much of the
	// epoch's CURRENT malicious population the (lagged, decayed) intel
	// layer still covers — the blacklist-lag distribution over time.
	IntelConsensus int
	IntelFeed      int
	IntelTotal     int
	// ChangedSites counts the sites whose identity churned into this
	// epoch (0 at epoch 0).
	ChangedSites int
	// ShortStats is the Table IV join for this epoch, captured here so
	// the epoch's universe (and its shortener registry) can be released.
	ShortStats []shortener.HitStats
}

// outcomeOf captures a completed study's epoch slice — the piece of a
// LongitudinalResult one epoch contributes.
func outcomeOf(st *Study) EpochOutcome {
	consensus, feed, total := st.Universe.IntelCoverage()
	return EpochOutcome{
		Epoch:          st.Config.Epoch,
		Analysis:       st.Analysis,
		IntelConsensus: consensus,
		IntelFeed:      feed,
		IntelTotal:     total,
		ChangedSites:   len(st.Universe.ChangedSites),
		ShortStats:     st.Analysis.ShortURLStats(st.Universe.Shorteners),
	}
}

// LongitudinalResult is the multi-epoch study output.
type LongitudinalResult struct {
	Config StudyConfig
	Epochs []EpochOutcome
}

// ExchangeSeries folds one exchange's per-epoch Figure-3 series into a
// single cross-epoch cumulative series (epoch boundaries preserved as
// segment joins), ready for stats.Series.Bursts — a burst spanning a
// boundary is reported once, not once per epoch.
func (r *LongitudinalResult) ExchangeSeries(name string) *stats.Series {
	segs := make([]*stats.Series, 0, len(r.Epochs))
	for _, e := range r.Epochs {
		segs = append(segs, e.Analysis.Series[name])
	}
	return stats.ConcatSeries(segs...)
}

// DeltaPath names the delta file epoch e of a study writes under dir.
func DeltaPath(dir string, epoch int) string {
	return filepath.Join(dir, fmt.Sprintf("epoch%03d.slumdelta", epoch))
}

// epochCheckpointDir names the shard-checkpoint directory epoch e of a
// study uses under dir.
func epochCheckpointDir(dir string, epoch int) string {
	return filepath.Join(dir, fmt.Sprintf("epoch%03d", epoch))
}

// RunLongitudinalStudy executes a cfg.Epochs-epoch study (<= 1 runs a
// single classic epoch) and returns the per-epoch outcomes. See
// LongitudinalOptions for checkpointing, abort-budget and delta-mode
// behaviour. On abort the partial result accumulated so far is returned
// alongside the error.
//
// The runner is incremental and pipelined: epoch e+1's universe is
// derived from epoch e's via web.AdvanceEpoch (O(changed sites), shared
// render cache) on a background goroutine WHILE epoch e streams, and in
// delta mode the delta epoch e just wrote is handed to epoch e+1 in
// memory. A relaunched study re-runs every epoch from 0, so that delta
// is always this process's own. None of this changes any output byte:
// epochs still run one after another, checkpoints and kill-resume behave
// as before, and the delta files match a from-scratch rebuild of every
// epoch that reloads each preload from disk.
func RunLongitudinalStudy(cfg StudyConfig, opts LongitudinalOptions) (*LongitudinalResult, error) {
	if opts.Run.Preload != nil || opts.Run.WriteDeltaPath != "" || len(opts.Run.Only) > 0 {
		return nil, errors.New("core: longitudinal runner owns Preload/WriteDeltaPath/Only — leave them unset")
	}
	if opts.DeltaDir != "" {
		if err := os.MkdirAll(opts.DeltaDir, 0o755); err != nil {
			return nil, fmt.Errorf("core: delta dir: %w", err)
		}
	}
	epochs := cfg.Epochs
	if epochs <= 0 {
		epochs = 1
	}
	epochConfig := func(e int) StudyConfig {
		ecfg := cfg
		ecfg.Epochs = epochs
		ecfg.Epoch = e
		return ecfg
	}
	res := &LongitudinalResult{Config: cfg}
	budget := opts.Run.AbortAfter
	folded := 0

	// pending carries the prefetched next-epoch study. The drain below
	// guarantees the builder goroutine never outlives this call, whatever
	// exit path is taken.
	type built struct {
		st  *Study
		err error
	}
	var pending chan built
	defer func() {
		if pending != nil {
			<-pending
		}
	}()

	var prevDelta *EpochDelta
	for e := 0; e < epochs; e++ {
		// The study-wide budget is checked BEFORE the epoch's study is
		// constructed: a budget exhausted exactly at an epoch boundary
		// aborts here with the completed epochs intact, instead of
		// building the next epoch only to fold one extra record.
		if budget > 0 && folded >= budget {
			return res, fmt.Errorf("core: epoch %d: %w at the epoch boundary (study budget %d exhausted)", e, ErrAborted, budget)
		}
		ecfg := epochConfig(e)
		var st *Study
		if pending != nil {
			b := <-pending
			pending = nil
			if b.err != nil {
				return res, b.err
			}
			st = b.st
		} else {
			var err error
			st, err = NewStudy(ecfg)
			if err != nil {
				return res, err
			}
		}
		epochSteps := 0
		for _, s := range st.Steps {
			epochSteps += s
		}
		// Kick off the next epoch's universe while this one runs. The
		// advance reads only the previous universe's immutable prototype
		// state and the lock-guarded render cache, never anything the
		// running crawl mutates. A budget that cannot outlast this epoch
		// makes the next universe dead weight, so don't build it (the
		// check ignores any resume credit — the rare skipped prefetch
		// after a resume just falls back to NewStudy at the loop top).
		if e+1 < epochs && (budget <= 0 || folded+epochSteps < budget) {
			ch := make(chan built, 1)
			pending = ch
			go func(next StudyConfig, prev *Study) {
				nst, err := NewStudyFrom(next, prev.Universe)
				if err != nil {
					err = fmt.Errorf("core: epoch %d: %w", next.Epoch, err)
				}
				ch <- built{nst, err}
			}(epochConfig(e+1), st)
		}
		ropts := opts.Run
		if ropts.CheckpointDir != "" {
			ropts.CheckpointDir = epochCheckpointDir(opts.Run.CheckpointDir, e)
		}
		if opts.DeltaDir != "" {
			ropts.WriteDeltaPath = DeltaPath(opts.DeltaDir, e)
			// The previous epoch of this very process wrote the delta;
			// hand it over in memory. The provenance checks ValidateDelta
			// runs on loaded files hold trivially.
			ropts.Preload = prevDelta
		}
		// The engine never aborts on a run's final record, so an epoch
		// that exactly exhausts the budget completes normally and the
		// boundary check above aborts the study.
		if budget > 0 {
			ropts.AbortAfter = budget - folded
		}
		err := st.RunStream(ropts)
		folded += st.folded
		if err != nil {
			return res, fmt.Errorf("core: epoch %d: %w", e, err)
		}
		if ropts.CheckpointDir != "" && !ropts.KeepShards {
			// The epoch's shard files are gone; drop its directory too.
			os.Remove(ropts.CheckpointDir)
		}
		res.Epochs = append(res.Epochs, outcomeOf(st))
		prevDelta = st.WrittenDelta
	}
	return res, nil
}
