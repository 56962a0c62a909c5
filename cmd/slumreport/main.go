// Command slumreport runs the full reproduction end to end — universe
// generation, nine-exchange crawl, detection, aggregation — and prints
// every table and figure of the paper's evaluation.
//
// Usage:
//
//	slumreport [-seed N] [-scale N] [-workers N] [-faults PROFILE] [-retries N] [-table N] [-figure N] [-json] [-metrics]
//	           [-js-fuel N] [-js-heap N] [-checkpoint DIR] [-checkpoint-every N] [-shards LIST] [-merge] [-keep-shards]
//	           [-epochs N] [-churn F] [-blacklist-lag N] [-blacklist-decay F] [-delta-dir DIR]
//
// With no -table/-figure selection, everything is printed. -scale divides
// the paper's crawl volumes (default 20: ~50k URLs, seconds of runtime;
// -scale 1 replays the full 1,003,087-URL crawl). -faults injects
// deterministic transport faults into the crawl (off, flaky, lossy, slow,
// hostile) and -retries bounds the crawler's per-URL retry budget; the
// crawl-health section reports the resulting fetch outcomes and error
// taxonomy. -metrics instruments the run and appends a METRICS section
// (event counters, stage-latency table, runtime snapshot) after the
// report; with -json the same export lands in a "metrics" block. Output
// without the flag is byte-identical to an uninstrumented run.
//
// Every run goes through one engine: the study is partitioned by
// exchange, and -workers goroutines (default: all CPUs) each take whole
// exchange shards, longest first, crawling, scanning and folding every
// record as it arrives, so peak memory does not grow with the crawl
// length. The report is byte-identical for every worker count.
//
// -checkpoint DIR persists each shard's state under DIR every
// -checkpoint-every records. A checkpoint directory is always resumed:
// after a crash or kill, rerunning the same command picks every shard up
// from its last durable prefix — with any -workers value — and still
// prints the byte-identical report. Shard files are deleted when a run
// completes (-keep-shards keeps them), so the same invocation is safe to
// use unconditionally.
//
// Distributed studies split the work across invocations sharing one
// checkpoint directory: each runs -shards with a disjoint subset of the
// exchange indices (e.g. "0-4" on one machine, "5-8" on another) and
// prints nothing, then a final -merge pass loads the shard files — no
// crawling — and prints the merged report. Merging validates provenance:
// shards from a different seed, configuration or partitioning are
// refused, as is the same shard twice.
//
// -epochs N (> 1) runs a longitudinal study: the same universe advanced
// through N epochs of deterministic churn (-churn re-registers malicious
// sites under fresh domains, campaigns cycle rise/burst/takedown,
// exchanges gain and lose members) against intel that lags ground truth
// by -blacklist-lag epochs and erodes by -blacklist-decay per epoch of
// staleness. One report block prints per epoch, followed by the
// longitudinal time-series sections. -delta-dir DIR enables incremental
// re-crawl: each epoch writes a SLUMCKPT epoch delta recording which
// sites changed and the verdicts carried forward, so the next epoch only
// re-scans changed pages — the report stays byte-identical to a full
// re-crawl. Multi-epoch runs take the incremental fast path
// automatically: each epoch's universe is advanced from the previous
// one's (only churned sites are rebuilt, rendered pages are reused) and
// the next epoch is prepared while the current one runs; the output is
// byte-identical to regenerating every epoch from scratch. -checkpoint
// composes with -epochs (one DIR/epochNNN subdirectory per epoch;
// interrupted studies resume on relaunch), while -json, -shards and
// -merge do not.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/shortener"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "slumreport:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("slumreport", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "experiment seed")
	scale := fs.Int("scale", 20, "divide paper crawl volumes by this factor")
	workers := fs.Int("workers", 0, "engine workers, each running one exchange shard at a time (0 = all CPUs)")
	faults := fs.String("faults", "", "crawl fault profile: "+strings.Join(httpsim.ProfileNames(), ", "))
	retries := fs.Int("retries", 2, "crawl retries per URL after the first attempt")
	jsFuel := fs.Int64("js-fuel", 0, "JS sandbox fuel budget per script (0 = default)")
	jsHeap := fs.Int64("js-heap", 0, "JS sandbox heap budget in bytes per script (0 = default)")
	table := fs.Int("table", 0, "print only this table (1-4)")
	figure := fs.Int("figure", 0, "print only this figure (2, 3, 5, 6, 7)")
	asJSON := fs.Bool("json", false, "emit every table and figure as JSON")
	withMetrics := fs.Bool("metrics", false, "instrument the run and append a METRICS section")
	ckptDir := fs.String("checkpoint", "", "shard checkpoint directory; enables periodic checkpointing and is always resumed")
	ckptEvery := fs.Int("checkpoint-every", 5000, "per-shard records between checkpoint writes")
	abortAfter := fs.Int("abort-after", 0, "testing: abort the run after N folded records, as a kill would")
	shards := fs.String("shards", "", "run only these shard indices (e.g. \"0,2,5-8\"); requires -checkpoint")
	merge := fs.Bool("merge", false, "merge-only: load the shard checkpoints under -checkpoint, skip crawling")
	keepShards := fs.Bool("keep-shards", false, "keep shard checkpoints after a successful run")
	epochs := fs.Int("epochs", 1, "number of simulated epochs (a longitudinal study when > 1)")
	churn := fs.Float64("churn", 0, "per-epoch probability a malicious site re-registers under a fresh domain")
	blLag := fs.Int("blacklist-lag", 0, "epochs the blacklist databases and threat feed lag behind ground truth")
	blDecay := fs.Float64("blacklist-decay", 0, "per-epoch-of-staleness erosion rate of lagged blacklist entries")
	deltaDir := fs.String("delta-dir", "", "directory for epoch deltas; enables incremental re-crawl between epochs")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *scale <= 0 {
		return fmt.Errorf("scale must be positive, got %d", *scale)
	}
	if (*merge || *shards != "") && *ckptDir == "" {
		return fmt.Errorf("-merge and -shards require -checkpoint DIR (the shard files are the output)")
	}
	only, err := parseShards(*shards)
	if err != nil {
		return err
	}
	cfg := core.DefaultStudyConfig()
	cfg.Seed = *seed
	cfg.Scale = *scale
	cfg.Workers = *workers
	cfg.FaultProfile = *faults
	cfg.Retries = *retries
	cfg.JSFuel = *jsFuel
	cfg.JSHeapBytes = *jsHeap
	cfg.Epochs = *epochs
	cfg.ChurnFrac = *churn
	cfg.BlacklistLag = *blLag
	cfg.BlacklistDecay = *blDecay
	if *withMetrics {
		cfg.Metrics = obs.NewRegistry()
		cfg.Tracer = obs.NewTracer()
	}
	ropts := core.RunOptions{
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
		AbortAfter:      *abortAfter,
		Only:            only,
		KeepShards:      *keepShards,
	}
	if *epochs > 1 {
		if *merge || len(only) > 0 {
			return fmt.Errorf("-merge and -shards do not combine with -epochs > 1")
		}
		return runLongitudinal(cfg, out, longitudinalFlags{
			deltaDir: *deltaDir, run: ropts, table: *table, figure: *figure,
			asJSON: *asJSON, withMetrics: *withMetrics,
		})
	}
	if *deltaDir != "" {
		return fmt.Errorf("-delta-dir requires -epochs > 1")
	}
	var st *core.Study
	if *merge {
		fmt.Fprintf(os.Stderr, "merging shards: seed=%d scale=%d dir=%s\n", cfg.Seed, cfg.Scale, *ckptDir)
		st, err = core.MergeShardStudy(cfg, *ckptDir)
	} else {
		fmt.Fprintf(os.Stderr, "running study: seed=%d scale=%d (~%d URLs)...\n",
			cfg.Seed, cfg.Scale, 1003087/cfg.Scale)
		st, err = core.RunStudyStream(cfg, ropts)
	}
	if err != nil {
		return err
	}
	if st.Analysis == nil {
		// Subset runs produce shard files, not a report: the merge-only
		// pass renders once every subset has landed.
		fmt.Fprintf(os.Stderr, "shards %s written under %s; run -merge once all shards are present\n",
			*shards, *ckptDir)
		return nil
	}
	a := st.Analysis

	if *asJSON {
		rep := report.BuildJSON(a, a.ShortURLStats(st.Universe.Shorteners))
		if *withMetrics {
			rep.Metrics = obs.NewExport(cfg.Metrics, cfg.Tracer)
		}
		return report.EncodeJSON(out, rep)
	}

	if !renderSections(out, a, a.ShortURLStats(st.Universe.Shorteners), *table, *figure) {
		return fmt.Errorf("nothing matches -table %d -figure %d", *table, *figure)
	}
	// The METRICS section is strictly appended after every selected
	// section, so output without -metrics is a byte-prefix of output with.
	if *withMetrics {
		fmt.Fprintln(out, report.MetricsReport(obs.NewExport(cfg.Metrics, cfg.Tracer)))
	}
	return nil
}

// renderSections prints the standard per-study report block — every table
// and figure, or only the -table/-figure selection — and reports whether
// anything matched.
func renderSections(out io.Writer, a *core.Analysis, short []shortener.HitStats, table, figure int) bool {
	sections := []struct {
		table, figure int
		render        func() string
	}{
		{0, 0, func() string { return report.Headline(a) }},
		{1, 0, func() string { return report.Table1(a) }},
		{2, 0, func() string { return report.Table2(a) }},
		{3, 0, func() string { return report.Table3(a) }},
		{4, 0, func() string { return report.Table4(short) }},
		{0, 2, func() string { return report.Figure2(a) }},
		{0, 3, func() string { return report.Figure3(a) }},
		{0, 5, func() string { return report.Figure5(a) }},
		{0, 6, func() string { return report.Figure6(a) }},
		{0, 7, func() string { return report.Figure7(a) }},
		{0, 0, func() string { return report.CrawlHealthReport(a) }},
	}
	selected := table != 0 || figure != 0
	printed := false
	for _, s := range sections {
		if selected && (s.table != table || s.figure != figure) {
			continue
		}
		fmt.Fprintln(out, s.render())
		printed = true
	}
	return printed
}

// longitudinalFlags carries the CLI selections into the multi-epoch path.
type longitudinalFlags struct {
	deltaDir    string
	run         core.RunOptions
	table       int
	figure      int
	asJSON      bool
	withMetrics bool
}

// runLongitudinal executes a multi-epoch study and prints one report
// block per epoch followed by the longitudinal time-series sections.
// Delta mode (-delta-dir) carries verdicts between epochs so unchanged
// pages skip the detector stack; the printed report is byte-identical to
// the full re-crawl either way. A -checkpoint directory holds one
// subdirectory per epoch and interrupted studies resume on relaunch.
func runLongitudinal(cfg core.StudyConfig, out io.Writer, lf longitudinalFlags) error {
	if lf.asJSON {
		return fmt.Errorf("-json does not support -epochs > 1 yet")
	}
	fmt.Fprintf(os.Stderr, "running longitudinal study: seed=%d scale=%d epochs=%d churn=%g lag=%d (~%d URLs/epoch)...\n",
		cfg.Seed, cfg.Scale, cfg.Epochs, cfg.ChurnFrac, cfg.BlacklistLag, 1003087/cfg.Scale)
	res, err := core.RunLongitudinalStudy(cfg, core.LongitudinalOptions{
		DeltaDir: lf.deltaDir,
		Run:      lf.run,
	})
	if err != nil {
		return err
	}
	printed := false
	for _, e := range res.Epochs {
		fmt.Fprintf(out, "%s\n\n", report.EpochHeader(e.Epoch))
		printed = renderSections(out, e.Analysis, e.ShortStats, lf.table, lf.figure) || printed
	}
	if !printed {
		return fmt.Errorf("nothing matches -table %d -figure %d", lf.table, lf.figure)
	}
	if lf.table == 0 && lf.figure == 0 {
		fmt.Fprintln(out, report.LongitudinalOverview(res))
		fmt.Fprintln(out, report.LongitudinalIntel(res))
		fmt.Fprintln(out, report.LongitudinalBursts(res))
	}
	if lf.withMetrics {
		fmt.Fprintln(out, report.MetricsReport(obs.NewExport(cfg.Metrics, cfg.Tracer)))
	}
	return nil
}

// parseShards parses a shard selection like "0,2,5-8" into indices.
// Duplicate and out-of-range indices are left for the engine's scope
// check, which knows the study's shard count.
func parseShards(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("-shards: empty element in %q", s)
		}
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err := strconv.Atoi(lo)
			if err != nil {
				return nil, fmt.Errorf("-shards: bad range start %q: %w", lo, errors.Unwrap(err))
			}
			b, err := strconv.Atoi(hi)
			if err != nil {
				return nil, fmt.Errorf("-shards: bad range end %q: %w", hi, errors.Unwrap(err))
			}
			if b < a {
				return nil, fmt.Errorf("-shards: backwards range %q", part)
			}
			for i := a; i <= b; i++ {
				out = append(out, i)
			}
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("-shards: bad index %q: %w", part, errors.Unwrap(err))
		}
		out = append(out, n)
	}
	return out, nil
}
