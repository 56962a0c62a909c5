// Command slumcrawl builds the simulated universe, crawls the nine traffic
// exchanges, and writes the raw measurement dataset: a JSONL record stream
// (with page bodies) plus optional per-exchange HAR archives — the data
// collection half of the study (§III-A). cmd/slumscan runs the analysis
// half over the emitted dataset or archives.
//
// Usage:
//
//	slumcrawl [-seed N] [-scale N] [-workers N] [-faults PROFILE] [-retries N] [-metrics] -out dataset.jsonl
//	          [-hardir DIR] [-checkpoint DIR] [-checkpoint-every N]
//
// -faults injects deterministic transport faults into the crawl; failed
// fetches are persisted as records with fetchErr/errKind set, so slumscan
// reports crawl health for the dataset.
//
// The crawl runs on the study engine, as slumreport's does: -workers
// goroutines each take whole exchange shards, and every record is
// appended to its shard's part file (-out.partN) as it is crawled, so
// memory stays bounded. When every shard is complete the parts are
// joined in exchange order, fsynced and renamed over -out. -checkpoint
// DIR means what it means in slumreport: each shard records its progress
// under DIR every -checkpoint-every records, a checkpoint directory is
// always resumed — rerunning the same command after a kill, with any
// -workers value, writes the byte-identical dataset — and the shard
// files are deleted on completion.
//
// -hardir DIR also writes one HAR archive per exchange under DIR, in the
// same pass: each successful record's HAR page and entries are appended
// to its exchange's pages and entries parts (DIR/NAME.har.pages and
// .entries), which are wrapped in the log envelope, fsynced and renamed
// to DIR/NAME.har when every shard is complete. The HAR parts resume with
// the dataset's, so -hardir takes -checkpoint and -workers like any crawl;
// a checkpoint directory written with -hardir is resumed only with it,
// and one written without only without.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/obs"
	"repro/internal/report"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "slumcrawl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("slumcrawl", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "experiment seed")
	scale := fs.Int("scale", 20, "divide paper crawl volumes by this factor")
	workers := fs.Int("workers", 0, "exchange shards crawled at once (0 = all CPUs)")
	faults := fs.String("faults", "", "crawl fault profile: "+strings.Join(httpsim.ProfileNames(), ", "))
	retries := fs.Int("retries", 2, "crawl retries per URL after the first attempt")
	out := fs.String("out", "dataset.jsonl", "output dataset path")
	harDir := fs.String("hardir", "", "directory for per-exchange HAR archives (optional)")
	withMetrics := fs.Bool("metrics", false, "instrument the crawl and print a METRICS section to stdout")
	ckptDir := fs.String("checkpoint", "", "shard checkpoint directory; enables periodic checkpointing and is always resumed")
	ckptEvery := fs.Int("checkpoint-every", 5000, "per-shard records between checkpoint writes")
	abortAfter := fs.Int("abort-after", 0, "testing: abort the crawl after N written records, as a kill would")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := core.DefaultStudyConfig()
	cfg.Seed = *seed
	cfg.Scale = *scale
	cfg.Workers = *workers
	cfg.FaultProfile = *faults
	cfg.Retries = *retries
	if *withMetrics {
		cfg.Metrics = obs.NewRegistry()
		cfg.Tracer = obs.NewTracer()
	}
	st, err := core.NewStudy(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "crawling %d exchanges (seed=%d scale=%d)...\n",
		len(st.Exchanges), cfg.Seed, cfg.Scale)

	res, err := st.StreamDataset(*out, *harDir, core.RunOptions{
		CheckpointDir: *ckptDir, CheckpointEvery: *ckptEvery, AbortAfter: *abortAfter})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d records to %s (%d failed fetches)\n", res.Records, *out, res.Failed)
	if *harDir != "" {
		fmt.Fprintf(os.Stderr, "wrote HAR archives to %s\n", *harDir)
	}
	// Dataset bytes go to -out, so stdout is free for the METRICS section.
	if *withMetrics {
		fmt.Println(report.MetricsReport(obs.NewExport(cfg.Metrics, cfg.Tracer)))
	}
	return nil
}
