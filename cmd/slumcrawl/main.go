// Command slumcrawl builds the simulated universe, crawls the nine traffic
// exchanges, and writes the raw measurement dataset: a JSONL record stream
// (with page bodies) plus optional per-exchange HAR archives — the data
// collection half of the study (§III-A). cmd/slumscan runs the analysis
// half over the emitted dataset.
//
// Usage:
//
//	slumcrawl [-seed N] [-scale N] [-workers N] [-faults PROFILE] [-retries N] [-metrics] -out dataset.jsonl
//	          [-checkpoint DIR] [-checkpoint-every N] | [-hardir DIR]
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
// -hardir also writes per-exchange HAR archives. HAR capture needs whole
// crawls in memory, so that path crawls every exchange first and takes no
// -checkpoint.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/har"
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
	harDir := fs.String("hardir", "", "directory for per-exchange HAR archives (optional; crawls in memory)")
	withMetrics := fs.Bool("metrics", false, "instrument the crawl and print a METRICS section to stdout")
	ckptDir := fs.String("checkpoint", "", "shard checkpoint directory; enables periodic checkpointing and is always resumed")
	ckptEvery := fs.Int("checkpoint-every", 5000, "per-shard records between checkpoint writes")
	abortAfter := fs.Int("abort-after", 0, "testing: abort the crawl after N written records, as a kill would")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *harDir != "" && (*ckptDir != "" || *abortAfter > 0) {
		return fmt.Errorf("-hardir crawls whole exchanges in memory and takes no -checkpoint or -abort-after")
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

	var res core.DatasetStreamResult
	if *harDir == "" {
		res, err = st.StreamDataset(*out, core.RunOptions{
			CheckpointDir: *ckptDir, CheckpointEvery: *ckptEvery, AbortAfter: *abortAfter})
	} else {
		res, err = crawlWithHARs(st, *out, *harDir)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d records to %s (%d failed fetches)\n", res.Records, *out, res.Failed)
	// Dataset bytes go to -out, so stdout is free for the METRICS section.
	if *withMetrics {
		fmt.Println(report.MetricsReport(obs.NewExport(cfg.Metrics, cfg.Tracer)))
	}
	return nil
}

// crawlWithHARs crawls every exchange in memory, then writes the dataset
// to out and one HAR archive per exchange under harDir.
func crawlWithHARs(st *core.Study, out, harDir string) (core.DatasetStreamResult, error) {
	var res core.DatasetStreamResult
	if err := st.Crawl(); err != nil {
		return res, err
	}
	f, err := os.Create(out)
	if err != nil {
		return res, err
	}
	defer f.Close()
	if err := core.WriteDataset(f, st.Crawls); err != nil {
		return res, err
	}
	if err := f.Close(); err != nil {
		return res, err
	}
	if err := os.MkdirAll(harDir, 0o755); err != nil {
		return res, err
	}
	for _, c := range st.Crawls {
		res.Records += len(c.Records)
		for i := range c.Records {
			if c.Records[i].FetchErr != "" {
				res.Failed++
			}
		}
		if c.HAR == nil {
			continue
		}
		name := strings.ToLower(strings.ReplaceAll(c.Exchange, " ", "-")) + ".har"
		hf, err := os.Create(filepath.Join(harDir, name))
		if err != nil {
			return res, err
		}
		if err := har.Encode(hf, c.HAR); err != nil {
			hf.Close()
			return res, err
		}
		if err := hf.Close(); err != nil {
			return res, err
		}
	}
	fmt.Fprintf(os.Stderr, "wrote HAR archives to %s\n", harDir)
	return res, nil
}
