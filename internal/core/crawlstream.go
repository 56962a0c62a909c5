package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/crawler"
)

// DatasetStreamOptions tunes a streaming dataset crawl (Study.StreamDataset).
type DatasetStreamOptions struct {
	// CheckpointPath enables periodic crawl checkpoints ("" disables).
	// Removed when the crawl completes.
	CheckpointPath string
	// CheckpointEvery is the record interval between checkpoints;
	// <= 0 means 5000.
	CheckpointEvery int
	// Resume restores per-exchange progress from a loaded crawl
	// checkpoint; spill files are truncated back to the checkpointed byte
	// offsets (dropping any partial trailing line from the crash) and
	// already-written records are re-fetched but not re-written.
	Resume *Checkpoint
	// AbortAfter simulates a kill after writing that many records in this
	// process (no checkpoint at the abort point). Testing hook; 0 disables.
	AbortAfter int
}

// DatasetStreamResult summarizes a completed streaming dataset crawl.
type DatasetStreamResult struct {
	Records int // total records in the dataset, all runs combined
	Failed  int // records whose fetch never completed
}

// partPath names exchange i's spill file for the dataset at outPath.
func partPath(outPath string, i int) string {
	return fmt.Sprintf("%s.part%d", outPath, i)
}

// datasetSpill is one exchange's spill-file writer plus its durable
// progress cursor. Writes go through an explicit flush before each
// checkpoint, so the checkpointed byte offset never points past what the
// OS has.
type datasetSpill struct {
	f       *os.File
	records int
	failed  int
	bytes   int64
	preDone int // records covered by the resume checkpoint (skipped)
}

// StreamDataset crawls the study's exchanges and writes the JSONL dataset
// to outPath with bounded memory: each exchange's records spill straight
// to a per-exchange part file as they are produced, and on completion the
// parts are concatenated in exchange order — byte-identical to
// WriteDataset over a batch crawl. With a checkpoint path set, a killed
// crawl resumes from its last checkpoint: part files are truncated back
// to the checkpointed offsets and the deterministic crawl replays, re-
// writing nothing it already persisted.
func (st *Study) StreamDataset(outPath string, opts DatasetStreamOptions) (DatasetStreamResult, error) {
	var res DatasetStreamResult
	if st.Config.DriveShortenerTraffic {
		st.driveShortenerTraffic()
	}
	every := opts.CheckpointEvery
	if every <= 0 {
		every = 5000
	}

	spills := make([]*datasetSpill, len(st.Exchanges))
	names, _ := st.exchangeNamesKinds()
	if opts.Resume != nil {
		if opts.Resume.kind != ckptCrawl {
			return res, fmt.Errorf("core: checkpoint is an %s checkpoint, not a crawl one", opts.Resume.KindName())
		}
		if err := opts.Resume.Validate(st.Config); err != nil {
			return res, err
		}
		if len(opts.Resume.crawl) != len(names) {
			return res, fmt.Errorf("core: checkpoint covers %d exchanges, study has %d", len(opts.Resume.crawl), len(names))
		}
	}
	for i := range st.Exchanges {
		sp := &datasetSpill{}
		path := partPath(outPath, i)
		if opts.Resume != nil {
			p := opts.Resume.crawl[i]
			if p.Exchange != names[i] {
				return res, fmt.Errorf("core: checkpoint exchange %d is %q, study has %q", i, p.Exchange, names[i])
			}
			if p.Records > st.Steps[i] {
				return res, fmt.Errorf("core: checkpoint progress %d on %q exceeds the study's %d steps",
					p.Records, p.Exchange, st.Steps[i])
			}
			fi, err := os.Stat(path)
			if err != nil {
				return res, fmt.Errorf("core: resume: spill file for %q: %w", p.Exchange, err)
			}
			if fi.Size() < p.Bytes {
				return res, fmt.Errorf("core: resume: spill file %s is %d bytes, checkpoint recorded %d — refusing to resume",
					path, fi.Size(), p.Bytes)
			}
			// Anything past the checkpointed offset is an uncheckpointed
			// (possibly partial) write from the killed run: cut it away.
			if err := os.Truncate(path, p.Bytes); err != nil {
				return res, fmt.Errorf("core: resume: truncate %s: %w", path, err)
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return res, err
			}
			sp.f = f
			sp.records, sp.failed, sp.bytes, sp.preDone = p.Records, p.Failed, p.Bytes, p.Records
		} else {
			f, err := os.Create(path)
			if err != nil {
				return res, err
			}
			sp.f = f
		}
		spills[i] = sp
	}
	closeSpills := func() {
		for _, sp := range spills {
			if sp != nil && sp.f != nil {
				sp.f.Close()
				sp.f = nil
			}
		}
	}
	defer closeSpills()

	// One mutex serializes record writes, progress accounting and
	// checkpointing across the per-exchange crawl goroutines. Fetching —
	// the expensive part — still runs concurrently outside the lock.
	var (
		mu         sync.Mutex
		wroteRun   int
		aborted    bool
		checkpoint = func() error {
			progress := make([]CrawlProgress, len(spills))
			for i, sp := range spills {
				progress[i] = CrawlProgress{Exchange: names[i], Records: sp.records, Failed: sp.failed, Bytes: sp.bytes}
			}
			if err := writeCheckpointFile(opts.CheckpointPath, ckptCrawl,
				st.Config.Seed, st.Config.checkpointHash(), encodeCrawlPayload(progress)); err != nil {
				return err
			}
			st.Config.Metrics.Counter("stream.checkpoint.writes").Inc()
			return nil
		}
	)
	var enc bytes.Buffer
	sink := func(ei int, rec *crawler.Record) error {
		sp := spills[ei]
		mu.Lock()
		defer mu.Unlock()
		if aborted {
			return errStopped
		}
		if rec.Seq < sp.preDone {
			st.Config.Metrics.Counter("stream.skipped").Inc()
			return nil
		}
		enc.Reset()
		if err := json.NewEncoder(&enc).Encode(datasetRecordOf(rec)); err != nil {
			aborted = true
			return fmt.Errorf("core: encode dataset record: %w", err)
		}
		n, err := sp.f.Write(enc.Bytes())
		if err != nil {
			aborted = true
			return fmt.Errorf("core: write spill %s: %w", sp.f.Name(), err)
		}
		sp.bytes += int64(n)
		sp.records++
		if rec.FetchErr != "" {
			sp.failed++
		}
		wroteRun++
		st.Config.Metrics.Counter("stream.records").Inc()
		total := 0
		for _, s := range spills {
			total += s.records
		}
		if opts.CheckpointPath != "" && total%every == 0 {
			if err := checkpoint(); err != nil {
				aborted = true
				return err
			}
		}
		if opts.AbortAfter > 0 && wroteRun >= opts.AbortAfter {
			aborted = true
			return fmt.Errorf("%w after %d records (checkpoint: %s)", ErrAborted, wroteRun, opts.CheckpointPath)
		}
		return nil
	}

	if err := crawler.CrawlAllStream(st.Exchanges, st.transport(), st.Steps, st.crawlOptions(), sink); err != nil {
		return res, firstRealError(err)
	}

	// Concatenate the parts in exchange order; the result is byte-
	// identical to WriteDataset over the equivalent batch crawl.
	out, err := os.Create(outPath)
	if err != nil {
		return res, err
	}
	for i, sp := range spills {
		if err := sp.f.Close(); err != nil {
			out.Close()
			return res, err
		}
		sp.f = nil
		part, err := os.Open(partPath(outPath, i))
		if err != nil {
			out.Close()
			return res, err
		}
		_, err = io.Copy(out, part)
		part.Close()
		if err != nil {
			out.Close()
			return res, err
		}
		res.Records += sp.records
		res.Failed += sp.failed
	}
	if err := out.Close(); err != nil {
		return res, err
	}
	for i := range spills {
		os.Remove(partPath(outPath, i))
	}
	if opts.CheckpointPath != "" {
		os.Remove(opts.CheckpointPath)
	}
	return res, nil
}

// datasetRecordOf maps a crawl record onto its JSONL serialization.
func datasetRecordOf(r *crawler.Record) *datasetRecord {
	return &datasetRecord{
		Exchange:    r.Exchange,
		Kind:        int(r.Kind),
		Seq:         r.Seq,
		Timestamp:   r.Timestamp,
		EntryURL:    r.EntryURL,
		FinalURL:    r.FinalURL,
		Redirects:   r.Redirects,
		Status:      r.Status,
		ContentType: r.ContentType,
		Body:        r.Body,
		FetchErr:    r.FetchErr,
		ErrKind:     r.ErrKind,
		Attempts:    r.Attempts,
	}
}

// firstRealError unwraps the errors.Join CrawlAllStream returns when the
// run stops early: the error that caused the stop (abort sentinel,
// checkpoint-write failure, spill-write failure) is the interesting one;
// the errStopped echoes from the other exchange goroutines are not.
func firstRealError(err error) error {
	type multi interface{ Unwrap() []error }
	if m, ok := err.(multi); ok {
		for _, e := range m.Unwrap() {
			if e != nil && !errors.Is(e, errStopped) {
				return e
			}
		}
	}
	return err
}
