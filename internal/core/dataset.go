package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/crawler"
	"repro/internal/exchange"
)

// datasetRecord is the JSONL serialization of one crawl record. Bodies
// travel base64-encoded (encoding/json's []byte default), so a dataset
// file is self-contained for offline re-analysis — the same property the
// study's HAR archive had.
type datasetRecord struct {
	Exchange    string    `json:"exchange"`
	Kind        int       `json:"kind"`
	Seq         int       `json:"seq"`
	Timestamp   time.Time `json:"timestamp"`
	EntryURL    string    `json:"entryUrl"`
	FinalURL    string    `json:"finalUrl"`
	Redirects   int       `json:"redirects"`
	Status      int       `json:"status"`
	ContentType string    `json:"contentType,omitempty"`
	Body        []byte    `json:"body,omitempty"`
	FetchErr    string    `json:"fetchErr,omitempty"`
	ErrKind     string    `json:"errKind,omitempty"`
	Attempts    int       `json:"attempts,omitempty"`
}

// WriteDataset streams crawls as JSON lines.
func WriteDataset(w io.Writer, crawls []*crawler.Crawl) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, c := range crawls {
		for i := range c.Records {
			if err := enc.Encode(datasetRecordOf(&c.Records[i])); err != nil {
				return fmt.Errorf("core: write dataset: %w", err)
			}
		}
	}
	return bw.Flush()
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

// ReadDataset loads a JSONL dataset back into per-exchange crawls,
// preserving first-seen exchange order and record order within each
// exchange.
func ReadDataset(r io.Reader) ([]*crawler.Crawl, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	byName := map[string]*crawler.Crawl{}
	var order []string
	for {
		var dr datasetRecord
		if err := dec.Decode(&dr); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("core: read dataset: %w", err)
		}
		c, ok := byName[dr.Exchange]
		if !ok {
			c = &crawler.Crawl{Exchange: dr.Exchange, Kind: exchange.Kind(dr.Kind)}
			byName[dr.Exchange] = c
			order = append(order, dr.Exchange)
		}
		c.Records = append(c.Records, crawler.Record{
			Exchange:    dr.Exchange,
			Kind:        exchange.Kind(dr.Kind),
			Seq:         dr.Seq,
			Timestamp:   dr.Timestamp,
			EntryURL:    dr.EntryURL,
			FinalURL:    dr.FinalURL,
			Redirects:   dr.Redirects,
			Status:      dr.Status,
			ContentType: dr.ContentType,
			Body:        dr.Body,
			FetchErr:    dr.FetchErr,
			ErrKind:     dr.ErrKind,
			Attempts:    dr.Attempts,
		})
	}
	out := make([]*crawler.Crawl, 0, len(order))
	for _, name := range order {
		c := byName[name]
		if n := len(c.Records); n > 0 {
			c.Started = c.Records[0].Timestamp
			c.Ended = c.Records[n-1].Timestamp
		}
		out = append(out, c)
	}
	return out, nil
}

// DatasetStreamResult summarizes a completed dataset crawl.
type DatasetStreamResult struct {
	Records int // total records in the dataset, all runs combined
	Failed  int // records whose fetch never completed
}

// StreamDataset crawls the study's exchanges through the engine and
// writes the JSONL dataset to outPath with bounded memory. The engine's
// per-record step for a dataset shard encodes each record as one JSONL
// line and appends it to the shard's part file (partPath); when every
// shard is complete the parts are joined in exchange order into a
// synced temp file that is renamed over outPath — byte-identical to
// WriteDataset over a batch crawl. Shard scheduling, stop and abort,
// checkpoints (kind 2, a cursor into the part file) and their resume
// are the engine's, as in RunStream. A resumed shard cuts its part back
// to the checkpointed offset, dropping the killed run's torn tail, and
// refuses to resume when the part is shorter than that offset. Only,
// Preload and WriteDeltaPath are analysis options and are refused, as is
// KeepShards: a kept cursor would outlive the part it points into.
func (st *Study) StreamDataset(outPath string, opts RunOptions) (DatasetStreamResult, error) {
	var res DatasetStreamResult
	if len(opts.Only) > 0 || opts.KeepShards || opts.Preload != nil || opts.WriteDeltaPath != "" {
		return res, fmt.Errorf("core: a dataset crawl covers every shard, consumes its shard files and " +
			"takes no epoch delta (no Only, KeepShards, Preload or WriteDeltaPath)")
	}
	names, _ := st.exchangeNamesKinds()
	runs := make([]*shardRun, len(names))
	for i, name := range names {
		runs[i] = &shardRun{idx: i, name: name, planned: st.Steps[i],
			part: &datasetPart{}, visits: map[string]*shardVisit{}}
	}
	e, err := st.Analyzer.newEngine(runs, len(runs), nil, opts,
		runIdentity{st.Config.Seed, st.Config.checkpointHash()})
	if err != nil {
		return res, err
	}
	defer func() {
		for _, sr := range runs {
			sr.part.close()
		}
	}()
	parts := make([]io.Reader, len(runs))
	for i, sr := range runs {
		if err := sr.part.open(partPath(outPath, i)); err != nil {
			return res, err
		}
		parts[i] = sr.part.f
	}
	if st.Config.DriveShortenerTraffic {
		st.driveShortenerTraffic()
	}
	if err := e.execute(st.liveSource); err != nil {
		return res, err
	}

	for _, sr := range runs {
		if _, err := sr.part.f.Seek(0, io.SeekStart); err != nil {
			return res, err
		}
		res.Records += sr.planned
		res.Failed += sr.part.failed
	}
	if err := writeAtomic(outPath, io.MultiReader(parts...)); err != nil {
		return res, fmt.Errorf("core: write dataset: %w", err)
	}
	// The dataset is durable: only now may its sources go.
	for i, sr := range runs {
		sr.part.close()
		os.Remove(partPath(outPath, i))
	}
	e.removeShards()
	return res, nil
}

// partPath names shard i's part file for the dataset at outPath.
func partPath(outPath string, i int) string {
	return fmt.Sprintf("%s.part%d", outPath, i)
}

// datasetPart is a dataset shard's part file and the cursor state its
// kind-2 checkpoint persists beside the shard's record count.
type datasetPart struct {
	f      *os.File
	line   bytes.Buffer
	failed int   // failed fetches among the part's records
	bytes  int64 // the part's length
}

// open opens the part at path and cuts it back to the cursor's offset:
// a fresh shard (offset 0) drops a stale part whole, a resumed one drops
// the killed run's uncheckpointed, possibly torn, tail. A part shorter
// than the offset lost checkpointed records, so the resume is refused.
func (p *datasetPart) open(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("core: dataset part: %w", err)
	}
	p.f = f
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if fi.Size() < p.bytes {
		return fmt.Errorf("core: part file %s is %d bytes, its checkpoint recorded %d — refusing to resume",
			path, fi.Size(), p.bytes)
	}
	if err := f.Truncate(p.bytes); err != nil {
		return err
	}
	_, err = f.Seek(p.bytes, io.SeekStart)
	return err
}

// append encodes rec as one JSONL line at the end of the part.
func (p *datasetPart) append(rec *crawler.Record) error {
	p.line.Reset()
	if err := json.NewEncoder(&p.line).Encode(datasetRecordOf(rec)); err != nil {
		return fmt.Errorf("core: encode dataset record: %w", err)
	}
	n, err := p.f.Write(p.line.Bytes())
	if err != nil {
		return fmt.Errorf("core: write %s: %w", p.f.Name(), err)
	}
	p.bytes += int64(n)
	if rec.FetchErr != "" {
		p.failed++
	}
	return nil
}

func (p *datasetPart) close() {
	if p.f != nil {
		p.f.Close()
		p.f = nil
	}
}

// datasetCursor is the kind-2 payload: a dataset shard's slot, its
// exchange, and how far its part file got — records written, how many
// of them were failed fetches, and the part's byte length. Unlike a
// kind-3 fold it carries no class counts: a crawl-only shard never
// classifies its records.
type datasetCursor struct {
	shardSlot
	exchange string
	records  int
	failed   int
	bytes    int64
}

func (sr *shardRun) cursor(nShards int) *datasetCursor {
	return &datasetCursor{shardSlot: sr.slot(nShards), exchange: sr.name,
		records: sr.startAt + sr.folded, failed: sr.part.failed, bytes: sr.part.bytes}
}

func encodeCursorPayload(c *datasetCursor) []byte {
	w := &ckptWriter{}
	w.slot(c.shardSlot)
	w.str(c.exchange)
	w.count(c.records)
	w.count(c.failed)
	w.uvarint(uint64(c.bytes))
	return w.buf
}

func decodeCursorPayload(r *ckptReader) (*datasetCursor, error) {
	c := &datasetCursor{}
	var err error
	if c.shardSlot, err = r.slot(); err != nil {
		return nil, err
	}
	if c.exchange, err = r.str(); err != nil {
		return nil, err
	}
	if c.records, err = r.count(0); err != nil {
		return nil, err
	}
	if c.failed, err = r.count(0); err != nil {
		return nil, err
	}
	b, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if b > 1<<62 {
		return nil, fmt.Errorf("core: checkpoint: byte offset %d out of range", b)
	}
	c.bytes = int64(b)
	if c.records > c.planned || c.failed > c.records {
		return nil, fmt.Errorf("core: checkpoint: dataset cursor has %d records (%d failed) of %d planned",
			c.records, c.failed, c.planned)
	}
	return c, nil
}
