package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/crawler"
	"repro/internal/exchange"
	"repro/internal/har"
	"repro/internal/httpsim"
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
// writes the JSONL dataset to outPath with bounded memory and, with a
// non-empty harDir, one HAR archive per exchange there (HARFileName) in
// the same pass. The engine's per-record step for a dataset shard (see
// datasetPart.append) appends each record to the shard's part files;
// when every shard is complete each exchange's HAR parts are wrapped in
// the log envelope and the JSONL parts joined in exchange order, each
// into a synced temp file renamed into place — byte-identical to
// har.Encode of the whole log and to the records' JSONL lines in crawl
// order. Shard scheduling, stop and abort, checkpoints (kind 2, a cursor
// into the parts) and their resume are the engine's, as in RunStream. A
// resumed shard cuts each part back to its checkpointed offset, dropping
// the killed run's torn tail, and refuses to resume when a part is
// shorter than its offset or the cursor's HAR capture differs from this
// crawl's. Only, Preload and WriteDeltaPath are analysis options and are
// refused, as is KeepShards: a kept cursor would outlive the parts it
// points into.
func (st *Study) StreamDataset(outPath, harDir string, opts RunOptions) (DatasetStreamResult, error) {
	var res DatasetStreamResult
	if len(opts.Only) > 0 || opts.KeepShards || opts.Preload != nil || opts.WriteDeltaPath != "" {
		return res, fmt.Errorf("core: a dataset crawl covers every shard, consumes its shard files and " +
			"takes no epoch delta (no Only, KeepShards, Preload or WriteDeltaPath)")
	}
	names, _ := st.exchangeNamesKinds()
	runs := make([]*shardRun, len(names))
	for i, name := range names {
		p := &datasetPart{parts: []*part{{path: partPath(outPath, i)}}}
		if harDir != "" {
			p.archive = filepath.Join(harDir, HARFileName(name))
			p.parts = append(p.parts, &part{path: p.archive + ".pages"}, &part{path: p.archive + ".entries"})
		}
		runs[i] = &shardRun{idx: i, name: name, planned: st.Steps[i], part: p, visits: map[string]*shardVisit{}}
	}
	e, err := st.Analyzer.newEngine(runs, len(runs), nil, opts,
		runIdentity{st.Config.Seed, st.Config.checkpointHash()})
	if err != nil {
		return res, err
	}
	defer func() {
		for _, sr := range runs {
			for _, q := range sr.part.parts {
				q.close()
			}
		}
	}()
	if harDir != "" {
		if err := os.MkdirAll(harDir, 0o755); err != nil {
			return res, fmt.Errorf("core: HAR directory: %w", err)
		}
	}
	for _, sr := range runs {
		for _, q := range sr.part.parts {
			if err := q.open(); err != nil {
				return res, err
			}
		}
	}
	if st.Config.DriveShortenerTraffic {
		st.driveShortenerTraffic()
	}
	if err := e.execute(st.liveSource); err != nil {
		return res, err
	}

	datasets := make([]io.Reader, len(runs))
	for i, sr := range runs {
		p := sr.part
		if p.archive != "" {
			if err := writeAtomic(p.archive, har.JoinParts(p.parts[1].section(), p.parts[2].section())); err != nil {
				return res, fmt.Errorf("core: write HAR archive: %w", err)
			}
		}
		datasets[i] = p.parts[0].section()
		res.Records += sr.planned
		res.Failed += p.failed
	}
	if err := writeAtomic(outPath, io.MultiReader(datasets...)); err != nil {
		return res, fmt.Errorf("core: write dataset: %w", err)
	}
	// The dataset and the archives are durable: only now may their
	// sources go.
	for _, sr := range runs {
		for _, q := range sr.part.parts {
			q.close()
			os.Remove(q.path)
		}
	}
	e.removeShards()
	return res, nil
}

// partPath names shard i's part file for the dataset at outPath.
func partPath(outPath string, i int) string {
	return fmt.Sprintf("%s.part%d", outPath, i)
}

// part is one append-only part file; its length is the offset a kind-2
// cursor records for it.
type part struct {
	path  string
	f     *os.File
	bytes int64
}

// open opens the part and cuts it back to the cursor's offset: a fresh
// shard (offset 0) drops a stale part whole, a resumed one drops the
// killed run's uncheckpointed, possibly torn, tail. A part shorter than
// the offset lost checkpointed records, so the resume is refused.
func (p *part) open() error {
	f, err := os.OpenFile(p.path, os.O_RDWR|os.O_CREATE, 0o644)
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
			p.path, fi.Size(), p.bytes)
	}
	if err := f.Truncate(p.bytes); err != nil {
		return err
	}
	_, err = f.Seek(p.bytes, io.SeekStart)
	return err
}

// write appends b to the part.
func (p *part) write(b []byte) error {
	n, err := p.f.Write(b)
	p.bytes += int64(n)
	if err != nil {
		return fmt.Errorf("core: write %s: %w", p.path, err)
	}
	return nil
}

// section reads the part's content.
func (p *part) section() *io.SectionReader { return io.NewSectionReader(p.f, 0, p.bytes) }

func (p *part) close() {
	if p.f != nil {
		p.f.Close()
		p.f = nil
	}
}

// datasetPart is a dataset shard's output — its JSONL part and, with HAR
// capture, its exchange's HAR pages and entries parts, each a
// comma-separated run of har.AppendElement elements — and the cursor
// state its kind-2 checkpoint persists beside the shard's record count.
type datasetPart struct {
	parts  []*part
	failed int // failed fetches among the shard's records
	line   bytes.Buffer
	// archive is the HAR archive the HAR parts join into ("" without HAR
	// capture), and pages the HAR pages captured so far: the next one is
	// page_{pages+1}.
	archive string
	pages   int
	buf     []byte
	entries []har.Entry
}

// append encodes rec as one JSONL line at the end of the JSONL part and,
// with HAR capture, a successful record's HAR page and entries — built
// from the fetch result and page clock the crawler handed the record
// with — at the end of the HAR parts.
func (p *datasetPart) append(rec *crawler.Record, res *httpsim.Result, pageClock time.Time) error {
	p.line.Reset()
	if err := json.NewEncoder(&p.line).Encode(datasetRecordOf(rec)); err != nil {
		return fmt.Errorf("core: encode dataset record: %w", err)
	}
	if err := p.parts[0].write(p.line.Bytes()); err != nil {
		return err
	}
	if rec.FetchErr != "" {
		p.failed++
		return nil
	}
	if p.archive == "" {
		return nil
	}
	p.pages++
	page := har.NewPage(p.pages, rec.EntryURL, pageClock)
	pages, entries := p.parts[1], p.parts[2]
	var err error
	if p.buf, err = har.AppendElement(p.buf[:0], pages.bytes, &page); err != nil {
		return err
	}
	if err := pages.write(p.buf); err != nil {
		return err
	}
	p.entries = har.AppendResult(p.entries[:0], page.ID, crawler.BrowserUA, pageClock, res)
	p.buf = p.buf[:0]
	for i := range p.entries {
		if p.buf, err = har.AppendElement(p.buf, entries.bytes+int64(len(p.buf)), &p.entries[i]); err != nil {
			return err
		}
	}
	return entries.write(p.buf)
}

// datasetCursor is the kind-2 payload: a dataset shard's slot, its
// exchange, and how far its parts got — records written, how many of
// them were failed fetches, and each part's byte length (the JSONL
// part's, then with HAR capture the HAR pages and entries parts'). The
// next HAR page is page_{records-failed+1}. Unlike a kind-3 fold it
// carries no class counts: a crawl-only shard never classifies its
// records.
type datasetCursor struct {
	shardSlot
	exchange string
	records  int
	failed   int
	offsets  []int64
}

func (sr *shardRun) cursor(nShards int) *datasetCursor {
	c := &datasetCursor{shardSlot: sr.slot(nShards), exchange: sr.name,
		records: sr.startAt + sr.folded, failed: sr.part.failed}
	for _, q := range sr.part.parts {
		c.offsets = append(c.offsets, q.bytes)
	}
	return c
}

// restore resumes the shard's output from a validated cursor; opening
// the parts then cuts them back to its offsets.
func (p *datasetPart) restore(c *datasetCursor) {
	p.failed, p.pages = c.failed, c.records-c.failed
	for i, q := range p.parts {
		q.bytes = c.offsets[i]
	}
}

func encodeCursorPayload(c *datasetCursor) []byte {
	w := &ckptWriter{}
	w.slot(c.shardSlot)
	w.str(c.exchange)
	w.count(c.records)
	w.count(c.failed)
	for _, b := range c.offsets {
		w.uvarint(uint64(b))
	}
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
	parts := 1
	for i := 0; i < parts; i++ {
		b, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if b > 1<<62 {
			return nil, fmt.Errorf("core: checkpoint: byte offset %d out of range", b)
		}
		c.offsets = append(c.offsets, int64(b))
		if i == 0 && r.remaining() > 0 {
			parts = 3 // HAR capture: the pages and entries parts' offsets follow
		}
	}
	if c.records > c.planned || c.failed > c.records {
		return nil, fmt.Errorf("core: checkpoint: dataset cursor has %d records (%d failed) of %d planned",
			c.records, c.failed, c.planned)
	}
	return c, nil
}
