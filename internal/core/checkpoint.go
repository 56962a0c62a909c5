package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/stats"
)

// Checkpoint format: a versioned, deterministic, hand-rolled binary codec
// (no encoding/gob — gob serializes maps in random order, and we want the
// same state to always produce the same bytes).
//
//	magic    [8]byte  "SLUMCKPT"
//	version  u16      little-endian (currently 1)
//	kind     u8       2 = dataset shard cursor (slot header, exchange,
//	                  records, failed, part-file byte offset), 3 = engine
//	                  shard (slot header, single-exchange fold, visit
//	                  deltas), 4 = epoch delta; 1 was the retired
//	                  single-file analysis fold
//	seed     u64      study seed the state was produced under
//	cfghash  u64      fingerprint of every output-shaping StudyConfig field
//	payload  ...      kind-specific body (uvarints, length-prefixed strings,
//	                  maps with sorted keys, series as packed hit-bits)
//	checksum u64      FNV-64a over every preceding byte
//
// Every multi-byte fixed-width integer is little-endian; counts and
// non-negative integers travel as uvarints. Map keys and set members are
// emitted in sorted order, so encoding the same state twice yields
// byte-identical files. The trailing checksum turns truncation and bit
// rot into clean decode errors instead of partial resumes.

const (
	checkpointMagic   = "SLUMCKPT"
	checkpointVersion = 1
)

type checkpointKind uint8

const (
	// ckptRetiredAnalysis was the single-file analysis fold a
	// single-process run checkpointed to. Every run now checkpoints as
	// kind-3 shard files under a directory, and the decoder refuses kind 1
	// with an explanation rather than as an unknown kind.
	ckptRetiredAnalysis checkpointKind = 1
	ckptDataset         checkpointKind = 2
	ckptShard           checkpointKind = 3
	ckptEpochDelta      checkpointKind = 4
)

// Checkpoint is a decoded SLUMCKPT file: one shard of an engine run —
// either a dataset crawl's cursor into its part file, or a single
// exchange's partial accumulator plus the shortener traffic its crawl
// generated, mergeable with its sibling shards — or an epoch delta.
type Checkpoint struct {
	// Seed and ConfigHash identify the run the state belongs to; the
	// engine refuses to resume a shard under a different seed or
	// configuration (validateShard).
	Seed       uint64
	ConfigHash uint64

	kind   checkpointKind
	cursor *datasetCursor
	shard  *shardSnapshot
	delta  *EpochDelta
}

// checkpointHash fingerprints every StudyConfig field that shapes the
// record stream or the analysis output. Workers and DisableVerdictCache
// are excluded: output is invariant to both, so resuming under a
// different worker count is sound. The
// longitudinal fields (epochs, epoch index, churn, blacklist lag/decay)
// all shape the universe and therefore the stream, so a checkpoint taken
// under one longitudinal configuration refuses to resume under another;
// Epochs <= 0 normalizes to 1 so "no flag" and "-epochs 1" agree.
func (cfg StudyConfig) checkpointHash() uint64 {
	prof := cfg.FaultProfile
	if prof == "" {
		prof = "off"
	}
	epochs := cfg.Epochs
	if epochs <= 0 {
		epochs = 1
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "v%d|scale=%d|minmal=%d|minbenign=%d|short=%t|faults=%s|retries=%d",
		checkpointVersion, cfg.Scale, cfg.MinMalPerPool, cfg.MinBenignPerPool,
		cfg.DriveShortenerTraffic, prof, cfg.Retries)
	fmt.Fprintf(h, "|epochs=%d|epoch=%d|churn=%g|lag=%d|decay=%g",
		epochs, cfg.Epoch, cfg.ChurnFrac, cfg.BlacklistLag, cfg.BlacklistDecay)
	return h.Sum64()
}

// foldSnapshot is the serializable image of a foldState: per-exchange
// accumulators plus the global aggregates. Sets travel as sorted slices.
type foldSnapshot struct {
	exchanges  []exchangeSnap
	miscCount  int
	categories map[string]int
	tlds       map[string]int
	contents   map[string]int
	redirects  map[int]int
	errorKinds map[string]int
	domainSet  []string
	shortSet   []string
	distinct   []string
}

// exchangeSnap is one exchange's snapshot. The Figure 3 series is packed
// as one bit per observation (the cumulative series increments by 0 or 1).
type exchangeSnap struct {
	name       string
	kind       int
	folded     int
	self       int
	popular    int
	regular    int
	malicious  int
	failed     int
	retries    int
	kinds      map[string]int
	domains    []string
	malDomains []string
	seriesBits []byte
}

// snapshot captures the foldState's current value. The foldState remains
// usable; the snapshot shares nothing with it.
func (fs *foldState) snapshot() *foldSnapshot {
	snap := &foldSnapshot{
		miscCount:  fs.out.MiscCount,
		categories: counterMap(fs.out.CategoryCounts),
		tlds:       counterMap(fs.out.TLDCounts),
		contents:   counterMap(fs.out.ContentCategories),
		redirects:  histMap(fs.out.RedirectHist),
		errorKinds: counterMap(fs.out.Health.ErrorKinds),
		domainSet:  sortedSet(fs.domainSet),
		shortSet:   sortedSet(fs.shortSet),
		distinct:   sortedSet(fs.distinct),
	}
	for _, ef := range fs.exchanges {
		kinds := make(map[string]int, len(ef.kinds))
		for k, v := range ef.kinds {
			kinds[k] = v
		}
		snap.exchanges = append(snap.exchanges, exchangeSnap{
			name:       ef.name,
			kind:       int(ef.kind),
			folded:     ef.folded,
			self:       ef.row.Self,
			popular:    ef.row.Popular,
			regular:    ef.row.Regular,
			malicious:  ef.row.Malicious,
			failed:     ef.row.Failed,
			retries:    ef.health.Retries,
			kinds:      kinds,
			domains:    sortedSet(ef.domains),
			malDomains: sortedSet(ef.malDomains),
			seriesBits: ef.series.Bits(),
		})
	}
	return snap
}

// restore hydrates a freshly built foldState from a snapshot. The
// snapshot's exchanges must match the foldState's (same names, same
// order) — a mismatch means the checkpoint belongs to a different rig.
func (fs *foldState) restore(snap *foldSnapshot) error {
	if len(snap.exchanges) != len(fs.exchanges) {
		return fmt.Errorf("core: checkpoint covers %d exchanges, study has %d", len(snap.exchanges), len(fs.exchanges))
	}
	for i := range snap.exchanges {
		if err := fs.mergeExchangeSnap(i, &snap.exchanges[i]); err != nil {
			return err
		}
	}
	fs.mergeGlobals(snap)
	return nil
}

// mergeExchangeSnap additively folds one exchange snapshot into slot i.
// Every field is a sum, a set union or a bit append, so merging is
// commutative across slots; within a slot it must be the only contribution
// (the Figure 3 series appends in record order — two partial series for
// the same exchange would interleave wrongly, which is exactly what the
// shard merger's duplicate-index guard exists to prevent).
func (fs *foldState) mergeExchangeSnap(i int, es *exchangeSnap) error {
	ef := fs.exchanges[i]
	if es.name != ef.name {
		return fmt.Errorf("core: checkpoint exchange %d is %q, study has %q", i, es.name, ef.name)
	}
	ef.row.Crawled += es.folded
	ef.row.Self += es.self
	ef.row.Popular += es.popular
	ef.row.Regular += es.regular
	ef.row.Malicious += es.malicious
	ef.row.Failed += es.failed
	ef.health.Failed += es.failed
	ef.health.Retries += es.retries
	ef.folded += es.folded
	for k, v := range es.kinds {
		ef.kinds[k] += v
	}
	for _, d := range es.domains {
		ef.domains[d] = true
	}
	for _, d := range es.malDomains {
		ef.malDomains[d] = true
	}
	ef.series.ObserveBits(es.seriesBits, es.folded)
	return nil
}

// mergeGlobals additively folds a snapshot's cross-exchange aggregates:
// counter sums, histogram replays and set unions — all commutative and
// associative, which is what makes shard merging order-invariant.
func (fs *foldState) mergeGlobals(snap *foldSnapshot) {
	fs.out.MiscCount += snap.miscCount
	restoreCounter(fs.out.CategoryCounts, snap.categories)
	restoreCounter(fs.out.TLDCounts, snap.tlds)
	restoreCounter(fs.out.ContentCategories, snap.contents)
	restoreCounter(fs.out.Health.ErrorKinds, snap.errorKinds)
	for v, c := range snap.redirects {
		for i := 0; i < c; i++ {
			fs.out.RedirectHist.Observe(v)
		}
	}
	for _, d := range snap.domainSet {
		fs.domainSet[d] = true
	}
	for _, s := range snap.shortSet {
		fs.shortSet[s] = true
	}
	for _, u := range snap.distinct {
		fs.distinct[u] = true
	}
}

func counterMap(c *stats.Counter) map[string]int {
	out := make(map[string]int, c.Len())
	for _, it := range c.Items() {
		out[it.Key] = it.Count
	}
	return out
}

func restoreCounter(c *stats.Counter, m map[string]int) {
	for k, v := range m {
		c.AddN(k, v)
	}
}

func histMap(h *stats.IntHist) map[int]int {
	out := map[int]int{}
	for _, b := range h.Buckets() {
		if b.Count > 0 {
			out[b.Value] = b.Count
		}
	}
	return out
}

// ---- encoding ----

type ckptWriter struct{ buf []byte }

func (w *ckptWriter) u16(v uint16) { w.buf = append(w.buf, byte(v), byte(v>>8)) }

func (w *ckptWriter) u64(v uint64) {
	for i := 0; i < 8; i++ {
		w.buf = append(w.buf, byte(v>>(8*i)))
	}
}

func (w *ckptWriter) uvarint(v uint64) {
	for v >= 0x80 {
		w.buf = append(w.buf, byte(v)|0x80)
		v >>= 7
	}
	w.buf = append(w.buf, byte(v))
}

func (w *ckptWriter) count(n int) { w.uvarint(uint64(n)) }

func (w *ckptWriter) str(s string) {
	w.count(len(s))
	w.buf = append(w.buf, s...)
}

func (w *ckptWriter) strs(ss []string) {
	w.count(len(ss))
	for _, s := range ss {
		w.str(s)
	}
}

func (w *ckptWriter) strMap(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.count(len(keys))
	for _, k := range keys {
		w.str(k)
		w.count(m[k])
	}
}

func (w *ckptWriter) intMap(m map[int]int) {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	w.count(len(keys))
	for _, k := range keys {
		w.count(k)
		w.count(m[k])
	}
}

// encodeCheckpoint assembles the full file image: header, payload,
// trailing checksum.
func encodeCheckpoint(kind checkpointKind, seed, cfgHash uint64, payload []byte) []byte {
	w := &ckptWriter{buf: make([]byte, 0, len(payload)+64)}
	w.buf = append(w.buf, checkpointMagic...)
	w.u16(checkpointVersion)
	w.buf = append(w.buf, byte(kind))
	w.u64(seed)
	w.u64(cfgHash)
	w.buf = append(w.buf, payload...)
	h := fnv.New64a()
	h.Write(w.buf)
	w.u64(h.Sum64())
	return w.buf
}

func encodeFoldPayload(snap *foldSnapshot) []byte {
	w := &ckptWriter{}
	w.count(len(snap.exchanges))
	for _, es := range snap.exchanges {
		w.str(es.name)
		w.count(es.kind)
		w.count(es.folded)
		w.count(es.self)
		w.count(es.popular)
		w.count(es.regular)
		w.count(es.malicious)
		w.count(es.failed)
		w.count(es.retries)
		w.strMap(es.kinds)
		w.strs(es.domains)
		w.strs(es.malDomains)
		w.buf = append(w.buf, es.seriesBits...)
	}
	w.count(snap.miscCount)
	w.strMap(snap.categories)
	w.strMap(snap.tlds)
	w.strMap(snap.contents)
	w.intMap(snap.redirects)
	w.strMap(snap.errorKinds)
	w.strs(snap.domainSet)
	w.strs(snap.shortSet)
	w.strs(snap.distinct)
	return w.buf
}

// writeCheckpointFile persists a checkpoint durably and atomically
// (writeAtomic).
func writeCheckpointFile(path string, kind checkpointKind, seed, cfgHash uint64, payload []byte) error {
	if err := writeAtomic(path, bytes.NewReader(encodeCheckpoint(kind, seed, cfgHash, payload))); err != nil {
		return fmt.Errorf("core: write checkpoint: %w", err)
	}
	return nil
}

// writeAtomic persists r's bytes at path durably and atomically: they
// land in a sibling temp file, which is fsynced before it is renamed
// into place, and the directory is fsynced after the rename. A crash at
// any point therefore leaves either the previous file or the new one
// under path — never an empty or truncated file, which a rename of
// unsynced data can produce after power loss.
func writeAtomic(path string, r io.Reader) error {
	tmp := path + ".tmp"
	if err := writeSynced(tmp, r); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// writeSynced copies r to path and fsyncs it before closing.
func writeSynced(path string, r io.Reader) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, r); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ---- decoding ----

type ckptReader struct {
	data []byte
	off  int
}

func (r *ckptReader) remaining() int { return len(r.data) - r.off }

func (r *ckptReader) bytes(n int) ([]byte, error) {
	if n < 0 || n > r.remaining() {
		return nil, fmt.Errorf("core: checkpoint: truncated (need %d bytes, have %d)", n, r.remaining())
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *ckptReader) u16() (uint16, error) {
	b, err := r.bytes(2)
	if err != nil {
		return 0, err
	}
	return uint16(b[0]) | uint16(b[1])<<8, nil
}

func (r *ckptReader) u64() (uint64, error) {
	b, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v, nil
}

func (r *ckptReader) uvarint() (uint64, error) {
	var v uint64
	for shift := 0; shift < 64; shift += 7 {
		if r.off >= len(r.data) {
			return 0, fmt.Errorf("core: checkpoint: truncated varint")
		}
		b := r.data[r.off]
		r.off++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
	}
	return 0, fmt.Errorf("core: checkpoint: varint overflow")
}

// count reads a non-negative count and sanity-bounds it: a count of N
// items always implies at least N*min bytes still to read, so corrupt
// headers cannot trigger huge allocations.
func (r *ckptReader) count(min int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if min > 0 && v > uint64(r.remaining()/min) {
		return 0, fmt.Errorf("core: checkpoint: count %d exceeds remaining data", v)
	}
	if v > uint64(int(^uint(0)>>1)) {
		return 0, fmt.Errorf("core: checkpoint: count %d overflows int", v)
	}
	return int(v), nil
}

func (r *ckptReader) str() (string, error) {
	n, err := r.count(1)
	if err != nil {
		return "", err
	}
	b, err := r.bytes(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (r *ckptReader) strs() ([]string, error) {
	n, err := r.count(1)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		s, err := r.str()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (r *ckptReader) strMap() (map[string]int, error) {
	n, err := r.count(2)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int, n)
	for i := 0; i < n; i++ {
		k, err := r.str()
		if err != nil {
			return nil, err
		}
		v, err := r.count(0)
		if err != nil {
			return nil, err
		}
		out[k] = v
	}
	return out, nil
}

func (r *ckptReader) intMap() (map[int]int, error) {
	n, err := r.count(2)
	if err != nil {
		return nil, err
	}
	out := make(map[int]int, n)
	for i := 0; i < n; i++ {
		k, err := r.count(0)
		if err != nil {
			return nil, err
		}
		v, err := r.count(0)
		if err != nil {
			return nil, err
		}
		out[k] = v
	}
	return out, nil
}

// LoadCheckpoint reads and fully validates a checkpoint file: magic,
// version, checksum and structural integrity. Truncated, corrupted or
// foreign files produce a clean error — never a partial Checkpoint.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: load checkpoint: %w", err)
	}
	c, err := decodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("core: load checkpoint %s: %w", filepath.Base(path), err)
	}
	return c, nil
}

// decodeCheckpoint parses a full checkpoint image. Exercised directly by
// FuzzCheckpointDecode: it must return an error on malformed input, never
// panic or over-allocate.
func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	minLen := len(checkpointMagic) + 2 + 1 + 8 + 8 + 8
	if len(data) < minLen {
		return nil, fmt.Errorf("core: checkpoint: file too short (%d bytes)", len(data))
	}
	body, sum := data[:len(data)-8], data[len(data)-8:]
	h := fnv.New64a()
	h.Write(body)
	var want uint64
	for i := 0; i < 8; i++ {
		want |= uint64(sum[i]) << (8 * i)
	}
	if h.Sum64() != want {
		return nil, fmt.Errorf("core: checkpoint: checksum mismatch (file truncated or corrupted)")
	}

	r := &ckptReader{data: body}
	magic, _ := r.bytes(len(checkpointMagic))
	if string(magic) != checkpointMagic {
		return nil, fmt.Errorf("core: checkpoint: bad magic %q", magic)
	}
	version, err := r.u16()
	if err != nil {
		return nil, err
	}
	if version != checkpointVersion {
		return nil, fmt.Errorf("core: checkpoint: unsupported version %d (want %d)", version, checkpointVersion)
	}
	kindB, err := r.bytes(1)
	if err != nil {
		return nil, err
	}
	c := &Checkpoint{kind: checkpointKind(kindB[0])}
	if c.Seed, err = r.u64(); err != nil {
		return nil, err
	}
	if c.ConfigHash, err = r.u64(); err != nil {
		return nil, err
	}
	switch c.kind {
	case ckptRetiredAnalysis:
		return nil, fmt.Errorf("core: checkpoint: kind 1 (single-file analysis checkpoint) is no longer supported — " +
			"runs now checkpoint per shard under a directory; delete the file and rerun with a checkpoint directory")
	case ckptDataset:
		if c.cursor, err = decodeCursorPayload(r); err != nil {
			return nil, err
		}
	case ckptShard:
		if c.shard, err = decodeShardPayload(r); err != nil {
			return nil, err
		}
	case ckptEpochDelta:
		if c.delta, err = decodeEpochDeltaPayload(r); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("core: checkpoint: unknown payload kind %d", c.kind)
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("core: checkpoint: %d trailing bytes", r.remaining())
	}
	return c, nil
}

func decodeFoldPayload(r *ckptReader) (*foldSnapshot, error) {
	nEx, err := r.count(8)
	if err != nil {
		return nil, err
	}
	snap := &foldSnapshot{}
	for i := 0; i < nEx; i++ {
		var es exchangeSnap
		if es.name, err = r.str(); err != nil {
			return nil, err
		}
		ints := []*int{&es.kind, &es.folded, &es.self, &es.popular, &es.regular,
			&es.malicious, &es.failed, &es.retries}
		for _, p := range ints {
			if *p, err = r.count(0); err != nil {
				return nil, err
			}
		}
		if es.kinds, err = r.strMap(); err != nil {
			return nil, err
		}
		if es.domains, err = r.strs(); err != nil {
			return nil, err
		}
		if es.malDomains, err = r.strs(); err != nil {
			return nil, err
		}
		nBits := (es.folded + 7) / 8
		if es.seriesBits, err = r.bytes(nBits); err != nil {
			return nil, err
		}
		if es.self+es.popular+es.regular+es.failed != es.folded {
			return nil, fmt.Errorf("core: checkpoint: exchange %q class counts do not sum to folded count", es.name)
		}
		snap.exchanges = append(snap.exchanges, es)
	}
	if snap.miscCount, err = r.count(0); err != nil {
		return nil, err
	}
	if snap.categories, err = r.strMap(); err != nil {
		return nil, err
	}
	if snap.tlds, err = r.strMap(); err != nil {
		return nil, err
	}
	if snap.contents, err = r.strMap(); err != nil {
		return nil, err
	}
	if snap.redirects, err = r.intMap(); err != nil {
		return nil, err
	}
	if snap.errorKinds, err = r.strMap(); err != nil {
		return nil, err
	}
	if snap.domainSet, err = r.strs(); err != nil {
		return nil, err
	}
	if snap.shortSet, err = r.strs(); err != nil {
		return nil, err
	}
	if snap.distinct, err = r.strs(); err != nil {
		return nil, err
	}
	return snap, nil
}

// KindName reports the payload kind name without exposing the enum.
func (c *Checkpoint) KindName() string { return c.kind.String() }

func (k checkpointKind) String() string {
	switch k {
	case ckptDataset:
		return "dataset"
	case ckptShard:
		return "shard"
	case ckptEpochDelta:
		return "epoch-delta"
	}
	return fmt.Sprintf("unknown(%d)", uint8(k))
}
