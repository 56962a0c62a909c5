package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/exchange"
	"repro/internal/httpsim"
	"repro/internal/shortener"
	"repro/internal/urlutil"
)

// This file implements the mergeable shard half of the study engine
// (see engine.go for the scheduler): a shard is one exchange's partial
// study — its fold accumulator plus the shortener traffic its crawl
// generated — serialized as a SLUMCKPT kind-3 payload. Shards merge
// associatively and commutatively into one Analysis that is
// byte-identical to a single-process run, regardless of worker count,
// merge order, or how many kill/resume cycles produced them.
//
// The deterministic merge contract covers: the Analysis fold (Table I/II
// rows, category/TLD/content counters, redirect histogram, Figure 3
// series, distinct-URL/domain/short-URL sets), the Health taxonomy
// (failures, retries, error kinds) and the derived deterministic counters
// (Counters). Deliberately excluded, because they are timing- or
// schedule-dependent rather than record-determined: obs gauges and
// windowed-quantile histograms, tracer latencies, and per-shard
// cache-hit attribution (a shared single-flight cache charges the miss to
// whichever shard asked first — totals are deterministic, attribution is
// not).

// shardVisit is the shortener traffic one shard's crawl drove at a single
// short URL: a hit total plus the referrer/country breakdowns the live
// service handler would have recorded. Replaying it via
// Service.MergeHits reconstructs Table IV without re-crawling.
type shardVisit struct {
	hits      int
	referrers map[string]int
	countries map[string]int
}

// shardSlot is the header every per-shard checkpoint (kinds 2 and 3)
// starts with: which slice of the partition the shard is.
type shardSlot struct {
	// index identifies the shard (== the exchange's crawl-order index);
	// shards is the partition size it belongs to. Merging shards from
	// different partitions is refused.
	index  int
	shards int
	// planned is the shard's total record budget (the exchange's step
	// count); the shard's progress never exceeds it. A shard is complete
	// — and only then mergeable or joinable — when its progress equals
	// planned.
	planned int
}

// shardSnapshot is the serializable image of one analysis shard: its
// slot, its single-exchange fold state (whose folded count is the
// shard's progress), and its shortener visit deltas.
type shardSnapshot struct {
	shardSlot
	// fold holds exactly one exchange's accumulator.
	fold *foldSnapshot
	// visits maps canonical short URLs to the traffic this shard's crawl
	// (records [0, folded)) drove at them.
	visits map[string]*shardVisit
}

func (s *shardSnapshot) folded() int  { return s.fold.exchanges[0].folded }
func (s *shardSnapshot) name() string { return s.fold.exchanges[0].name }

// ---- codec ----

func (w *ckptWriter) slot(s shardSlot) {
	w.count(s.index)
	w.count(s.shards)
	w.count(s.planned)
}

func (r *ckptReader) slot() (shardSlot, error) {
	var s shardSlot
	for _, p := range []*int{&s.index, &s.shards, &s.planned} {
		v, err := r.count(0)
		if err != nil {
			return s, err
		}
		*p = v
	}
	if s.shards < 1 {
		return s, fmt.Errorf("core: shard: partition size %d must be >= 1", s.shards)
	}
	if s.index >= s.shards {
		return s, fmt.Errorf("core: shard: index %d out of range for %d shards", s.index, s.shards)
	}
	return s, nil
}

func encodeShardPayload(s *shardSnapshot) []byte {
	w := &ckptWriter{}
	w.slot(s.shardSlot)
	w.buf = append(w.buf, encodeFoldPayload(s.fold)...)
	urls := make([]string, 0, len(s.visits))
	for u := range s.visits {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	w.count(len(urls))
	for _, u := range urls {
		v := s.visits[u]
		w.str(u)
		w.count(v.hits)
		w.strMap(v.referrers)
		w.strMap(v.countries)
	}
	return w.buf
}

// decodeShardPayload parses and structurally validates a shard payload.
// Exercised directly by FuzzShardDecode: malformed input must produce an
// error, never a panic or an inconsistent snapshot.
func decodeShardPayload(r *ckptReader) (*shardSnapshot, error) {
	s := &shardSnapshot{}
	var err error
	if s.shardSlot, err = r.slot(); err != nil {
		return nil, err
	}
	if s.fold, err = decodeFoldPayload(r); err != nil {
		return nil, err
	}
	if len(s.fold.exchanges) != 1 {
		return nil, fmt.Errorf("core: shard: fold covers %d exchanges, want exactly 1", len(s.fold.exchanges))
	}
	if s.folded() > s.planned {
		return nil, fmt.Errorf("core: shard: folded %d exceeds planned %d", s.folded(), s.planned)
	}
	nVisits, err := r.count(3)
	if err != nil {
		return nil, err
	}
	s.visits = make(map[string]*shardVisit, nVisits)
	for i := 0; i < nVisits; i++ {
		u, err := r.str()
		if err != nil {
			return nil, err
		}
		v := &shardVisit{}
		if v.hits, err = r.count(0); err != nil {
			return nil, err
		}
		if v.referrers, err = r.strMap(); err != nil {
			return nil, err
		}
		if v.countries, err = r.strMap(); err != nil {
			return nil, err
		}
		if sumCounts(v.referrers) > v.hits || sumCounts(v.countries) > v.hits {
			return nil, fmt.Errorf("core: shard: visit %q attributes more referrers/countries than hits", u)
		}
		s.visits[u] = v
	}
	return s, nil
}

func sumCounts(m map[string]int) int {
	total := 0
	for _, n := range m {
		total += n
	}
	return total
}

// ---- visit recording ----

// shardVisitRecorder mirrors the shortener services' hit accounting into
// a per-shard delta map as the crawl runs. It must wrap the raw virtual
// internet and sit INSIDE the fault injector: injected faults (conn
// resets, synthesized 5xx, redirect loops) are fabricated without
// reaching the real service handler, so they must not be recorded as hits
// either. Each recorder is owned by exactly one shard goroutine — no
// locking (the services' own handlers stay mutex-guarded for the live
// accounting).
type shardVisitRecorder struct {
	inner  httpsim.RoundTripper
	reg    *shortener.Registry
	visits map[string]*shardVisit
}

func (t *shardVisitRecorder) RoundTrip(req *httpsim.Request) (*httpsim.Response, error) {
	resp, err := t.inner.RoundTrip(req)
	if err != nil || resp == nil || resp.StatusCode != 302 {
		return resp, err
	}
	p, perr := urlutil.Parse(req.URL)
	if perr != nil {
		return resp, err
	}
	host := strings.ToLower(p.Host)
	if _, ok := t.reg.Service(host); !ok {
		return resp, err
	}
	// A 302 from a registered shortener host is exactly the case where
	// Service.Handler recorded a hit; mirror its accounting.
	u := "http://" + host + p.Path
	v := t.visits[u]
	if v == nil {
		v = &shardVisit{referrers: map[string]int{}, countries: map[string]int{}}
		t.visits[u] = v
	}
	v.hits++
	if ref := urlutil.DomainOf(req.Referrer); ref != "" {
		v.referrers[ref]++
	}
	if req.Header != nil {
		if c := req.Header[shortener.CountryHeader]; c != "" {
			v.countries[c]++
		}
	}
	return resp, err
}

// ---- merging ----

// ShardMerger folds shard checkpoints into one Analysis. Add accepts
// shards in any order; the result is byte-deterministic regardless of
// merge order because every merged quantity is a sum, a union, or a
// replay keyed by the shard's own index. The merger refuses duplicate
// shard indices (double-counting), mismatched seeds, config hashes or
// partition sizes — merging state from two different studies silently
// would be worse than failing.
type ShardMerger struct {
	seed    uint64
	cfgHash uint64
	shards  int
	got     map[int]*shardSnapshot
}

// NewShardMerger returns an empty merger.
func NewShardMerger() *ShardMerger {
	return &ShardMerger{got: map[int]*shardSnapshot{}}
}

// Add merges one decoded shard checkpoint into the set.
func (m *ShardMerger) Add(c *Checkpoint) error {
	if c == nil || c.kind != ckptShard {
		kind := "nil"
		if c != nil {
			kind = c.KindName()
		}
		return fmt.Errorf("core: merge: not a shard checkpoint (kind %s)", kind)
	}
	return m.add(c.Seed, c.ConfigHash, c.shard)
}

func (m *ShardMerger) add(seed, cfgHash uint64, s *shardSnapshot) error {
	if len(m.got) == 0 {
		m.seed, m.cfgHash, m.shards = seed, cfgHash, s.shards
	} else {
		if seed != m.seed {
			return fmt.Errorf("core: merge: shard %d was produced under seed %d, set under %d — refusing to mix studies",
				s.index, seed, m.seed)
		}
		if cfgHash != m.cfgHash {
			return fmt.Errorf("core: merge: shard %d config hash %016x does not match the set's %016x — refusing to mix configurations",
				s.index, cfgHash, m.cfgHash)
		}
		if s.shards != m.shards {
			return fmt.Errorf("core: merge: shard %d belongs to a %d-shard partition, set is %d-shard — refusing to mix partitions",
				s.index, s.shards, m.shards)
		}
	}
	if s.index >= m.shards {
		return fmt.Errorf("core: merge: shard index %d out of range for %d shards", s.index, m.shards)
	}
	if prev, dup := m.got[s.index]; dup {
		return fmt.Errorf("core: merge: shard %d (%s) already merged — refusing to double-count", s.index, prev.name())
	}
	m.got[s.index] = s
	return nil
}

// Missing returns the absent shard indices, ascending.
func (m *ShardMerger) Missing() []int {
	var out []int
	for i := 0; i < m.shards; i++ {
		if _, ok := m.got[i]; !ok {
			out = append(out, i)
		}
	}
	return out
}

// incomplete describes what blocks a final merge: absent indices or
// shards whose fold stopped short of the plan. "" means mergeable.
func (m *ShardMerger) incomplete() string {
	if missing := m.Missing(); len(missing) > 0 {
		return fmt.Sprintf("missing shards %v", missing)
	}
	for i := 0; i < m.shards; i++ {
		if s := m.got[i]; s.folded() < s.planned {
			return fmt.Sprintf("shard %d (%s) is partial: %d of %d records folded", i, s.name(), s.folded(), s.planned)
		}
	}
	return ""
}

// ordered returns the merged shards in index order.
func (m *ShardMerger) ordered() []*shardSnapshot {
	idxs := make([]int, 0, len(m.got))
	for i := range m.got {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	out := make([]*shardSnapshot, 0, len(idxs))
	for _, i := range idxs {
		out = append(out, m.got[i])
	}
	return out
}

// Analysis merges the complete shard set into one final Analysis —
// element-identical (Verdicts and CacheStats aside) to a single-process
// run of the same study. Errors if any shard is missing or partial.
func (m *ShardMerger) Analysis() (*Analysis, error) {
	if len(m.got) == 0 {
		return nil, fmt.Errorf("core: merge: no shards added")
	}
	if msg := m.incomplete(); msg != "" {
		return nil, fmt.Errorf("core: merge: %s", msg)
	}
	fs, err := mergeFold(m.ordered())
	if err != nil {
		return nil, err
	}
	return fs.finish(CacheStats{}), nil
}

// ApplyVisits replays every merged shard's recorded shortener traffic
// into the registry via Service.MergeHits, reconstructing the Table IV
// hit statistics a live crawl would have produced. Shards and their
// visits replay in sorted order so error reporting is deterministic (the
// statistics themselves are order-invariant sums).
func (m *ShardMerger) ApplyVisits(reg *shortener.Registry) error {
	for _, s := range m.ordered() {
		urls := make([]string, 0, len(s.visits))
		for u := range s.visits {
			urls = append(urls, u)
		}
		sort.Strings(urls)
		for _, u := range urls {
			v := s.visits[u]
			p, err := urlutil.Parse(u)
			if err != nil {
				return fmt.Errorf("core: merge: shard %d visit %q: %w", s.index, u, err)
			}
			svc, ok := reg.Service(p.Host)
			if !ok {
				return fmt.Errorf("core: merge: shard %d visit %q: host is not a registered shortener", s.index, u)
			}
			code := strings.TrimPrefix(p.Path, "/")
			if err := svc.MergeHits(code, v.hits, v.referrers, v.countries); err != nil {
				return fmt.Errorf("core: merge: shard %d: %w", s.index, err)
			}
		}
	}
	return nil
}

// ValidateStudy checks the merged set against a freshly built (uncrawled)
// study of the configuration the merge claims to belong to: seed, config
// hash, partition size, and per-shard exchange names and step budgets.
func (m *ShardMerger) ValidateStudy(st *Study) error {
	if len(m.got) == 0 {
		return fmt.Errorf("core: merge: no shards added")
	}
	if m.seed != st.Config.Seed {
		return fmt.Errorf("core: merge: shards were produced under seed %d, study is seed %d", m.seed, st.Config.Seed)
	}
	if h := st.Config.checkpointHash(); m.cfgHash != h {
		return fmt.Errorf("core: merge: shard config hash %016x does not match study configuration %016x", m.cfgHash, h)
	}
	if m.shards != len(st.Exchanges) {
		return fmt.Errorf("core: merge: shards form a %d-way partition, study has %d exchanges", m.shards, len(st.Exchanges))
	}
	for _, s := range m.ordered() {
		if want := st.Exchanges[s.index].Config().Name; s.name() != want {
			return fmt.Errorf("core: merge: shard %d is exchange %q, study has %q", s.index, s.name(), want)
		}
		if s.planned != st.Steps[s.index] {
			return fmt.Errorf("core: merge: shard %d plans %d records, study plans %d", s.index, s.planned, st.Steps[s.index])
		}
	}
	return nil
}

// mergeFold merges shard snapshots — distinct indices, any order — into a
// foldState whose exchange slots are the distinct indices in ascending
// order. The result is independent of the input order: each slot receives
// exactly one exchange merge, and every global aggregate is commutative.
// FuzzShardMerge asserts that independence at the encoded-byte level.
func mergeFold(snaps []*shardSnapshot) (*foldState, error) {
	byIdx := make(map[int]*shardSnapshot, len(snaps))
	idxs := make([]int, 0, len(snaps))
	for _, s := range snaps {
		if _, dup := byIdx[s.index]; dup {
			return nil, fmt.Errorf("core: merge: duplicate shard index %d", s.index)
		}
		byIdx[s.index] = s
		idxs = append(idxs, s.index)
	}
	sort.Ints(idxs)
	slot := make(map[int]int, len(idxs))
	names := make([]string, len(idxs))
	kinds := make([]exchange.Kind, len(idxs))
	for pos, i := range idxs {
		slot[i] = pos
		es := &byIdx[i].fold.exchanges[0]
		names[pos] = es.name
		kinds[pos] = exchange.Kind(es.kind)
	}
	fs := newFoldState(nil, names, kinds)
	for _, s := range snaps {
		if err := fs.mergeExchangeSnap(slot[s.index], &s.fold.exchanges[0]); err != nil {
			return nil, err
		}
		fs.mergeGlobals(s.fold)
	}
	return fs, nil
}
