package core

import (
	"encoding/binary"
	"hash/fnv"
	"strconv"
	"sync"

	"repro/internal/crawler"
	"repro/internal/obs"
	"repro/internal/urlutil"
)

// CacheStats summarizes verdict-cache effectiveness for one engine run.
// With the single-flight cache, Misses equals the number of distinct cache
// keys and Hits the number of records that reused an existing verdict, so
// both are deterministic regardless of worker count or scheduling.
type CacheStats struct {
	Hits   int
	Misses int
}

// recordIdentity names a record by the exact inputs verdictKey consumes,
// with the body taken by pointer+length instead of content. Served pages
// share one rendered byte array across every fetch (the web package's
// render cache), so equal identity implies equal bytes and therefore an
// equal key. Memo keys pin their body arrays, so a recycled allocation
// can never alias a stale identity.
type recordIdentity struct {
	entry, final, ctype string
	redirects           int
	body                *byte
	n                   int
}

// keyMemo memoizes verdictKey by record identity for one engine run: the
// key derivation — URL normalization plus an fnv pass over the whole body
// — runs once per shared body, so rotation's re-crawls of the same entry
// URL hash the body once instead of once per record. Records whose bodies
// bypass the render cache get fresh arrays each serve, miss the memo and
// pay the full derivation — slower, never wrong. The zero value is ready
// to use and safe for concurrent use.
type keyMemo struct {
	mu sync.RWMutex
	m  map[recordIdentity]string
}

// key returns verdictKey(rec). Callers must ensure len(rec.Body) > 0
// (cacheable does).
func (km *keyMemo) key(rec *crawler.Record) string {
	id := recordIdentity{rec.EntryURL, rec.FinalURL, rec.ContentType, rec.Redirects, &rec.Body[0], len(rec.Body)}
	km.mu.RLock()
	key, ok := km.m[id]
	km.mu.RUnlock()
	if ok {
		return key
	}
	key = verdictKey(rec)
	km.mu.Lock()
	if km.m == nil {
		km.m = make(map[recordIdentity]string)
	}
	// Capped like foldState.contentCats: past the limit the key is
	// recomputed per record rather than letting the memo pin one body
	// array per record when bodies bypass the render cache.
	if len(km.m) < identityMemoLimit {
		km.m[id] = key
	}
	km.mu.Unlock()
	return key
}

// verdictKey derives the cache key for a record: the normalized entry URL
// plus a digest of every other record field Inspect consumes (final URL,
// content type, redirect count, body). Two records agreeing on the key are
// indistinguishable to the detector, so sharing the verdict cannot change
// any output relative to inspecting both.
//
// The entry URL is keyed on its urlutil.Normalize form: the detector only
// ever consumes the URL through urlutil.Parse (host extraction, domain
// lookup, shortener match), under which two spellings that normalize
// identically — case-folded host, explicit default port — are the same
// URL. Keying on the raw string made such pairs miss the cache and
// double-counted cache.misses. URLs Normalize rejects fall back to the
// raw spelling: an unparseable URL is at worst uncached, never wrong.
func verdictKey(rec *crawler.Record) string {
	entry := rec.EntryURL
	if norm, err := urlutil.Normalize(entry); err == nil {
		entry = norm
	}
	h := fnv.New64a()
	h.Write([]byte(rec.FinalURL))
	h.Write([]byte{0})
	h.Write([]byte(rec.ContentType))
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(rec.Redirects))
	h.Write(n[:])
	h.Write(rec.Body)
	return entry + "\x00" + strconv.FormatUint(h.Sum64(), 16)
}

// cacheable reports whether a record's inspection may be memoized. Only
// the local-file scan path is: URL-only scans (empty body, or FileScan
// disabled) consult the live network with scanner user agents, where
// cloaking and per-request server state make repeat submissions
// observable, so they always run.
func (an *Analyzer) cacheable(rec *crawler.Record) bool {
	return an.Detector.FileScan && len(rec.Body) > 0
}

// inspect runs the detector over one regular record, through the cache
// when one is active and the record is eligible. pipeline.inspections
// counts actual detector-stack executions (not cache reuses): under the
// single-flight cache that is once per distinct key, so the counter stays
// deterministic across worker counts.
func (an *Analyzer) inspect(cache *ShardedVerdictCache, keys *keyMemo, rec *crawler.Record) Verdict {
	if cache == nil || !an.cacheable(rec) {
		an.Metrics.Counter("pipeline.inspections").Inc()
		return an.Detector.Inspect(*rec)
	}
	v, _ := cache.GetOrCompute(keys.key(rec), func() Verdict {
		an.Metrics.Counter("pipeline.inspections").Inc()
		return an.Detector.Inspect(*rec)
	})
	return v
}

// recordCounters are one shard worker's per-record metric handles:
// pipeline.records and pipeline.classified.<class>, indexed by class.
type recordCounters struct {
	records    obs.LazyCounter
	classified [Failed + 1]obs.LazyCounter
}

func newRecordCounters(reg *obs.Registry) *recordCounters {
	rc := &recordCounters{records: reg.Lazy("pipeline.records")}
	for c := Self; c <= Failed; c++ {
		rc.classified[c] = reg.Lazy("pipeline.classified." + c.String())
	}
	return rc
}

// recOutcome is the per-record result of the parallel scan phase.
type recOutcome struct {
	class ReferralClass
	v     Verdict
}

// scanOne classifies one record and, for regular referrals, runs the
// detector stack. exchangeName scopes the stage-tracer spans.
func (an *Analyzer) scanOne(cache *ShardedVerdictCache, keys *keyMemo, exchangeName string, rec *crawler.Record) recOutcome {
	span := an.Tracer.Start(exchangeName, obs.StageClassify)
	o := recOutcome{class: an.Classifier.Classify(*rec)}
	span.End()
	if o.class == Regular {
		scan := an.Tracer.Start(exchangeName, obs.StageScan)
		o.v = an.inspect(cache, keys, rec)
		scan.End()
	}
	return o
}
