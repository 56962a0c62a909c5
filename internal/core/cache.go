package core

import (
	"container/list"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ShardedCacheConfig tunes NewShardedVerdictCache.
type ShardedCacheConfig struct {
	// Shards is the number of independently-locked stripes. Rounded up to
	// a power of two; <= 0 uses 16. More shards means less lock contention
	// under concurrent scans at the cost of slightly coarser LRU ordering
	// (each stripe maintains its own recency list).
	Shards int
	// Capacity is the total entry budget across all shards; <= 0 uses
	// 4096. The stripes' shares sum to exactly Capacity (a Capacity below
	// Shards means fewer stripes); when a stripe exceeds its share, its
	// least-recently-used entries are evicted.
	Capacity int
	// TTL bounds how long a completed verdict may be served. Zero or
	// negative disables time-based expiry (capacity eviction still
	// applies). Expiry is checked lazily on lookup.
	TTL time.Duration
	// Now overrides the clock (tests); nil uses time.Now.
	Now func() time.Time
	// Metrics, when set, mirrors the cache counters to
	// verdictcache.{hits,misses,evictions,expired}.
	Metrics *obs.Registry
}

// ShardedCacheStats is a point-in-time summary of cache effectiveness.
type ShardedCacheStats struct {
	// Hits counts lookups served from a live entry (including joins on an
	// in-flight computation); Misses counts lookups that had to compute,
	// plus each preloaded entry's first lookup.
	Hits   int64
	Misses int64
	// Evictions counts capacity-pressure removals; Expired counts entries
	// dropped because their TTL lapsed.
	Evictions int64
	Expired   int64
	// Entries is the current live-entry count across all shards.
	Entries int
}

// HitRate is Hits / (Hits + Misses), or 0 on an empty cache.
func (s ShardedCacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// ShardedVerdictCache is the single-flight per-URL verdict memo. The
// first lookup of a key runs compute; every later lookup — the common case
// under exchange rotation, which re-surfs the same entry URLs hundreds of
// times per crawl — reuses the verdict, and concurrent requesters of one
// key share a single computation. Keys are spread over mutex-striped
// shards, each with its own recency list, capacity eviction and optional
// TTL expiry, and hit/miss/evict counters.
//
// Two kinds of owner use it. The study engine builds one per run, one
// stripe sized so nothing is ever evicted (so CacheStats are exact), and
// carries verdicts across epochs with Preload and Export. The scan
// service keeps one across requests, bounding entry count and staleness:
// a verdict is a pure function of the key, and the TTL caps how long a
// takedown or new blacklisting takes to be observed.
type ShardedVerdictCache struct {
	shards []verdictShard
	mask   uint64
	ttl    time.Duration
	now    func() time.Time

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	expired   atomic.Int64

	// obs mirrors, resolved once at construction (nil-safe no-ops when no
	// registry was configured).
	mHits, mMisses, mEvictions, mExpired *obs.Counter
}

type verdictShard struct {
	mu      sync.Mutex
	cap     int // this stripe's share of Capacity
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
}

// shardEntry is one cached (or in-flight) verdict. ready is closed when v
// and expires are final; both are written exactly once, before the close,
// so any reader that observed the close reads them race-free.
type shardEntry struct {
	key     string
	ready   chan struct{}
	v       Verdict
	expires time.Time // zero when no TTL is configured
	// seeded marks an entry preloaded from a prior epoch's delta that has
	// not been looked up yet. The first lookup clears it and counts as a
	// MISS: that is what a full re-crawl would have recorded for the key,
	// so CacheStats — which feed the report — stay byte-identical between
	// delta mode and a full run. Guarded by the stripe's mu.
	seeded bool
}

// NewShardedVerdictCache builds an empty cache.
func NewShardedVerdictCache(cfg ShardedCacheConfig) *ShardedVerdictCache {
	shards := cfg.Shards
	if shards <= 0 {
		shards = 16
	}
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = 4096
	}
	// Round up to a power of two so shard selection is a mask, then halve
	// back down until every stripe holds at least one entry.
	n := 1
	for n < shards {
		n <<= 1
	}
	for n > capacity {
		n >>= 1
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	c := &ShardedVerdictCache{
		shards:     make([]verdictShard, n),
		mask:       uint64(n - 1),
		ttl:        cfg.TTL,
		now:        now,
		mHits:      cfg.Metrics.Counter("verdictcache.hits"),
		mMisses:    cfg.Metrics.Counter("verdictcache.misses"),
		mEvictions: cfg.Metrics.Counter("verdictcache.evictions"),
		mExpired:   cfg.Metrics.Counter("verdictcache.expired"),
	}
	// Per-stripe caps sum to exactly Capacity: the first capacity%n
	// stripes take one entry more than the rest.
	for i := range c.shards {
		sh := &c.shards[i]
		sh.cap = capacity / n
		if i < capacity%n {
			sh.cap++
		}
		sh.entries = make(map[string]*list.Element)
		sh.lru = list.New()
	}
	return c
}

func (c *ShardedVerdictCache) shard(key string) *verdictShard {
	if c.mask == 0 {
		return &c.shards[0]
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	return &c.shards[h.Sum64()&c.mask]
}

// lookupLocked finds a live entry for key in sh and charges the lookup,
// enforcing TTL lazily: an expired entry is removed and reported as absent
// (uncharged). A found entry counts as a hit, except a seeded entry's
// first lookup, which counts as the miss a full run would have recorded.
// Caller holds sh.mu.
func (c *ShardedVerdictCache) lookupLocked(sh *verdictShard, key string) (*shardEntry, bool) {
	el, ok := sh.entries[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*shardEntry)
	stale := false
	if c.ttl > 0 {
		select {
		case <-e.ready:
			// Completed entry: enforce TTL lazily at lookup time.
			stale = c.now().After(e.expires)
		default:
			// Still computing: joinable, never stale.
		}
	}
	if stale {
		sh.lru.Remove(el)
		delete(sh.entries, key)
		c.expired.Add(1)
		c.mExpired.Inc()
		return nil, false
	}
	sh.lru.MoveToFront(el)
	if e.seeded {
		e.seeded = false
		c.misses.Add(1)
		c.mMisses.Inc()
	} else {
		c.hits.Add(1)
		c.mHits.Inc()
	}
	return e, true
}

// insertLocked makes e the stripe's most recent entry and evicts the
// least-recently-used tail past the stripe's cap. Evicting an entry that
// is still computing is harmless: its waiters hold the entry pointer and
// still receive the verdict; the entry is simply no longer findable for
// reuse. Caller holds sh.mu.
func (c *ShardedVerdictCache) insertLocked(sh *verdictShard, e *shardEntry) {
	el := sh.lru.PushFront(e)
	sh.entries[e.key] = el
	for len(sh.entries) > sh.cap {
		tail := sh.lru.Back()
		if tail == nil || tail == el {
			break
		}
		sh.lru.Remove(tail)
		delete(sh.entries, tail.Value.(*shardEntry).key)
		c.evictions.Add(1)
		c.mEvictions.Inc()
	}
}

// Get returns the cached verdict for key without ever creating an entry.
// A lookup that lands on an in-flight computation blocks until that
// computation finishes and shares its result (a hit). Absent keys are NOT
// counted against the miss counter — Get is the look-before-computing
// half of a Get/GetOrCompute pair, and the follow-up GetOrCompute counts
// the miss exactly once.
func (c *ShardedVerdictCache) Get(key string) (Verdict, bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	e, ok := c.lookupLocked(sh, key)
	sh.mu.Unlock()
	if !ok {
		return Verdict{}, false
	}
	<-e.ready
	return e.v, true
}

// GetOrCompute returns the cached verdict for key, computing it via
// compute on a miss. The second return reports whether the verdict came
// from the cache (including joining a computation already in flight, or
// a preloaded verdict). compute runs outside all cache locks; concurrent
// callers with the same key block until the single in-flight computation
// finishes and then share its result.
func (c *ShardedVerdictCache) GetOrCompute(key string, compute func() Verdict) (Verdict, bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	if e, ok := c.lookupLocked(sh, key); ok {
		sh.mu.Unlock()
		<-e.ready
		return e.v, true
	}
	e := &shardEntry{key: key, ready: make(chan struct{})}
	c.insertLocked(sh, e)
	sh.mu.Unlock()

	c.misses.Add(1)
	c.mMisses.Inc()
	e.v = compute()
	if c.ttl > 0 {
		e.expires = c.now().Add(c.ttl)
	}
	close(e.ready)
	return e.v, false
}

// Preload seeds the cache with verdicts carried over from a prior epoch's
// delta. Seeded entries are complete, so a lookup reuses the verdict
// without running compute; the seeded flag makes the stats mirror a full
// run's. Keys already present are left untouched. Returns the number of
// entries seeded. The CALLER owns the soundness gate: preload only when
// the intel fingerprint is unchanged.
func (c *ShardedVerdictCache) Preload(vs []DeltaVerdict) int {
	var expires time.Time
	if c.ttl > 0 {
		expires = c.now().Add(c.ttl)
	}
	n := 0
	for _, dv := range vs {
		sh := c.shard(dv.Key)
		sh.mu.Lock()
		if _, ok := sh.entries[dv.Key]; !ok {
			e := &shardEntry{key: dv.Key, ready: make(chan struct{}), expires: expires, seeded: true,
				v: Verdict{Malicious: dv.Malicious, Category: Category(dv.Category)}}
			close(e.ready)
			c.insertLocked(sh, e)
			n++
		}
		sh.mu.Unlock()
	}
	return n
}

// Export snapshots every verdict the cache actually served — computed
// entries plus seeded entries that were looked up at least once — as a
// key-sorted delta slice. Seeded entries never looked up are dropped: a
// full re-crawl would not have produced them, and dropping them keeps
// delta files byte-identical between delta-mode and full-re-crawl
// producers. Call only after every computation has finished (a run has
// completed).
func (c *ShardedVerdictCache) Export() []DeltaVerdict {
	out := make([]DeltaVerdict, 0, c.Len())
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k, el := range sh.entries {
			if e := el.Value.(*shardEntry); !e.seeded {
				out = append(out, DeltaVerdict{Key: k, Malicious: e.v.Malicious, Category: string(e.v.Category)})
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Len returns the current number of live entries across all shards.
func (c *ShardedVerdictCache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Stats returns the counters observed so far plus the live entry count.
func (c *ShardedVerdictCache) Stats() ShardedCacheStats {
	return ShardedCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Expired:   c.expired.Load(),
		Entries:   c.Len(),
	}
}
