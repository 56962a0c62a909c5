package core

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/testutil"
)

// fakeClock is an injectable, manually-advanced time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func verdictFor(id int) Verdict {
	return Verdict{Malicious: id%2 == 0, VTPositives: id, VTTotal: 60}
}

func TestShardedCacheHitMiss(t *testing.T) {
	c := NewShardedVerdictCache(ShardedCacheConfig{})
	computes := 0
	get := func(key string) (Verdict, bool) {
		return c.GetOrCompute(key, func() Verdict {
			computes++
			return verdictFor(computes)
		})
	}

	v1, hit := get("http://a.sim/")
	if hit {
		t.Fatal("first lookup reported a hit")
	}
	v2, hit := get("http://a.sim/")
	if !hit {
		t.Fatal("second lookup reported a miss")
	}
	if v1.VTPositives != v2.VTPositives {
		t.Fatalf("hit returned a different verdict: %+v vs %+v", v1, v2)
	}
	if computes != 1 {
		t.Fatalf("compute ran %d times, want 1", computes)
	}
	if _, hit := get("http://b.sim/"); hit {
		t.Fatal("distinct key reported a hit")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 2 || s.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses / 2 entries", s)
	}
	if got := s.HitRate(); got != 1.0/3.0 {
		t.Fatalf("hit rate = %v, want 1/3", got)
	}
}

func TestShardedCacheSingleFlight(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	c := NewShardedVerdictCache(ShardedCacheConfig{Shards: 4, Capacity: 64})
	var computes atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})

	const waiters = 16
	var wg sync.WaitGroup
	results := make([]Verdict, waiters)
	for i := 0; i < waiters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], _ = c.GetOrCompute("http://same.sim/", func() Verdict {
				close(started)
				<-release
				computes.Add(1)
				return verdictFor(7)
			})
		}()
	}
	<-started
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times under concurrency, want 1 (single flight)", n)
	}
	for i, v := range results {
		if v.VTPositives != 7 {
			t.Fatalf("waiter %d got verdict %+v, want the shared one", i, v)
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != waiters-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits", s, waiters-1)
	}
}

func TestShardedCacheLRUEviction(t *testing.T) {
	// One shard so the LRU order is global and exact.
	c := NewShardedVerdictCache(ShardedCacheConfig{Shards: 1, Capacity: 2})
	get := func(key string) bool {
		_, hit := c.GetOrCompute(key, func() Verdict { return Verdict{} })
		return hit
	}

	get("a")
	get("b")
	get("a") // refresh a: LRU order is now [a, b]
	get("c") // evicts b
	if !get("a") {
		t.Fatal("recently-used entry was evicted")
	}
	if get("b") {
		t.Fatal("least-recently-used entry survived past capacity")
	}
	s := c.Stats()
	if s.Evictions == 0 {
		t.Fatalf("stats = %+v, want at least one eviction", s)
	}
	if s.Entries > 2 {
		t.Fatalf("cache holds %d entries, capacity is 2", s.Entries)
	}
}

func TestShardedCacheTTL(t *testing.T) {
	clock := newFakeClock()
	reg := obs.NewRegistry()
	c := NewShardedVerdictCache(ShardedCacheConfig{
		Shards: 1, Capacity: 8, TTL: time.Minute, Now: clock.Now, Metrics: reg,
	})
	computes := 0
	get := func() bool {
		_, hit := c.GetOrCompute("http://a.sim/", func() Verdict {
			computes++
			return verdictFor(computes)
		})
		return hit
	}

	get()
	clock.Advance(30 * time.Second)
	if !get() {
		t.Fatal("entry within TTL reported a miss")
	}
	clock.Advance(31 * time.Second) // 61s past completion: expired
	if get() {
		t.Fatal("expired entry reported a hit")
	}
	if computes != 2 {
		t.Fatalf("compute ran %d times, want 2 (one refresh after expiry)", computes)
	}
	s := c.Stats()
	if s.Expired != 1 {
		t.Fatalf("stats = %+v, want exactly 1 expiry", s)
	}
	// The obs mirror tracks the internal counters exactly.
	for name, want := range map[string]int64{
		"verdictcache.hits":    s.Hits,
		"verdictcache.misses":  s.Misses,
		"verdictcache.expired": s.Expired,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("obs %s = %d, want %d", name, got, want)
		}
	}
}

func TestShardedCacheGetNeverCreates(t *testing.T) {
	c := NewShardedVerdictCache(ShardedCacheConfig{Shards: 1, Capacity: 8})
	if _, ok := c.Get("absent"); ok {
		t.Fatal("Get on an empty cache reported a hit")
	}
	s := c.Stats()
	if s.Misses != 0 || s.Entries != 0 {
		t.Fatalf("Get created state: %+v", s)
	}
	c.GetOrCompute("k", func() Verdict { return verdictFor(3) })
	v, ok := c.Get("k")
	if !ok || v.VTPositives != 3 {
		t.Fatalf("Get after compute = (%+v, %v), want the cached verdict", v, ok)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", s)
	}
}

func TestShardedCacheGetExpiresEntries(t *testing.T) {
	clock := newFakeClock()
	c := NewShardedVerdictCache(ShardedCacheConfig{Shards: 1, Capacity: 8, TTL: time.Minute, Now: clock.Now})
	c.GetOrCompute("k", func() Verdict { return verdictFor(1) })
	clock.Advance(2 * time.Minute)
	if _, ok := c.Get("k"); ok {
		t.Fatal("Get returned an expired entry")
	}
	if s := c.Stats(); s.Expired != 1 || s.Entries != 0 {
		t.Fatalf("stats = %+v, want 1 expired / 0 entries", s)
	}
}

func TestShardedCacheZeroTTLNeverExpires(t *testing.T) {
	clock := newFakeClock()
	c := NewShardedVerdictCache(ShardedCacheConfig{Shards: 1, Capacity: 8, Now: clock.Now})
	c.GetOrCompute("k", func() Verdict { return verdictFor(1) })
	clock.Advance(1000 * time.Hour)
	if _, hit := c.GetOrCompute("k", func() Verdict { return verdictFor(2) }); !hit {
		t.Fatal("TTL-less entry expired")
	}
}

func TestShardedCacheConcurrentStress(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	c := NewShardedVerdictCache(ShardedCacheConfig{Shards: 8, Capacity: 32, TTL: time.Hour})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("http://site-%d.sim/", (g*7+i)%64)
				v, _ := c.GetOrCompute(key, func() Verdict { return verdictFor(i) })
				_ = v
			}
		}()
	}
	wg.Wait()
	s := c.Stats()
	if s.Hits+s.Misses != 8*500 {
		t.Fatalf("hits+misses = %d, want %d", s.Hits+s.Misses, 8*500)
	}
	if s.Entries > 32 {
		t.Fatalf("cache holds %d entries, capacity 32 across 8 shards", s.Entries)
	}
}

// TestShardedCacheCapacityIsTotal is the regression test for per-stripe
// rounding: Capacity is the budget across all stripes, so a capacity
// below the stripe count, or one that does not divide evenly, must still
// bound the live entries. Before the fix every stripe got
// max(1, ceil(Capacity/stripes)) entries: 16 live entries for Capacity
// 1, 2 or 5, and 4112 for 4097.
func TestShardedCacheCapacityIsTotal(t *testing.T) {
	for _, capacity := range []int{1, 2, 5, 4097} {
		c := NewShardedVerdictCache(ShardedCacheConfig{Capacity: capacity})
		for i := 0; i < 20000; i++ {
			c.GetOrCompute(fmt.Sprintf("http://site-%d.sim/", i), func() Verdict { return Verdict{} })
		}
		if n := c.Len(); n > capacity {
			t.Errorf("capacity %d: %d live entries", capacity, n)
		}
	}
}

// TestShardedCachePreloadedFirstLookup: concurrent first lookups of a
// preloaded key, through Get and GetOrCompute alike, charge exactly one
// miss between them (what a full run would have recorded for the key)
// and never run compute.
func TestShardedCachePreloadedFirstLookup(t *testing.T) {
	c := NewShardedVerdictCache(ShardedCacheConfig{})
	c.Preload([]DeltaVerdict{{Key: "http://seeded.sim/", Malicious: true, Category: string(CatBlacklisted)}})
	var computes atomic.Int64
	const callers = 16
	var wg sync.WaitGroup
	results := make([]Verdict, callers)
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				results[i], _ = c.Get("http://seeded.sim/")
				return
			}
			results[i], _ = c.GetOrCompute("http://seeded.sim/", func() Verdict {
				computes.Add(1)
				return Verdict{}
			})
		}()
	}
	wg.Wait()
	if n := computes.Load(); n != 0 {
		t.Fatalf("compute ran %d times for a preloaded key", n)
	}
	for i, v := range results {
		if !v.Malicious || v.Category != CatBlacklisted {
			t.Fatalf("caller %d got %+v, want the preloaded verdict", i, v)
		}
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != callers-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits", s, callers-1)
	}
}

// TestShardedCacheExport: Export is key-sorted and holds every computed
// entry plus every preloaded entry that was looked up, but no preloaded
// entry that never was.
func TestShardedCacheExport(t *testing.T) {
	c := NewShardedVerdictCache(ShardedCacheConfig{Shards: 4, Capacity: 64})
	c.Preload([]DeltaVerdict{
		{Key: "c-touched", Malicious: true, Category: string(CatBlacklisted)},
		{Key: "a-untouched"},
	})
	c.GetOrCompute("z-computed", func() Verdict { return Verdict{Malicious: true, Category: CatJavaScript} })
	c.GetOrCompute("b-computed", func() Verdict { return Verdict{} })
	c.Get("c-touched")
	want := []DeltaVerdict{
		{Key: "b-computed"},
		{Key: "c-touched", Malicious: true, Category: string(CatBlacklisted)},
		{Key: "z-computed", Malicious: true, Category: string(CatJavaScript)},
	}
	if got := c.Export(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Export = %+v, want %+v", got, want)
	}
}

// TestShardedCachePreloadSkipsPresent: Preload leaves keys already in
// the cache (computed, or seeded earlier in the same slice) untouched and
// returns how many entries it seeded.
func TestShardedCachePreloadSkipsPresent(t *testing.T) {
	c := NewShardedVerdictCache(ShardedCacheConfig{})
	c.GetOrCompute("present", func() Verdict { return Verdict{VTPositives: 7} })
	n := c.Preload([]DeltaVerdict{{Key: "present", Malicious: true}, {Key: "new"}, {Key: "new", Malicious: true}})
	if n != 1 {
		t.Fatalf("Preload seeded %d entries, want 1", n)
	}
	if v, _ := c.Get("present"); v.Malicious || v.VTPositives != 7 {
		t.Fatalf("preload overwrote a computed entry: %+v", v)
	}
	if v, _ := c.Get("new"); v.Malicious {
		t.Fatalf("a repeated key overwrote the first preload: %+v", v)
	}
	if s := c.Stats(); s.Entries != 2 {
		t.Fatalf("cache holds %d entries, want 2", s.Entries)
	}
}

// TestEngineCacheNeverEvicts: the engine sizes its cache to every record
// it can step plus the preload, so a run that fills it to that bound —
// every record a distinct key — evicts nothing and its CacheStats stay
// exact.
func TestEngineCacheNeverEvicts(t *testing.T) {
	runs := []*shardRun{{planned: 3}, {planned: 5}, {planned: 0}}
	const preload = 4
	delta := &EpochDelta{}
	for i := 0; i < preload; i++ {
		delta.Verdicts = append(delta.Verdicts, DeltaVerdict{Key: fmt.Sprintf("seed-%d", i)})
	}
	c := (&Analyzer{}).newCache(runs, delta)
	c.Preload(delta.Verdicts)
	for i := 0; i < 3+5; i++ {
		c.GetOrCompute(fmt.Sprintf("rec-%d", i), func() Verdict { return Verdict{} })
	}
	if s := c.Stats(); s.Evictions != 0 || s.Entries != 3+5+preload {
		t.Fatalf("stats = %+v, want 0 evictions and %d entries", s, 3+5+preload)
	}
}
