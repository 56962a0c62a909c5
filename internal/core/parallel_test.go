package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/crawler"
	"repro/internal/testutil"
)

// TestAnalyzeParallelDeterminism: Analyze over recorded crawls at any
// worker count reproduces the oracle's Analysis; with the cache off,
// where every shard re-fetches URL-only scans through the shared
// shortener ledgers, it reports no cache traffic and matches otherwise.
func TestAnalyzeParallelDeterminism(t *testing.T) {
	checkEngineCases(t, draws(4, caseAxes{sources: []string{"recorded"}, cacheOff: maybe}))
}

// TestCacheStatsDeterministic asserts the single-flight accounting is
// schedule-independent: misses equal the number of distinct cache keys, so
// repeated parallel runs must report identical hit/miss splits.
func TestCacheStatsDeterministic(t *testing.T) {
	st := sharedStudy(t)
	an := &Analyzer{Classifier: st.Analyzer.Classifier, Detector: st.Detector, Workers: 8}
	first := an.Analyze(st.Crawls).CacheStats
	if first.Hits == 0 {
		t.Fatalf("rotation-heavy crawl produced no cache hits: %+v", first)
	}
	for i := 0; i < 3; i++ {
		if got := an.Analyze(st.Crawls).CacheStats; got != first {
			t.Fatalf("run %d cache stats %+v != first run %+v", i, got, first)
		}
	}
}

// TestConcurrentInspectStress hammers the full detector stack from many
// goroutines over the same records and checks every verdict against a
// sequentially computed baseline. Run under -race this is the pipeline's
// data-race canary for scanner/blacklist/shortener/httpsim state.
func TestConcurrentInspectStress(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	st := sharedStudy(t)
	var recs []crawler.Record
	cls := st.Analyzer.Classifier
	for _, c := range st.Crawls {
		for _, rec := range c.Records {
			if cls.Classify(rec) == Regular {
				recs = append(recs, rec)
			}
			if len(recs) >= 300 {
				break
			}
		}
	}
	if len(recs) == 0 {
		t.Fatal("no regular records to stress")
	}
	baseline := make([]Verdict, len(recs))
	for i, rec := range recs {
		baseline[i] = st.Detector.Inspect(rec)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Stagger start offsets so goroutines collide on different
			// records at different times.
			for i := range recs {
				idx := (i + g*len(recs)/goroutines) % len(recs)
				v := st.Detector.Inspect(recs[idx])
				if !reflect.DeepEqual(v, baseline[idx]) {
					select {
					case errs <- recs[idx].EntryURL:
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if url, bad := <-errs; bad {
		t.Fatalf("concurrent Inspect diverged from sequential baseline on %s", url)
	}
}

// TestVerdictCacheSingleFlight checks that concurrent requests for the
// same key compute the verdict exactly once and that hit/miss accounting
// matches the single-flight contract.
func TestVerdictCacheSingleFlight(t *testing.T) {
	st := sharedStudy(t)
	var rec *crawler.Record
	for _, c := range st.Crawls {
		for i := range c.Records {
			if len(c.Records[i].Body) > 0 && st.Analyzer.Classifier.Classify(c.Records[i]) == Regular {
				rec = &c.Records[i]
				break
			}
		}
		if rec != nil {
			break
		}
	}
	if rec == nil {
		t.Fatal("no regular record with a body")
	}

	cache := NewShardedVerdictCache(ShardedCacheConfig{Shards: 1, Capacity: 1})
	var keys keyMemo
	const callers = 16
	var wg sync.WaitGroup
	verdicts := make([]Verdict, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			verdicts[i] = st.Analyzer.inspect(cache, &keys, rec)
		}(i)
	}
	wg.Wait()

	stats := cache.Stats()
	if stats.Misses != 1 || stats.Hits != callers-1 {
		t.Fatalf("single-flight stats = %+v, want 1 miss / %d hits", stats, callers-1)
	}
	for i := 1; i < callers; i++ {
		if !reflect.DeepEqual(verdicts[i], verdicts[0]) {
			t.Fatalf("caller %d saw a different verdict", i)
		}
	}
}

// TestWorkersThreadedFromConfig checks the StudyConfig plumbing.
func TestWorkersThreadedFromConfig(t *testing.T) {
	cfg := DefaultStudyConfig()
	cfg.Workers = 3
	cfg.DisableVerdictCache = true
	st, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Analyzer.Workers != 3 || !st.Analyzer.DisableCache {
		t.Fatalf("analyzer config = workers %d, disableCache %v",
			st.Analyzer.Workers, st.Analyzer.DisableCache)
	}
}
