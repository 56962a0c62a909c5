package core

import (
	"testing"

	"repro/internal/crawler"
	"repro/internal/urlutil"
)

// TestVerdictKeyNormalizesEntryURL is the regression test for the raw-URL
// cache-key bug: two records whose entry URLs normalize identically
// (case-folded host, explicit default port) are indistinguishable to the
// detector, so they must share one cache key — keying on the raw string
// missed the cache and double-counted cache.misses.
func TestVerdictKeyNormalizesEntryURL(t *testing.T) {
	variants := []string{
		"http://EVIL.example.com:80/x",
		"http://evil.example.com/x",
		"http://Evil.Example.Com/x",
	}
	// Precondition: the variants really do normalize identically.
	want, err := urlutil.Normalize(variants[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, raw := range variants[1:] {
		n, err := urlutil.Normalize(raw)
		if err != nil {
			t.Fatal(err)
		}
		if n != want {
			t.Fatalf("Normalize(%q) = %q, want %q — fix the test inputs", raw, n, want)
		}
	}

	base := crawler.Record{
		FinalURL:    "http://evil.example.com/x",
		ContentType: "text/html",
		Redirects:   0,
		Body:        []byte("<html>same content</html>"),
	}
	keys := make(map[string]string)
	for _, raw := range variants {
		rec := base
		rec.EntryURL = raw
		keys[verdictKey(&rec)] = raw
	}
	if len(keys) != 1 {
		t.Fatalf("equivalent entry URLs produced %d distinct cache keys: %v", len(keys), keys)
	}

	// And the single-flight cache consequently reuses the entry: the
	// second equivalent record is a hit, not a second miss.
	cache := NewShardedVerdictCache(ShardedCacheConfig{Shards: 1, Capacity: 2})
	recA, recB := base, base
	recA.EntryURL = variants[0]
	recB.EntryURL = variants[1]
	if _, hit := cache.GetOrCompute(verdictKey(&recA), func() Verdict { return Verdict{} }); hit {
		t.Fatal("fresh cache reported a hit")
	}
	if _, hit := cache.GetOrCompute(verdictKey(&recB), func() Verdict { return Verdict{} }); !hit {
		t.Fatal("equivalent entry URL allocated a second cache entry (cache miss double-count)")
	}
}

// TestVerdictKeyStillDistinguishesContent guards the other direction: the
// key must keep separating records that differ in anything the detector
// consumes.
func TestVerdictKeyStillDistinguishesContent(t *testing.T) {
	base := crawler.Record{
		EntryURL:    "http://evil.example.com/x",
		FinalURL:    "http://evil.example.com/x",
		ContentType: "text/html",
		Body:        []byte("<html>a</html>"),
	}
	mutations := map[string]func(*crawler.Record){
		"entry URL":    func(r *crawler.Record) { r.EntryURL = "http://evil.example.com/y" },
		"final URL":    func(r *crawler.Record) { r.FinalURL = "http://other.example.com/x" },
		"content type": func(r *crawler.Record) { r.ContentType = "application/javascript" },
		"redirects":    func(r *crawler.Record) { r.Redirects = 3 },
		"body":         func(r *crawler.Record) { r.Body = []byte("<html>b</html>") },
	}
	baseKey := verdictKey(&base)
	for field, mutate := range mutations {
		rec := base
		mutate(&rec)
		if verdictKey(&rec) == baseKey {
			t.Errorf("records differing in %s share a cache key", field)
		}
	}
}

// TestVerdictKeyUnparseableEntryURL: records whose entry URL cannot be
// normalized still get a stable (raw) key instead of an error path.
func TestVerdictKeyUnparseableEntryURL(t *testing.T) {
	rec := crawler.Record{
		EntryURL: "http://%zz/bad",
		FinalURL: "http://%zz/bad",
		Body:     []byte("x"),
	}
	k1, k2 := verdictKey(&rec), verdictKey(&rec)
	if k1 != k2 || k1 == "" {
		t.Fatalf("unparseable entry URL key unstable: %q vs %q", k1, k2)
	}
}
