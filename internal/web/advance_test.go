package web

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/httpsim"
)

// browserUA mirrors crawler.BrowserUA (the crawler package imports web,
// so the constant cannot be referenced here without an import cycle).
const browserUA = "Mozilla/5.0 (X11; Linux x86_64; rv:38.0) Gecko/20100101 Firefox/38.0"

// TestAdvanceEpochMatchesGenerate is the equivalence oracle for the
// incremental advance: a universe chained epoch-by-epoch through
// AdvanceEpoch must be indistinguishable from a from-scratch
// GenerateEpoch at every checkpoint — same sites (deep-equal), same
// churn set, same intel layer, same shortener aliases, and same bytes
// served for both browser and scanner clients. Run across seeds and
// churn rates so both the no-churn fast case and heavy identity
// turnover are covered.
func TestAdvanceEpochMatchesGenerate(t *testing.T) {
	const maxEpoch = 8
	checkpoints := map[int]bool{1: true, 2: true, 4: true, 8: true}
	for seed := uint64(1); seed <= 5; seed++ {
		for _, churn := range []float64{0, 0.3, 0.8} {
			seed, churn := seed, churn
			t.Run(fmt.Sprintf("seed=%d/churn=%v", seed, churn), func(t *testing.T) {
				t.Parallel()
				cfg := epochCfg()
				cfg.Seed = seed
				ep := EpochParams{ChurnFrac: churn, BlacklistLag: 1, DecayPerEpoch: 0.1}
				cur := GenerateEpoch(cfg, ep)
				for e := 1; e <= maxEpoch; e++ {
					next := ep
					next.Epoch = e
					if !cur.CanAdvance(cfg, next) {
						t.Fatalf("CanAdvance(epoch %d) = false on the chain", e)
					}
					cur = cur.AdvanceEpoch()
					if !checkpoints[e] {
						continue
					}
					compareUniverses(t, e, cur, GenerateEpoch(cfg, next))
				}
			})
		}
	}
}

// compareUniverses deep-compares the advanced universe got against the
// from-scratch oracle want at epoch e.
func compareUniverses(t *testing.T, e int, got, want *Universe) {
	t.Helper()
	if len(got.Sites) != len(want.Sites) {
		t.Fatalf("epoch %d: %d sites, want %d", e, len(got.Sites), len(want.Sites))
	}
	for i := range got.Sites {
		if !reflect.DeepEqual(*got.Sites[i], *want.Sites[i]) {
			t.Fatalf("epoch %d site %d diverged:\nadvanced: %+v\nscratch:  %+v", e, i, *got.Sites[i], *want.Sites[i])
		}
	}
	if gc, wc := changedHosts(got), changedHosts(want); !reflect.DeepEqual(gc, wc) {
		t.Fatalf("epoch %d ChangedSites diverged:\nadvanced: %v\nscratch:  %v", e, gc, wc)
	}
	if got.IntelFingerprint() != want.IntelFingerprint() {
		t.Fatalf("epoch %d intel fingerprint %016x, want %016x", e, got.IntelFingerprint(), want.IntelFingerprint())
	}
	if g, w := got.Blacklists.Fingerprint(), want.Blacklists.Fingerprint(); g != w {
		t.Fatalf("epoch %d blacklist fingerprint %016x, want %016x", e, g, w)
	}
	if !reflect.DeepEqual(got.PopularURLs, want.PopularURLs) {
		t.Fatalf("epoch %d popular URLs diverged", e)
	}
	compareShorteners(t, e, got, want)
	compareServedBytes(t, e, got, want)
}

func changedHosts(u *Universe) []string {
	out := make([]string, 0, len(u.ChangedSites))
	for _, s := range u.ChangedSites {
		out = append(out, s.Host)
	}
	return out
}

func compareShorteners(t *testing.T, e int, got, want *Universe) {
	t.Helper()
	// The registries hold every service's link table and hit counters.
	if !reflect.DeepEqual(got.Shorteners, want.Shorteners) {
		t.Fatalf("epoch %d shortener registries diverged", e)
	}
}

// compareServedBytes fetches a sample of entry URLs through both
// universes with a browser and a scanner user agent and requires
// identical final URLs, redirect counts and body bytes. The advanced
// universe serves from the shared cross-epoch render cache; the scratch
// universe renders fresh — equality proves render purity end to end
// (including cloaking dispatch and redirect chains).
func compareServedBytes(t *testing.T, e int, got, want *Universe) {
	t.Helper()
	const scannerUA = "SlumScanner/1.0 (compatible; bot)"
	gc := httpsim.NewClient(got.Internet)
	wc := httpsim.NewClient(want.Internet)
	step := len(got.Sites)/15 + 1
	for i := 0; i < len(got.Sites); i += step {
		url := got.Sites[i].EntryURL
		for _, ua := range []string{browserUA, scannerUA} {
			gr, gerr := gc.Get(url, ua, "")
			wr, werr := wc.Get(url, ua, "")
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("epoch %d %s [%s]: err %v vs %v", e, url, ua, gerr, werr)
			}
			if gerr != nil {
				continue
			}
			if gr.FinalURL != wr.FinalURL || gr.Redirects() != wr.Redirects() {
				t.Fatalf("epoch %d %s [%s]: final %s (%d hops), want %s (%d hops)",
					e, url, ua, gr.FinalURL, gr.Redirects(), wr.FinalURL, wr.Redirects())
			}
			if string(gr.Final.Body) != string(wr.Final.Body) || gr.Final.ContentType != wr.Final.ContentType {
				t.Fatalf("epoch %d %s [%s]: served bytes diverged (%d vs %d bytes)",
					e, url, ua, len(gr.Final.Body), len(wr.Final.Body))
			}
		}
	}
}

// TestAdvanceEpochRetiresChurnedHosts: the advance must drop render
// caches of replaced hosts (churned domains never come back) and keep
// the caches of stable ones, with the retirement visible in the drained
// counters.
func TestAdvanceEpochRetiresChurnedHosts(t *testing.T) {
	cfg := epochCfg()
	u := GenerateEpoch(cfg, EpochParams{ChurnFrac: 0.5})
	// Render something on every site so the cache is warm, then advance.
	c := httpsim.NewClient(u.Internet)
	for _, s := range u.Sites {
		if _, err := c.Get("http://"+s.Host+"/", browserUA, ""); err != nil {
			t.Fatalf("warm fetch %s: %v", s.Host, err)
		}
	}
	u.DrainRenderCounters()
	next := u.AdvanceEpoch()
	if len(next.ChangedSites) == 0 {
		t.Fatalf("test vacuous: nothing churned at ChurnFrac 0.5")
	}
	_, _, _, retired := next.DrainRenderCounters()
	if retired < int64(len(next.ChangedSites)) {
		t.Fatalf("retired %d caches, want >= %d churned sites", retired, len(next.ChangedSites))
	}
	// A stable host must hit the warm cache through the next universe.
	var stable *Site
	churned := map[string]bool{}
	for _, s := range next.ChangedSites {
		churned[s.Host] = true
	}
	for _, s := range next.Sites {
		if !churned[s.Host] && s.Gen == 0 {
			stable = s
			break
		}
	}
	nc := httpsim.NewClient(next.Internet)
	if _, err := nc.Get("http://"+stable.Host+"/", browserUA, ""); err != nil {
		t.Fatalf("stable fetch %s: %v", stable.Host, err)
	}
	hits, misses, _, _ := next.DrainRenderCounters()
	if hits == 0 || misses != 0 {
		t.Fatalf("stable host re-fetch: hits=%d misses=%d, want warm-cache hit", hits, misses)
	}
}
