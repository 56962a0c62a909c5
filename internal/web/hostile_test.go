package web

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/httpsim"
	"repro/internal/jsengine"
)

// Every bomb in the corpus must trip the sandbox — terminate quickly,
// under budget, with a structured code — and do so deterministically.
func TestHostileScriptsAllTrip(t *testing.T) {
	scripts := HostileScripts()
	if len(scripts) < 5 {
		t.Fatalf("corpus has %d scripts; the hostile matrix needs variety", len(scripts))
	}
	seen := map[string]bool{}
	for _, hs := range scripts {
		hs := hs
		t.Run(hs.Name, func(t *testing.T) {
			if seen[hs.Name] {
				t.Fatalf("duplicate bomb name %q", hs.Name)
			}
			seen[hs.Name] = true
			if strings.ContainsAny(hs.Src, "<") {
				t.Fatal("bomb source contains '<'; it would not survive inline-script embedding")
			}
			b := jsengine.DefaultBudget()
			start := time.Now()
			tr, err := jsengine.ExecuteBudget(hs.Src, b)
			elapsed := time.Since(start)
			if elapsed > 2*time.Second {
				t.Fatalf("bomb ran %s; the budget is not bounding it", elapsed)
			}
			code, ok := jsengine.CodeOf(err)
			if !ok {
				t.Fatalf("bomb finished without a structured code (err = %v)", err)
			}
			if tr.FuelUsed > b.Fuel {
				t.Fatalf("FuelUsed %d exceeds budget %d", tr.FuelUsed, b.Fuel)
			}
			tr2, err2 := jsengine.ExecuteBudget(hs.Src, b)
			if !reflect.DeepEqual(tr, tr2) || err.Error() != err2.Error() {
				t.Fatalf("bomb %s is not deterministic (codes %s vs %v)", hs.Name, code, err2)
			}
		})
	}
}

// PlantHostileSites is additive and opt-in: it serves deterministic pages
// embedding the bombs, registers ground truth, and never touches the
// threat feed (detection must come from the sandbox, not a signature).
func TestPlantHostileSites(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 3
	cfg.BenignSites = 10
	cfg.MaliciousSites = 8
	u := Generate(cfg)
	feedBefore := u.Feed.Fingerprint()
	sitesBefore := len(u.Sites)

	bombs := u.PlantHostileSites()
	if len(bombs) != len(HostileScripts()) {
		t.Fatalf("planted %d sites for %d scripts", len(bombs), len(HostileScripts()))
	}
	if len(u.Sites) != sitesBefore+len(bombs) {
		t.Fatalf("universe has %d sites, want %d", len(u.Sites), sitesBefore+len(bombs))
	}
	if u.Feed.Fingerprint() != feedBefore {
		t.Fatal("planting bombs grew the threat feed; signatures would mask the sandbox signal")
	}

	for _, b := range bombs {
		if b.Kind != MaliciousJS || b.Variant != JSBomb {
			t.Fatalf("%s: kind=%v variant=%v, want MaliciousJS/JSBomb", b.Host, b.Kind, b.Variant)
		}
		if got := u.TruthByURL(b.EntryURL); got != MaliciousJS {
			t.Fatalf("%s: truth = %v, want MaliciousJS", b.EntryURL, got)
		}
		resp, err := u.Internet.RoundTrip(&httpsim.Request{URL: b.EntryURL, UserAgent: "Mozilla/5.0"})
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("%s: fetch failed: %v (status %d)", b.EntryURL, err, resp.StatusCode)
		}
		body := string(resp.Body)
		if !strings.Contains(body, b.BombSrc) {
			t.Fatalf("%s: page does not embed the bomb script", b.Host)
		}
		resp2, _ := u.Internet.RoundTrip(&httpsim.Request{URL: b.EntryURL, UserAgent: "Mozilla/5.0"})
		if body != string(resp2.Body) {
			t.Fatalf("%s: page is not deterministic across requests", b.Host)
		}
	}
}
