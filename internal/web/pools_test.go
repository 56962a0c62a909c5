package web

import (
	"math"
	"testing"

	"repro/internal/simrand"
)

func mkSite(tld string, cat Category) *Site {
	return &Site{Host: "x." + tld, TLD: tld, Category: cat, Kind: Miscellaneous}
}

func TestObservationWeightsRakeMarginals(t *testing.T) {
	// A slice with duplicated strata: weights must hit the present-value
	// renormalized marginals, not the raw counts.
	sites := []*Site{
		mkSite("com", CatBusiness),
		mkSite("com", CatBusiness),
		mkSite("com", CatAdvertisement),
		mkSite("net", CatBusiness),
		mkSite("net", CatIT),
	}
	w := ObservationWeights(sites)
	if len(w) != len(sites) {
		t.Fatalf("weights len = %d", len(w))
	}
	sum := 0.0
	for _, v := range w {
		if v < 0 {
			t.Fatalf("negative weight %v", v)
		}
		sum += v
	}
	comShare := (w[0] + w[1] + w[2]) / sum
	// Present TLDs: com (.70) and net (.22) renormalize to .761/.239.
	if math.Abs(comShare-0.761) > 0.02 {
		t.Fatalf("raked com share = %v, want ~0.761", comShare)
	}
	bizShare := (w[0] + w[1] + w[3]) / sum
	// Present categories: Business .586, Ads .218, IT .086 -> renorm .658/.245/.097.
	if math.Abs(bizShare-0.658) > 0.02 {
		t.Fatalf("raked Business share = %v, want ~0.658", bizShare)
	}
	// The two duplicate com|Business sites must split their stratum mass,
	// not double it.
	if math.Abs(w[0]-w[1]) > 1e-9 {
		t.Fatalf("identical-stratum sites weighted differently: %v vs %v", w[0], w[1])
	}
}

func TestObservationWeightsEdgeCases(t *testing.T) {
	if ObservationWeights(nil) != nil {
		t.Fatal("nil slice should return nil")
	}
	w := ObservationWeights([]*Site{mkSite("com", CatBusiness)})
	if len(w) != 1 || w[0] <= 0 {
		t.Fatalf("single-site weights = %v", w)
	}
	// Unknown TLD/category fall back to floor shares without NaNs.
	w = ObservationWeights([]*Site{mkSite("gl", Category("Weird")), mkSite("com", CatBusiness)})
	for _, v := range w {
		if math.IsNaN(v) || v <= 0 {
			t.Fatalf("degenerate weight %v", v)
		}
	}
}

func TestStratifiedOrderPrefixBalance(t *testing.T) {
	// Build a 400-site population with the generator's target mixes and
	// verify that every 20-site window of the stratified order is
	// roughly representative of the .com share.
	rng := simrand.New(5)
	var sites []*Site
	for i := 0; i < 400; i++ {
		tld := simrand.WeightedPick(rng, tldNames, tldWeights)
		cat := simrand.WeightedPick(rng, categoryNames, categoryWeights)
		sites = append(sites, mkSite(tld, cat))
	}
	popCom := 0
	for _, s := range sites {
		if s.TLD == "com" {
			popCom++
		}
	}
	popShare := float64(popCom) / float64(len(sites))

	ordered := stratifiedOrder(simrand.New(7), sites)
	if len(ordered) != len(sites) {
		t.Fatalf("ordered len = %d", len(ordered))
	}
	for start := 0; start+20 <= len(ordered); start += 20 {
		com := 0
		for _, s := range ordered[start : start+20] {
			if s.TLD == "com" {
				com++
			}
		}
		share := float64(com) / 20
		if math.Abs(share-popShare) > 0.25 {
			t.Fatalf("window [%d,%d): com share %v, population %v — not balanced",
				start, start+20, share, popShare)
		}
	}
}

func TestStratifiedOrderPreservesPopulation(t *testing.T) {
	rng := simrand.New(5)
	var sites []*Site
	for i := 0; i < 50; i++ {
		sites = append(sites, mkSite(simrand.WeightedPick(rng, tldNames, tldWeights), CatBusiness))
	}
	ordered := stratifiedOrder(simrand.New(9), sites)
	seen := map[*Site]bool{}
	for _, s := range ordered {
		if seen[s] {
			t.Fatal("duplicate site in stratified order")
		}
		seen[s] = true
	}
	if len(seen) != len(sites) {
		t.Fatalf("lost sites: %d of %d", len(seen), len(sites))
	}
}

func TestSmallPoolSkipsRareKindsProportionally(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 13
	cfg.BenignSites = 50
	cfg.MaliciousSites = 120
	u := Generate(cfg)
	// A 6-slot pool is below the one-per-kind threshold: allocation goes
	// by weight, so the observation-heavy kinds dominate and rare kinds
	// may be absent.
	pools, err := u.SplitPools(simrand.New(2), []PoolSpec{{Benign: 5, Malicious: 6}})
	if err != nil {
		t.Fatal(err)
	}
	p := pools[0]
	if n := maliciousCount(p); n != 6 {
		t.Fatalf("pool size = %d", n)
	}
	if len(p.MalByKind[Miscellaneous]) < 3 {
		t.Fatalf("small pool misc = %d, want the dominant share", len(p.MalByKind[Miscellaneous]))
	}
	// A 14-slot pool crosses the threshold and must hold every kind.
	pools, err = u.SplitPools(simrand.New(3), []PoolSpec{{Benign: 5, Malicious: 14}})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range kindOrder {
		if len(pools[0].MalByKind[k]) == 0 {
			t.Fatalf("14-slot pool missing kind %v", k)
		}
	}
}

// maliciousCount returns the number of malicious sites in the pool.
func maliciousCount(p *Pool) int {
	n := 0
	for _, sites := range p.MalByKind {
		n += len(sites)
	}
	return n
}
