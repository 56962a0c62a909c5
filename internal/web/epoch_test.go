package web

import (
	"testing"
)

func epochCfg() Config {
	cfg := DefaultConfig()
	cfg.BenignSites = 120
	cfg.MaliciousSites = 90
	return cfg
}

// TestEpochZeroMatchesGenerate: GenerateEpoch with zero params must be the
// same universe Generate builds — same hosts in order, same entry URLs,
// same intel fingerprint. This is the goldens-stay-byte-identical
// guarantee at the generator layer.
func TestEpochZeroMatchesGenerate(t *testing.T) {
	a := Generate(epochCfg())
	b := GenerateEpoch(epochCfg(), EpochParams{})
	c := GenerateEpoch(epochCfg(), EpochParams{BlacklistLag: 3, ChurnFrac: 0.5, DecayPerEpoch: 0.9})
	for name, u := range map[string]*Universe{"zero-params": b, "epoch-0-with-knobs": c} {
		if len(u.Sites) != len(a.Sites) {
			t.Fatalf("%s: %d sites, want %d", name, len(u.Sites), len(a.Sites))
		}
		for i, s := range u.Sites {
			if s.Host != a.Sites[i].Host || s.EntryURL != a.Sites[i].EntryURL || s.FamilyToken != a.Sites[i].FamilyToken {
				t.Fatalf("%s: site %d = %s/%s, want %s/%s", name, i, s.Host, s.EntryURL, a.Sites[i].Host, a.Sites[i].EntryURL)
			}
		}
		if u.IntelFingerprint() != a.IntelFingerprint() {
			t.Fatalf("%s: intel fingerprint %016x, want %016x", name, u.IntelFingerprint(), a.IntelFingerprint())
		}
		if len(u.ChangedSites) != 0 {
			t.Fatalf("%s: %d changed sites at epoch 0", name, len(u.ChangedSites))
		}
	}
}

// TestEpochHistoryPrefix: epoch N's identity history evaluated at e must
// equal epoch e's current identities, for every e <= N — the churn passes
// are a deterministic prefix-stable sequence. Cross-epoch delta reuse is
// sound only because of this property.
func TestEpochHistoryPrefix(t *testing.T) {
	const maxEpoch = 4
	ep := EpochParams{Epoch: maxEpoch, ChurnFrac: 0.3}
	full := GenerateEpoch(epochCfg(), ep)
	for e := 0; e <= maxEpoch; e++ {
		at := GenerateEpoch(epochCfg(), EpochParams{Epoch: e, ChurnFrac: 0.3})
		if len(at.Sites) != len(full.Sites) {
			t.Fatalf("epoch %d: site count %d != %d", e, len(at.Sites), len(full.Sites))
		}
		for i, s := range at.Sites {
			want := full.Sites[i].IdentityAt(e)
			if s.Host != want.Host || s.FamilyToken != want.FamilyToken {
				t.Fatalf("epoch %d site %d: %s/%s, want history %s/%s",
					e, i, s.Host, s.FamilyToken, want.Host, want.FamilyToken)
			}
		}
	}
}

// TestEpochChurnProperties: churn must move some malicious sites per
// epoch, never benign ones, never reuse a host, and be deterministic.
func TestEpochChurnProperties(t *testing.T) {
	ep := EpochParams{Epoch: 3, ChurnFrac: 0.4}
	u := GenerateEpoch(epochCfg(), ep)
	u2 := GenerateEpoch(epochCfg(), ep)
	if len(u.ChangedSites) == 0 {
		t.Fatalf("no sites churned at ChurnFrac 0.4 over 3 epochs")
	}
	if len(u.ChangedSites) != len(u2.ChangedSites) || u.IntelFingerprint() != u2.IntelFingerprint() {
		t.Fatalf("churn not deterministic")
	}
	seen := map[string]bool{}
	for _, s := range u.Sites {
		if s.Kind == Benign && s.Gen != 0 {
			t.Fatalf("benign site %s churned", s.Host)
		}
		for _, id := range s.Identities {
			if id.Host != s.Host && seen[id.Host] {
				t.Fatalf("host %s reused across identities", id.Host)
			}
			seen[id.Host] = true
		}
		if s.Gen != 0 {
			last := s.Identities[len(s.Identities)-1]
			if last.Host != s.Host || last.FamilyToken != s.FamilyToken {
				t.Fatalf("site %s: last identity %+v does not match current", s.Host, last)
			}
			if s.EntryURL != "http://"+s.Host+"/" && s.Kind != ShortenedMalicious {
				t.Fatalf("site %s: entry URL %s not re-derived after churn", s.Host, s.EntryURL)
			}
		}
	}
}

// TestEpochLaggedIntel: with a blacklist lag, the feed must know a churned
// site by its OLD identity, not its new one — and intel coverage of the
// current population must not exceed the lag-0 coverage.
func TestEpochLaggedIntel(t *testing.T) {
	cfg := epochCfg()
	fresh := GenerateEpoch(cfg, EpochParams{Epoch: 3, ChurnFrac: 0.5})
	lagged := GenerateEpoch(cfg, EpochParams{Epoch: 3, ChurnFrac: 0.5, BlacklistLag: 2})

	// The universes' populations are identical; only the intel differs.
	if fresh.IntelFingerprint() == lagged.IntelFingerprint() {
		t.Fatalf("lagged intel fingerprint equals fresh one despite churn inside the lag window")
	}

	// Every blacklisted-kind site that churned inside the lag window must
	// be fed under its stale (epoch-1) host.
	churnedInWindow := 0
	for _, s := range lagged.SitesOfKind(Blacklisted) {
		stale := s.IdentityAt(1) // intel epoch = 3 - 2
		if stale.Host == s.Host {
			continue
		}
		churnedInWindow++
		if _, ok := lagged.Feed.DomainLabel(stale.Host); !ok {
			t.Fatalf("feed lost the stale identity %s of churned site %s", stale.Host, s.Host)
		}
		if _, ok := lagged.Feed.DomainLabel(s.Host); ok {
			t.Fatalf("lagged feed already knows the new identity %s", s.Host)
		}
	}
	if churnedInWindow == 0 {
		t.Fatalf("test vacuous: no blacklisted site churned inside the lag window")
	}

	fc, _, ft := fresh.IntelCoverage()
	lc, _, lt := lagged.IntelCoverage()
	if ft != lt {
		t.Fatalf("population sizes differ: %d vs %d", ft, lt)
	}
	if lc >= fc {
		t.Fatalf("lagged consensus coverage %d/%d not below fresh %d/%d", lc, lt, fc, ft)
	}
}

// TestEpochDecayErodesIntel: per-list decay must further shrink lagged
// coverage, and leave epoch-0 builds untouched (no staleness window).
func TestEpochDecayErodesIntel(t *testing.T) {
	cfg := epochCfg()
	lagged := GenerateEpoch(cfg, EpochParams{Epoch: 4, ChurnFrac: 0.2, BlacklistLag: 2})
	decayed := GenerateEpoch(cfg, EpochParams{Epoch: 4, ChurnFrac: 0.2, BlacklistLag: 2, DecayPerEpoch: 0.3})
	// Listings of member sites, summed over the lists.
	sizeOf := func(u *Universe) int {
		total := 0
		for _, s := range u.Sites {
			total += len(u.Blacklists.Matches(s.Host))
		}
		return total
	}
	if sizeOf(decayed) >= sizeOf(lagged) {
		t.Fatalf("decay did not shrink lists: %d vs %d", sizeOf(decayed), sizeOf(lagged))
	}
}

// TestIdentityAtBounds: IdentityAt clamps below the first identity and
// returns the current one for epochs beyond the last churn.
func TestIdentityAtBounds(t *testing.T) {
	s := &Site{Host: "now.example", FamilyToken: "tok_now"}
	if id := s.IdentityAt(5); id.Host != "now.example" {
		t.Fatalf("no-history IdentityAt = %+v", id)
	}
	s.Identities = []SiteIdentity{
		{Host: "old.example", FamilyToken: "tok_old", FromEpoch: 0},
		{Host: "mid.example", FamilyToken: "tok_mid", FromEpoch: 2},
		{Host: "now.example", FamilyToken: "tok_now", FromEpoch: 4},
	}
	for _, tc := range []struct {
		epoch int
		host  string
	}{{-1, "old.example"}, {0, "old.example"}, {1, "old.example"}, {2, "mid.example"}, {3, "mid.example"}, {4, "now.example"}, {9, "now.example"}} {
		if id := s.IdentityAt(tc.epoch); id.Host != tc.host {
			t.Fatalf("IdentityAt(%d) = %s, want %s", tc.epoch, id.Host, tc.host)
		}
	}
}
