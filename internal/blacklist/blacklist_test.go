package blacklist

import (
	"fmt"
	"testing"

	"repro/internal/simrand"
	"repro/internal/urlutil"
)

func TestListBasics(t *testing.T) {
	l := NewList("test")
	l.Add("luckyleap.net")
	l.Add("WWW.380TL.COM") // host normalizes to registered domain
	if !contains(l, "luckyleap.net") {
		t.Fatal("listed domain not found")
	}
	if !contains(l, "sub.luckyleap.net") {
		t.Fatal("subdomain of listed domain not matched")
	}
	if !contains(l, "380tl.com") {
		t.Fatal("case/host normalization failed")
	}
	if contains(l, "example.com") {
		t.Fatal("unlisted domain matched")
	}
	if len(l.domains) != 2 {
		t.Fatalf("len = %d, want 2", len(l.domains))
	}
}

func TestConsensusThreshold(t *testing.T) {
	a, b, c := NewList("a"), NewList("b"), NewList("c")
	a.Add("evil.example")
	b.Add("evil.example")
	a.Add("lonely.example") // only one list: below consensus
	s := NewSet(a, b, c)

	if !s.Malicious("evil.example") {
		t.Fatal("2-list domain not flagged")
	}
	if s.Malicious("lonely.example") {
		t.Fatal("1-list domain flagged despite threshold 2")
	}
	if got := s.Matches("evil.example"); len(got) != 2 {
		t.Fatalf("matches = %v", got)
	}
	s.Threshold = 1
	if !s.Malicious("lonely.example") {
		t.Fatal("threshold-1 set must flag single-list domain")
	}
}

func TestMaliciousURL(t *testing.T) {
	a, b := NewList("a"), NewList("b")
	a.Add("yadro.ru")
	b.Add("yadro.ru")
	s := NewSet(a, b)
	if !s.Malicious("counter.yadro.ru") {
		t.Fatal("URL host not matched")
	}
	if s.Malicious("") {
		t.Fatal("empty host flagged")
	}
}

// contains reports whether the host's registered domain is on l.
func contains(l *List, host string) bool {
	return l.containsDomain(urlutil.RegisteredDomain(host))
}

func domainList(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d.example", prefix, i)
	}
	return out
}

func TestBuildStandardSetRecallAndPrecision(t *testing.T) {
	rng := simrand.New(42)
	bad := domainList("bad", 500)
	benign := domainList("ok", 2000)
	s := BuildStandardSet(rng, bad, benign, DefaultBuildConfig())

	if got := len(s.lists); got != len(StandardListNames) {
		t.Fatalf("lists = %d", got)
	}
	tp := 0
	for _, d := range bad {
		if s.Malicious(d) {
			tp++
		}
	}
	recall := float64(tp) / float64(len(bad))
	// With coverage .75 across 6 lists, P(>=2 lists) is essentially 1.
	if recall < 0.95 {
		t.Fatalf("consensus recall = %v, want > 0.95", recall)
	}
	fp := 0
	for _, d := range benign {
		if s.Malicious(d) {
			fp++
		}
	}
	fpRate := float64(fp) / float64(len(benign))
	// Independent 1% FP per list -> P(>=2 of 6) ~ 0.0015.
	if fpRate > 0.01 {
		t.Fatalf("consensus FP rate = %v, want < 0.01", fpRate)
	}

	// Single-list lookups must show the false positives consensus hides.
	singleFP := 0
	for _, d := range benign {
		if len(s.Matches(d)) >= 1 {
			singleFP++
		}
	}
	if singleFP <= fp {
		t.Fatalf("single-list FPs (%d) should exceed consensus FPs (%d)", singleFP, fp)
	}
}

func TestBuildDeterministic(t *testing.T) {
	bad := domainList("bad", 50)
	benign := domainList("ok", 50)
	s1 := BuildStandardSet(simrand.New(7), bad, benign, DefaultBuildConfig())
	s2 := BuildStandardSet(simrand.New(7), bad, benign, DefaultBuildConfig())
	for i, l := range s1.lists {
		d1 := l.Domains()
		d2 := s2.lists[i].Domains()
		if len(d1) != len(d2) {
			t.Fatalf("list %s differs across identical seeds", l.name)
		}
		for j := range d1 {
			if d1[j] != d2[j] {
				t.Fatalf("list %s entry %d differs", l.name, j)
			}
		}
	}
}

func TestConcurrentLookups(t *testing.T) {
	l := NewList("c")
	done := make(chan struct{}, 20)
	for i := 0; i < 10; i++ {
		i := i
		go func() {
			l.Add(fmt.Sprintf("d%d.example", i))
			done <- struct{}{}
		}()
		go func() {
			contains(l, "d0.example")
			done <- struct{}{}
		}()
	}
	for i := 0; i < 20; i++ {
		<-done
	}
	if len(l.domains) != 10 {
		t.Fatalf("len = %d", len(l.domains))
	}
}

func BenchmarkConsensusLookup(b *testing.B) {
	rng := simrand.New(1)
	s := BuildStandardSet(rng, domainList("bad", 5000), domainList("ok", 20000), DefaultBuildConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Malicious("bad42.example")
		s.Malicious("ok42.example")
	}
}

// TestDecayStreamAlignment: a build with the staleness model disabled
// (zero staleness or zero decay) must be bit-identical to a build that
// never heard of the model — the decay substream is only created when both
// knobs are set, so epoch-0 universes keep their pre-longitudinal bytes.
func TestDecayStreamAlignment(t *testing.T) {
	bad, ok := domainList("bad", 400), domainList("ok", 1200)
	base := BuildStandardSet(simrand.New(7), bad, ok, DefaultBuildConfig())
	for _, cfg := range []BuildConfig{
		{Coverage: 0.75, FalsePositiveRate: 0.01, Staleness: 3},       // no decay rate
		{Coverage: 0.75, FalsePositiveRate: 0.01, DecayPerEpoch: 0.2}, // no staleness
		{Coverage: 0.75, FalsePositiveRate: 0.01},                     // neither
	} {
		got := BuildStandardSet(simrand.New(7), bad, ok, cfg)
		if got.Fingerprint() != base.Fingerprint() {
			t.Fatalf("cfg %+v perturbed the build: fingerprint %016x != %016x",
				cfg, got.Fingerprint(), base.Fingerprint())
		}
	}
}

// TestDecayErodesCoverage: an active staleness model must strictly shrink
// bad-domain coverage, deterministically, and more staleness must never
// mean less decay.
func TestDecayErodesCoverage(t *testing.T) {
	bad, ok := domainList("bad", 500), domainList("ok", 100)
	count := func(staleness int) int {
		cfg := DefaultBuildConfig()
		cfg.Staleness = staleness
		cfg.DecayPerEpoch = 0.15
		s := BuildStandardSet(simrand.New(3), bad, ok, cfg)
		total := 0
		for _, l := range s.lists {
			total += len(l.domains)
		}
		return total
	}
	fresh, stale1, stale4 := count(0), count(1), count(4)
	if !(stale4 < stale1 && stale1 < fresh) {
		t.Fatalf("decay not monotone: fresh=%d stale1=%d stale4=%d", fresh, stale1, stale4)
	}
	if a, b := count(4), count(4); a != b {
		t.Fatalf("decay not deterministic: %d vs %d", a, b)
	}
}

// TestSetFingerprintSensitivity: the fingerprint must move on any content
// change and stay put on none.
func TestSetFingerprintSensitivity(t *testing.T) {
	mk := func() *Set {
		a, b := NewList("a"), NewList("b")
		a.Add("evil.example")
		b.Add("evil.example")
		b.Add("worse.example")
		return NewSet(a, b)
	}
	s1, s2 := mk(), mk()
	if s1.Fingerprint() != s2.Fingerprint() {
		t.Fatalf("identical sets disagree: %016x vs %016x", s1.Fingerprint(), s2.Fingerprint())
	}
	s2.lists[0].Add("new.example")
	if s1.Fingerprint() == s2.Fingerprint() {
		t.Fatalf("fingerprint blind to an added domain")
	}
}
