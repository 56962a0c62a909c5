package exchange

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/httpsim"
	"repro/internal/simrand"
	"repro/internal/urlutil"
	"repro/internal/web"
)

func testSetup(t *testing.T) (*web.Universe, *web.Pool) {
	t.Helper()
	cfg := web.DefaultConfig()
	cfg.Seed = 11
	cfg.BenignSites = 150
	cfg.MaliciousSites = 110
	u := web.Generate(cfg)
	pools, err := u.SplitPools(simrand.New(2), []web.PoolSpec{{Benign: 120, Malicious: 60}})
	if err != nil {
		t.Fatal(err)
	}
	return u, pools[0]
}

func autoCfg() Config {
	return Config{
		Name: "TestAuto", Host: "testauto.sim", Kind: AutoSurf,
		MinSurfSeconds: 10, SelfFrac: 0.06, PopularFrac: 0.11, MalFrac: 0.30,
	}
}

func manualCfg() Config {
	return Config{
		Name: "TestManual", Host: "testmanual.sim", Kind: ManualSurf,
		MinSurfSeconds: 20, SelfFrac: 0.08, PopularFrac: 0.06, MalFrac: 0.10,
		Campaigns: []CampaignWindow{{StartFrac: 0.4, EndFrac: 0.5, MalDensity: 0.8}},
	}
}

func TestRegisterOneAccountPerIP(t *testing.T) {
	u, pool := testSetup(t)
	e := New(autoCfg(), pool, u.PopularURLs, simrand.New(1))
	if _, err := e.Register("alice", "10.0.0.1"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register("bob", "10.0.0.1"); !errors.Is(err, ErrIPInUse) {
		t.Fatalf("second account on same IP: err = %v", err)
	}
	if _, err := e.Register("carol", "10.0.0.2"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register("carol", "10.0.0.3"); err == nil {
		t.Fatal("duplicate account name accepted")
	}
}

func TestParallelSessionSuspension(t *testing.T) {
	u, pool := testSetup(t)
	e := New(autoCfg(), pool, u.PopularURLs, simrand.New(1))
	if _, err := e.Register("alice", "10.0.0.1"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.StartSession("alice", 100); err != nil {
		t.Fatal(err)
	}
	// Otohits behaviour: the parallel session suspends the account.
	if _, err := e.StartSession("alice", 100); !errors.Is(err, ErrParallelSession) {
		t.Fatalf("err = %v, want ErrParallelSession", err)
	}
	if _, err := e.StartSession("alice", 100); !errors.Is(err, ErrSuspended) {
		t.Fatalf("suspended account restarted: %v", err)
	}
	m, _ := member(e, "alice")
	if !m.Suspended {
		t.Fatal("account not marked suspended")
	}
}

func TestMultiSessionAllowedWhenConfigured(t *testing.T) {
	u, pool := testSetup(t)
	cfg := autoCfg()
	cfg.AllowMultiSession = true
	e := New(cfg, pool, u.PopularURLs, simrand.New(1))
	e.Register("alice", "10.0.0.1")
	if _, err := e.StartSession("alice", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := e.StartSession("alice", 10); err != nil {
		t.Fatalf("multi-session exchange rejected parallel session: %v", err)
	}
}

func TestRotationShares(t *testing.T) {
	u, pool := testSetup(t)
	e := New(autoCfg(), pool, u.PopularURLs, simrand.New(5))
	e.Register("alice", "10.0.0.1")
	s, err := e.StartSession("alice", 20000)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	mal := 0
	n := 20000
	for i := 0; i < n; i++ {
		st, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		counts[st.Referral]++
		if st.Referral == "regular" && u.TruthByURL(st.URL).Malicious() {
			mal++
		}
	}
	selfShare := float64(counts["self"]) / float64(n)
	popShare := float64(counts["popular"]) / float64(n)
	if math.Abs(selfShare-0.06) > 0.01 {
		t.Fatalf("self share = %v, want ~0.06", selfShare)
	}
	if math.Abs(popShare-0.11) > 0.01 {
		t.Fatalf("popular share = %v, want ~0.11", popShare)
	}
	malShare := float64(mal) / float64(counts["regular"])
	if math.Abs(malShare-0.30) > 0.03 {
		t.Fatalf("malicious share among regular = %v, want ~0.30", malShare)
	}
}

func TestManualSurfCaptchaGate(t *testing.T) {
	u, pool := testSetup(t)
	e := New(manualCfg(), pool, u.PopularURLs, simrand.New(5))
	e.Register("alice", "10.0.0.1")
	s, err := e.StartSession("alice", 100)
	if err != nil {
		t.Fatal(err)
	}
	// Next without solving must fail.
	if _, err := s.Next(); !errors.Is(err, ErrCaptchaPending) {
		t.Fatalf("err = %v, want ErrCaptchaPending", err)
	}
	c := s.Challenge()
	if c == nil || !strings.Contains(c.Question, "+") {
		t.Fatalf("challenge = %+v", c)
	}
	if s.Solve(c.ID, "wrong-answer") {
		t.Fatal("wrong answer accepted")
	}
	if !s.Solve(c.ID, SolveChallenge(c)) {
		t.Fatal("correct answer rejected")
	}
	if _, err := s.Next(); err != nil {
		t.Fatalf("Next after solve: %v", err)
	}
	// A new captcha is required for the following step.
	if _, err := s.Next(); !errors.Is(err, ErrCaptchaPending) {
		t.Fatalf("second step without captcha: err = %v", err)
	}
}

func TestAutoSurfNoCaptcha(t *testing.T) {
	u, pool := testSetup(t)
	e := New(autoCfg(), pool, u.PopularURLs, simrand.New(5))
	e.Register("alice", "10.0.0.1")
	s, _ := e.StartSession("alice", 10)
	if s.Challenge() != nil {
		t.Fatal("auto-surf session issued a captcha")
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Next(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCreditsRequireMinimumSurf(t *testing.T) {
	u, pool := testSetup(t)
	e := New(autoCfg(), pool, u.PopularURLs, simrand.New(5))
	e.Register("alice", "10.0.0.1")
	s, _ := e.StartSession("alice", 10)
	st, _ := s.Next()
	if err := s.Complete(st, st.SurfSeconds-1); !errors.Is(err, ErrSurfTooShort) {
		t.Fatalf("short surf: err = %v", err)
	}
	if err := s.Complete(st, st.SurfSeconds); err != nil {
		t.Fatal(err)
	}
	m, _ := member(e, "alice")
	if m.Credits != 1 {
		t.Fatalf("credits = %v, want 1", m.Credits)
	}
}

func TestCampaignWindowBurst(t *testing.T) {
	u, pool := testSetup(t)
	e := New(manualCfg(), pool, u.PopularURLs, simrand.New(9))
	e.Register("alice", "10.0.0.1")
	n := 8000
	s, _ := e.StartSession("alice", n)
	inWindowMal, inWindowTotal := 0, 0
	outWindowMal, outWindowTotal := 0, 0
	for i := 0; i < n; i++ {
		c := s.Challenge()
		s.Solve(c.ID, SolveChallenge(c))
		st, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if st.Referral != "regular" {
			continue
		}
		progress := float64(i) / float64(n)
		isMal := u.TruthByURL(st.URL).Malicious()
		if progress >= 0.4 && progress < 0.5 {
			inWindowTotal++
			if isMal {
				inWindowMal++
			}
		} else {
			outWindowTotal++
			if isMal {
				outWindowMal++
			}
		}
	}
	inRate := float64(inWindowMal) / float64(inWindowTotal)
	outRate := float64(outWindowMal) / float64(outWindowTotal)
	if inRate < 0.6 {
		t.Fatalf("in-window malicious rate = %v, want >= 0.6", inRate)
	}
	if outRate > 0.1 {
		t.Fatalf("out-of-window rate = %v, want small baseline", outRate)
	}
}

func TestBaselineSolvesForOverallShare(t *testing.T) {
	u, pool := testSetup(t)
	e := New(manualCfg(), pool, u.PopularURLs, simrand.New(13))
	e.Register("alice", "10.0.0.1")
	n := 20000
	s, _ := e.StartSession("alice", n)
	mal, regular := 0, 0
	for i := 0; i < n; i++ {
		c := s.Challenge()
		s.Solve(c.ID, SolveChallenge(c))
		st, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if st.Referral != "regular" {
			continue
		}
		regular++
		if u.TruthByURL(st.URL).Malicious() {
			mal++
		}
	}
	share := float64(mal) / float64(regular)
	if math.Abs(share-0.10) > 0.02 {
		t.Fatalf("overall malicious share = %v, want ~0.10 despite campaign window", share)
	}
}

func TestBuyCampaignReceipt(t *testing.T) {
	u, pool := testSetup(t)
	e := New(manualCfg(), pool, u.PopularURLs, simrand.New(21))
	// Dummy website counting visits.
	visits := 0
	uniqueIPs := map[string]bool{}
	u.Internet.Register("dummy-site.sim", func(req *httpsim.Request) *httpsim.Response {
		visits++
		if req.Header != nil {
			uniqueIPs[req.Header["X-Forwarded-For"]] = true
		}
		return httpsim.HTML("<html>dummy</html>")
	})
	rec := e.BuyCampaign(u.Internet, "http://dummy-site.sim/", 2500, 5.00)

	if rec.DeliveredVisits != visits {
		t.Fatalf("receipt says %d visits, site counted %d", rec.DeliveredVisits, visits)
	}
	// The paper: purchased 2,500, received 4,621 from 2,685 unique IPs
	// in under an hour.
	if rec.DeliveredVisits < 3500 || rec.DeliveredVisits > 5500 {
		t.Fatalf("delivered = %d, want 1.6x-2.1x over-delivery of 2500", rec.DeliveredVisits)
	}
	if rec.UniqueIPs >= rec.DeliveredVisits {
		t.Fatalf("unique IPs (%d) must be below visits (%d): pool reuse expected", rec.UniqueIPs, rec.DeliveredVisits)
	}
	ratio := float64(rec.UniqueIPs) / float64(rec.DeliveredVisits)
	if ratio < 0.35 || ratio > 0.80 {
		t.Fatalf("unique/visits ratio = %v, want ~0.58-like range", ratio)
	}
	if rec.Duration <= 0 || rec.Duration > time.Hour {
		t.Fatalf("duration = %v, want under an hour", rec.Duration)
	}
}

func TestDriveTrafficFeedsShortenerStats(t *testing.T) {
	u, pool := testSetup(t)
	e := New(autoCfg(), pool, u.PopularURLs, simrand.New(23))
	short := u.SitesOfKind(web.ShortenedMalicious)[0]
	delivered := e.DriveTraffic(u.Internet, short.EntryURL, 50)
	if delivered != 50 {
		t.Fatalf("delivered = %d", delivered)
	}
	p, _ := urlutil.Parse(short.EntryURL)
	svc, ok := u.Shorteners.Service(p.Host)
	if !ok {
		t.Fatal("service missing")
	}
	st, ok := svc.Stats(short.EntryURL)
	if !ok || st.ShortHits != 50 {
		t.Fatalf("stats = %+v", st)
	}
	if st.TopReferrer != "testauto.sim" {
		t.Fatalf("top referrer = %q", st.TopReferrer)
	}
	if st.TopCountry == "-" {
		t.Fatal("no country recorded")
	}
}

func TestHomepageRegistered(t *testing.T) {
	u, pool := testSetup(t)
	e := New(autoCfg(), pool, u.PopularURLs, simrand.New(29))
	e.RegisterHomepage(u.Internet)
	resp, err := u.Internet.RoundTrip(&httpsim.Request{URL: e.HomeURL()})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(resp.Body), "TestAuto") {
		t.Fatalf("homepage body = %q", resp.Body)
	}
}

func TestPaperSpecsConsistency(t *testing.T) {
	specs := PaperSpecs()
	if len(specs) != 9 {
		t.Fatalf("specs = %d, want 9", len(specs))
	}
	if got := totalCrawled(specs); got != 1003087 {
		t.Fatalf("total crawled = %d, want 1,003,087", got)
	}
	totalDomains, totalMalDomains, autoN, manualN := 0, 0, 0, 0
	for _, s := range specs {
		if s.SelfReferrals+s.PopularReferrals+s.RegularURLs != s.URLsCrawled {
			t.Fatalf("%s: referral columns do not sum to crawled count", s.Name)
		}
		if s.MaliciousURLs > s.RegularURLs {
			t.Fatalf("%s: malicious > regular", s.Name)
		}
		totalDomains += s.Domains
		totalMalDomains += s.MalwareDomains
		if s.Kind == AutoSurf {
			autoN++
		} else {
			manualN++
		}
		if s.Kind == ManualSurf && len(s.Campaigns) == 0 {
			t.Fatalf("%s: manual-surf spec without campaign windows", s.Name)
		}
	}
	if autoN != 5 || manualN != 4 {
		t.Fatalf("kinds = %d auto, %d manual; want 5 and 4", autoN, manualN)
	}
	if totalDomains != 17448 {
		t.Fatalf("total domains = %d, want 17,448", totalDomains)
	}
	if totalMalDomains != 2250 {
		t.Fatalf("total malware domains = %d, want 2,250", totalMalDomains)
	}
	// Spot-check the headline shares.
	send := specs[3]
	if send.Name != "SendSurf" || math.Abs(send.MalFrac()-0.519) > 0.001 {
		t.Fatalf("SendSurf MalFrac = %v", send.MalFrac())
	}
}

func BenchmarkRotation(b *testing.B) {
	cfg := web.DefaultConfig()
	cfg.Seed = 11
	cfg.BenignSites = 150
	cfg.MaliciousSites = 110
	u := web.Generate(cfg)
	pools, err := u.SplitPools(simrand.New(2), []web.PoolSpec{{Benign: 120, Malicious: 60}})
	if err != nil {
		b.Fatal(err)
	}
	e := New(autoCfg(), pools[0], u.PopularURLs, simrand.New(1))
	e.Register("alice", "10.0.0.1")
	s, _ := e.StartSession("alice", 1000000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStartSessionRejectsNonPositivePlannedSteps is the regression test
// for the zero-step session bug: planned steps is the denominator of the
// session's progress ratio, so a session started with 0 (or negative)
// steps would compute NaN progress, and NaN fails every densityAt window
// comparison silently — the session would surf with the malicious-URL
// windows effectively disabled. StartSession must refuse instead.
func TestStartSessionRejectsNonPositivePlannedSteps(t *testing.T) {
	u, pool := testSetup(t)
	e := New(autoCfg(), pool, u.PopularURLs, simrand.New(1))
	if _, err := e.Register("alice", "10.0.0.1"); err != nil {
		t.Fatal(err)
	}
	for _, planned := range []int{0, -1, -100} {
		if _, err := e.StartSession("alice", planned); !errors.Is(err, ErrBadPlannedSteps) {
			t.Errorf("StartSession(alice, %d): err = %v, want ErrBadPlannedSteps", planned, err)
		}
	}
	// The rejection must not leave a half-open session behind.
	s, err := e.StartSession("alice", 10)
	if err != nil {
		t.Fatalf("StartSession after rejected attempts: %v", err)
	}
	if _, err := s.Next(); err != nil {
		t.Fatalf("Next on valid session: %v", err)
	}
}

// TestEpochCampaignsLifecycle: epoch 0 is the identity (goldens depend on
// it); later epochs stay inside [0,1] with positive-width windows and
// feasible densities, rotate phases deterministically, and a takedown
// phase strictly reduces a window's density.
func TestEpochCampaignsLifecycle(t *testing.T) {
	base := []CampaignWindow{
		{StartFrac: 0.15, EndFrac: 0.22, MalDensity: 0.80},
		{StartFrac: 0.50, EndFrac: 0.56, MalDensity: 0.85},
		{StartFrac: 0.78, EndFrac: 0.83, MalDensity: 0.75},
	}
	got0 := EpochCampaigns(base, 0)
	if len(got0) != len(base) {
		t.Fatalf("epoch 0 changed window count: %d", len(got0))
	}
	for i := range base {
		if got0[i] != base[i] {
			t.Fatalf("epoch 0 window %d = %+v, want identity %+v", i, got0[i], base[i])
		}
	}
	for epoch := 1; epoch <= 6; epoch++ {
		ws := EpochCampaigns(base, epoch)
		again := EpochCampaigns(base, epoch)
		for i := range ws {
			if ws[i] != again[i] {
				t.Fatalf("epoch %d not deterministic", epoch)
			}
			w := ws[i]
			if w.StartFrac < 0 || w.EndFrac > 1 || w.EndFrac <= w.StartFrac {
				t.Fatalf("epoch %d window %d out of bounds: %+v", epoch, i, w)
			}
			if w.MalDensity < 0 || w.MalDensity > 0.95 {
				t.Fatalf("epoch %d window %d density infeasible: %+v", epoch, i, w)
			}
		}
		if len(ws) != len(base) {
			t.Fatalf("epoch %d dropped windows: %d", epoch, len(ws))
		}
	}
	// Window 0 at epoch 3: (3+0)%3 == 0 -> takedown.
	td := EpochCampaigns(base, 3)[0]
	if td.MalDensity >= base[0].MalDensity {
		t.Fatalf("takedown density %v not below base %v", td.MalDensity, base[0].MalDensity)
	}
	if td.EndFrac-td.StartFrac >= base[0].EndFrac-base[0].StartFrac {
		t.Fatalf("takedown window not narrowed: %+v", td)
	}
	// Window 0 at epoch 2: burst -> widened, denser.
	bu := EpochCampaigns(base, 2)[0]
	if bu.MalDensity <= base[0].MalDensity || bu.EndFrac-bu.StartFrac <= base[0].EndFrac-base[0].StartFrac {
		t.Fatalf("burst window not widened/denser: %+v", bu)
	}
}

// member returns an account.
func member(e *Exchange, account string) (*Member, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	m, ok := e.members[account]
	return m, ok
}

// totalCrawled sums the Table I crawl volumes (1,003,087 in the paper).
func totalCrawled(specs []PaperSpec) int {
	n := 0
	for _, s := range specs {
		n += s.URLsCrawled
	}
	return n
}
