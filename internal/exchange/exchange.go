// Package exchange simulates auto-surf and manual-surf traffic exchange
// services — the nine platforms of Table I.
//
// An exchange rotates member-submitted URLs to surfing members on a
// reciprocal credit economy. The simulator reproduces the behaviours the
// paper measures and describes: self-referrals (exchanges opening their
// own homepage in the surf frame), popular referrals (bogus views for
// YouTube-class sites), minimum surf timers, CAPTCHA gates on manual-surf,
// one-account-per-IP enforcement with parallel-session suspension (the
// Otohits screenshot), purchasable visit campaigns that arrive as short
// intense bursts (the Figure 3 manual-surf signature, validated by the
// paper's $5/2,500-visit purchase), and a visitor population drawn from
// the countries the paper lists.
package exchange

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/httpsim"
	"repro/internal/shortener"
	"repro/internal/simrand"
	"repro/internal/web"
)

// Kind distinguishes auto-surf from manual-surf exchanges.
type Kind int

// Exchange kinds.
const (
	AutoSurf Kind = iota + 1
	ManualSurf
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == AutoSurf {
		return "Auto-surf"
	}
	return "Manual-surf"
}

// Errors.
var (
	ErrIPInUse         = errors.New("exchange: an account already exists for this IP")
	ErrParallelSession = errors.New("exchange: multiple parallel sessions detected; account suspended")
	ErrCaptchaPending  = errors.New("exchange: solve the captcha before surfing")
	ErrNoSuchAccount   = errors.New("exchange: no such account")
	ErrSuspended       = errors.New("exchange: account suspended")
	ErrSurfTooShort    = errors.New("exchange: surf below minimum time, no credit")
	ErrBadPlannedSteps = errors.New("exchange: planned steps must be positive")
)

// Config describes one exchange.
type Config struct {
	// Name is the display name ("10KHits").
	Name string
	// Host is the exchange's own hostname; self-referrals point here.
	Host string
	// Kind is auto- or manual-surf.
	Kind Kind
	// MinSurfSeconds is the minimum dwell per page for a valid visit
	// (10s-10min across real exchanges).
	MinSurfSeconds int
	// SelfFrac and PopularFrac are the rotation shares of self-referrals
	// and popular referrals (Table I columns).
	SelfFrac    float64
	PopularFrac float64
	// MalFrac is the target malicious share among regular URLs (Table I
	// "% Malicious URLs").
	MalFrac float64
	// AllowMultiSession disables parallel-session suspension (some
	// exchanges tolerate it; Otohits famously does not).
	AllowMultiSession bool
	// Campaigns schedules paid bursts for manual-surf rotation windows.
	Campaigns []CampaignWindow
	// CreditPerSurf is the credit a member earns per valid surf.
	CreditPerSurf float64
}

// CampaignWindow is a paid fixed-duration campaign occupying a fraction of
// the crawl timeline with elevated malicious density.
type CampaignWindow struct {
	// StartFrac and EndFrac position the window within the session
	// timeline, as fractions of planned steps.
	StartFrac, EndFrac float64
	// MalDensity is the malicious probability inside the window.
	MalDensity float64
}

// Exchange is a running exchange service.
type Exchange struct {
	cfg     Config
	pool    *web.Pool
	popular []string
	rng     *simrand.Source

	kindWeights *simrand.Weighted
	kindOrder   []web.MaliceKind
	// siteSamplers picks a site within a kind, importance-weighted so the
	// observed URL stream matches the global TLD/category mixes even when
	// the pool slice is small (see web.ObservationWeights).
	siteSamplers map[web.MaliceKind]*simrand.Weighted
	baseline     float64

	mu       sync.Mutex
	members  map[string]*Member
	ipTaken  map[string]string // ip -> account
	sessions map[string]*Session
}

// Member is one exchange account.
type Member struct {
	Account   string
	IP        string
	Credits   float64
	Suspended bool
}

// New builds an exchange over a site pool and the popular URL list.
func New(cfg Config, pool *web.Pool, popularURLs []string, rng *simrand.Source) *Exchange {
	e := &Exchange{
		cfg:      cfg,
		pool:     pool,
		popular:  popularURLs,
		rng:      rng,
		members:  make(map[string]*Member),
		ipTaken:  make(map[string]string),
		sessions: make(map[string]*Session),
	}
	// Kind-weighted malicious selection: only kinds present in the pool.
	weights := web.KindWeights()
	for k, sites := range pool.MalByKind {
		if len(sites) > 0 {
			e.kindOrder = append(e.kindOrder, k)
		}
	}
	// Deterministic order.
	for i := 1; i < len(e.kindOrder); i++ {
		for j := i; j > 0 && e.kindOrder[j] < e.kindOrder[j-1]; j-- {
			e.kindOrder[j], e.kindOrder[j-1] = e.kindOrder[j-1], e.kindOrder[j]
		}
	}
	ws := make([]float64, len(e.kindOrder))
	for i, k := range e.kindOrder {
		ws[i] = weights[k]
	}
	if len(ws) > 0 {
		e.kindWeights = simrand.NewWeighted(ws)
	}
	e.siteSamplers = make(map[web.MaliceKind]*simrand.Weighted, len(e.kindOrder))
	for _, k := range e.kindOrder {
		e.siteSamplers[k] = simrand.NewWeighted(web.ObservationWeights(pool.MalByKind[k]))
	}
	e.baseline = e.computeBaseline()
	return e
}

// computeBaseline solves for the out-of-campaign malicious density so the
// expected overall share still equals MalFrac.
func (e *Exchange) computeBaseline() float64 {
	covered, contributed := 0.0, 0.0
	for _, w := range e.cfg.Campaigns {
		span := w.EndFrac - w.StartFrac
		if span <= 0 {
			continue
		}
		covered += span
		contributed += span * w.MalDensity
	}
	if covered >= 1 {
		return 0
	}
	base := (e.cfg.MalFrac - contributed) / (1 - covered)
	if base < 0 {
		base = 0
	}
	if base > 1 {
		base = 1
	}
	return base
}

// Config returns the exchange's configuration.
func (e *Exchange) Config() Config { return e.cfg }

// HomeURL is the exchange's own homepage (the self-referral target).
func (e *Exchange) HomeURL() string { return "http://" + e.cfg.Host + "/" }

// Register creates an account bound to an IP. A second account from the
// same IP is rejected — the diversity guarantee exchanges sell.
func (e *Exchange) Register(account, ip string) (*Member, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if prev, taken := e.ipTaken[ip]; taken && prev != account {
		return nil, fmt.Errorf("%w: %s", ErrIPInUse, ip)
	}
	if _, exists := e.members[account]; exists {
		return nil, fmt.Errorf("exchange: account %q already exists", account)
	}
	m := &Member{Account: account, IP: ip}
	e.members[account] = m
	e.ipTaken[ip] = account
	return m, nil
}

// StartSession opens a surf session for an account. A second concurrent
// session suspends the account on strict exchanges (the Otohits
// behaviour). plannedSteps must be positive: it is the denominator of the
// session's progress ratio, so a zero-step session would carry NaN
// progress into every densityAt window comparison.
func (e *Exchange) StartSession(account string, plannedSteps int) (*Session, error) {
	if plannedSteps <= 0 {
		return nil, fmt.Errorf("%w, got %d", ErrBadPlannedSteps, plannedSteps)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	m, ok := e.members[account]
	if !ok {
		return nil, ErrNoSuchAccount
	}
	if m.Suspended {
		return nil, ErrSuspended
	}
	if _, active := e.sessions[account]; active && !e.cfg.AllowMultiSession {
		m.Suspended = true
		delete(e.sessions, account)
		return nil, ErrParallelSession
	}
	s := &Session{
		ex:      e,
		member:  m,
		planned: plannedSteps,
		rng:     e.rng.Sub("session:" + account),
	}
	e.sessions[account] = s
	return s, nil
}

// EndSession closes the account's session.
func (e *Exchange) EndSession(account string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.sessions, account)
}

// Step is one surf assignment.
type Step struct {
	// URL is the page to surf.
	URL string
	// SurfSeconds is the required dwell.
	SurfSeconds int
	// Referral classifies the rotation slot the URL came from: "self",
	// "popular", or "regular". It reflects the exchange's behaviour, not
	// a ground-truth label; the analysis pipeline re-derives referral
	// classes from URLs alone.
	Referral string
}

// Session is one member's surf session. Not safe for concurrent use (one
// browser per session, as the real exchanges enforce).
type Session struct {
	ex      *Exchange
	member  *Member
	planned int
	step    int
	rng     *simrand.Source

	pendingCaptcha *Captcha
	captchaSolved  bool
}

// Captcha is the manual-surf gate.
type Captcha struct {
	ID       string
	Question string
	expected string
}

// Challenge returns the CAPTCHA that must be solved before the next
// manual-surf step (nil for auto-surf exchanges).
func (s *Session) Challenge() *Captcha {
	if s.ex.cfg.Kind != ManualSurf || s.captchaSolved {
		return nil
	}
	if s.pendingCaptcha == nil {
		a, b := s.rng.Range(1, 9), s.rng.Range(1, 9)
		s.pendingCaptcha = &Captcha{
			ID:       s.rng.Token(8),
			Question: fmt.Sprintf("%d + %d = ?", a, b),
			expected: fmt.Sprintf("%d", a+b),
		}
	}
	return s.pendingCaptcha
}

// Solve submits a CAPTCHA answer.
func (s *Session) Solve(id, answer string) bool {
	c := s.pendingCaptcha
	if c == nil || c.ID != id {
		return false
	}
	if c.expected != answer {
		return false
	}
	s.pendingCaptcha = nil
	s.captchaSolved = true
	return true
}

// SolveChallenge is the convenience used by the measurement crawler: it
// answers its own arithmetic challenge (the study crawled manual-surf
// exchanges by hand; our crawler automates the hand).
func SolveChallenge(c *Captcha) string { return c.expected }

// Next returns the next surf step. Manual-surf sessions must have solved
// the pending CAPTCHA.
func (s *Session) Next() (Step, error) {
	if s.ex.cfg.Kind == ManualSurf {
		if !s.captchaSolved {
			return Step{}, ErrCaptchaPending
		}
		s.captchaSolved = false // the next step needs a fresh captcha
	}
	progress := float64(s.step) / float64(s.planned)
	s.step++
	st := s.ex.pick(s.rng, progress)
	st.SurfSeconds = s.ex.cfg.MinSurfSeconds
	return st, nil
}

// Complete reports the dwell time for a finished surf; meeting the
// minimum earns credit.
func (s *Session) Complete(st Step, dwellSeconds int) error {
	if dwellSeconds < st.SurfSeconds {
		return ErrSurfTooShort
	}
	s.ex.mu.Lock()
	defer s.ex.mu.Unlock()
	credit := s.ex.cfg.CreditPerSurf
	if credit == 0 {
		credit = 1
	}
	s.member.Credits += credit
	return nil
}

// pick selects a URL for a rotation slot at the given timeline position.
func (e *Exchange) pick(rng *simrand.Source, progress float64) Step {
	roll := rng.Float64()
	switch {
	case roll < e.cfg.SelfFrac:
		return Step{URL: e.HomeURL(), Referral: "self"}
	case roll < e.cfg.SelfFrac+e.cfg.PopularFrac && len(e.popular) > 0:
		return Step{URL: simrand.Pick(rng, e.popular), Referral: "popular"}
	}
	density := e.densityAt(progress)
	if rng.Bool(density) && e.kindWeights != nil {
		kind := e.kindOrder[e.kindWeights.Sample(rng)]
		sites := e.pool.MalByKind[kind]
		site := sites[e.siteSamplers[kind].Sample(rng)]
		return Step{URL: e.pickPage(rng, site), Referral: "regular"}
	}
	if len(e.pool.Benign) == 0 {
		return Step{URL: e.HomeURL(), Referral: "self"}
	}
	site := simrand.Pick(rng, e.pool.Benign)
	return Step{URL: e.pickPage(rng, site), Referral: "regular"}
}

// pickPage chooses among a site's pages; shortened entries are always the
// alias itself. The page is picked by index and only the chosen URL is
// materialized — building every page URL per step (site.PageURLs) showed
// up as one of the crawl loop's top allocation sites. rng consumption is
// identical either way: one Intn over the same length.
func (e *Exchange) pickPage(rng *simrand.Source, site *web.Site) string {
	if site.Kind == web.ShortenedMalicious {
		return site.EntryURL
	}
	if len(site.Pages) == 0 {
		return site.EntryURL
	}
	return "http://" + site.Host + simrand.Pick(rng, site.Pages)
}

// densityAt returns the malicious density at a timeline position,
// honoring campaign windows.
func (e *Exchange) densityAt(progress float64) float64 {
	for _, w := range e.cfg.Campaigns {
		if progress >= w.StartFrac && progress < w.EndFrac {
			return w.MalDensity
		}
	}
	return e.baseline
}

// RegisterHomepage installs the exchange's own site on the internet so
// self-referrals resolve. The page mimics the surf interface.
func (e *Exchange) RegisterHomepage(in *httpsim.Internet) {
	home := fmt.Sprintf(`<html><head><title>%s</title></head><body>
<h1>%s — %s exchange</h1>
<div id="surfbar">Timer: <span id="t">%d</span>s</div>
<iframe id="surf-frame" src="about:blank" width="100%%" height="90%%"></iframe>
</body></html>`, e.cfg.Name, e.cfg.Name, e.cfg.Kind, e.cfg.MinSurfSeconds)
	// One immutable response serves every visit (see
	// httpsim.Response.Complete).
	resp := httpsim.HTML(home).Complete(e.HomeURL())
	in.Register(e.cfg.Host, func(*httpsim.Request) *httpsim.Response { return resp })
}

// --- campaign purchase & delivery (the §IV validation experiment) ---

// VisitorCountries is the population mix the paper describes for exchange
// userbases.
var VisitorCountries = []string{
	"India", "Pakistan", "Egypt", "Russia", "Mexico", "Brazil", "USA",
	"Indonesia", "Bangladesh", "Vietnam",
}

var visitorCountryWeights = []float64{
	0.18, 0.12, 0.08, 0.10, 0.07, 0.12, 0.10, 0.09, 0.07, 0.07,
}

// CampaignReceipt summarizes a delivered paid campaign.
type CampaignReceipt struct {
	TargetURL       string
	PurchasedVisits int
	PriceUSD        float64
	// DeliveredVisits exceeds the purchase (exchanges over-deliver to
	// keep buyers happy; the paper bought 2,500 and received 4,621).
	DeliveredVisits int
	// UniqueIPs counts distinct visitor IPs (2,685 in the paper's
	// purchase).
	UniqueIPs int
	// Duration is the delivery wall-time (< 1 hour in the paper).
	Duration time.Duration
	// Errors counts failed deliveries (target unreachable).
	Errors int
}

// BuyCampaign purchases visits for a URL and delivers them immediately as
// an intense burst over the given transport. Visits carry the exchange as
// referrer and a visitor-country header, so shortener statistics and any
// target-side counters see realistic traffic.
func (e *Exchange) BuyCampaign(transport httpsim.RoundTripper, targetURL string, visits int, priceUSD float64) *CampaignReceipt {
	rng := e.rng.Sub("campaign:" + targetURL)
	over := 1.6 + rng.Float64()*0.5 // 1.6x-2.1x over-delivery
	delivered := int(float64(visits) * over)

	// Visitor pool: smaller than the delivery count, so IPs repeat and
	// the unique-IP count lands well below delivered visits.
	poolSize := int(float64(delivered) * (0.5 + rng.Float64()*0.2))
	if poolSize < 1 {
		poolSize = 1
	}
	type visitor struct {
		ip      string
		country string
	}
	pool := make([]visitor, poolSize)
	for i := range pool {
		pool[i] = visitor{
			ip:      fmt.Sprintf("%d.%d.%d.%d", rng.Range(1, 223), rng.Range(0, 255), rng.Range(0, 255), rng.Range(1, 254)),
			country: simrand.WeightedPick(rng, VisitorCountries, visitorCountryWeights),
		}
	}

	rec := &CampaignReceipt{
		TargetURL:       targetURL,
		PurchasedVisits: visits,
		PriceUSD:        priceUSD,
	}
	unique := make(map[string]bool)
	var elapsed time.Duration
	for i := 0; i < delivered; i++ {
		v := pool[rng.Intn(poolSize)]
		unique[v.ip] = true
		_, err := transport.RoundTrip(&httpsim.Request{
			URL:       targetURL,
			UserAgent: "Mozilla/5.0 (compatible; surfbar)",
			Referrer:  e.HomeURL(),
			Header: map[string]string{
				shortener.CountryHeader: v.country,
				"X-Forwarded-For":       v.ip,
			},
		})
		if err != nil {
			rec.Errors++
		}
		rec.DeliveredVisits++
		// Bursty pacing: ~0.3-1.2 simulated seconds per visit.
		elapsed += time.Duration(300+rng.Intn(900)) * time.Millisecond
	}
	rec.UniqueIPs = len(unique)
	rec.Duration = elapsed
	return rec
}

// DriveTraffic simulates background member traffic to a URL: n visits
// with the exchange as referrer and pool-drawn countries. It feeds the
// Table IV shortener hit counters.
func (e *Exchange) DriveTraffic(transport httpsim.RoundTripper, targetURL string, n int) int {
	rng := e.rng.Sub("traffic:" + targetURL)
	ok := 0
	for i := 0; i < n; i++ {
		country := simrand.WeightedPick(rng, VisitorCountries, visitorCountryWeights)
		_, err := transport.RoundTrip(&httpsim.Request{
			URL:       targetURL,
			UserAgent: "Mozilla/5.0 (compatible; surfbar)",
			Referrer:  e.HomeURL(),
			Header:    map[string]string{shortener.CountryHeader: country},
		})
		if err == nil {
			ok++
		}
	}
	return ok
}
