// Package adnet simulates the advertising economy that makes traffic
// exchanges worth gaming. Per the paper (§II, citing Javed et al.),
// "monetization on traffic exchanges is done by ad impressions from bogus
// ad exchanges and referrer spoofing on legitimate ad exchanges", and per
// §VI "most reputable ad networks consider the use of traffic exchanges
// fraudulent and have strategies in place to vet the ad impression
// figures".
//
// Two network archetypes are modeled:
//
//   - a bogus network (the AdHitz analog) that pays for any impression —
//     which is why blacklisted member sites embed its banners;
//   - a legitimate network (the AdSense analog) that runs impression
//     vetting (internal/guard's AdFraudVetter) and bans publishers whose
//     impression batches carry the exchange-traffic signature, even when
//     referrers are spoofed.
//
// An Audience helper plays the viewer: it loads a publisher page, finds
// its ad slots, and fires the ad beacons with the viewer's identity,
// referrer and dwell — so exchange-driven and organic traffic produce
// distinguishable impression streams at the network.
package adnet

import (
	"fmt"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/guard"
	"repro/internal/htmlparse"
	"repro/internal/httpsim"
	"repro/internal/shortener"
	"repro/internal/urlutil"
)

// Headers the audience attaches to beacon requests.
const (
	// DwellHeader carries the viewer's on-page dwell in whole seconds.
	DwellHeader = "X-Sim-Dwell-Seconds"
	// ViewerHeader carries the viewer IP (the X-Forwarded-For analog).
	ViewerHeader = "X-Forwarded-For"
)

// Network is one ad network.
type Network struct {
	// Name and Host identify the network; banners live at
	// http://{host}/banner?pub={publisher}.
	Name string
	Host string
	// CPMCents is the payout per thousand valid impressions.
	CPMCents int
	// Legitimate networks vet impressions and ban fraudulent publishers.
	Legitimate bool

	vetter *guard.AdFraudVetter

	mu          sync.Mutex
	impressions map[string][]guard.Impression
	banned      map[string]string // publisher -> ban reason
}

// New creates a network. Legitimate networks need a vetter built over the
// known-exchange list; pass nil for bogus networks.
func New(name, host string, cpmCents int, vetter *guard.AdFraudVetter) *Network {
	return &Network{
		Name:        name,
		Host:        strings.ToLower(host),
		CPMCents:    cpmCents,
		Legitimate:  vetter != nil,
		vetter:      vetter,
		impressions: make(map[string][]guard.Impression),
		banned:      make(map[string]string),
	}
}

// SlotMarkup returns the banner iframe a publisher embeds.
func (n *Network) SlotMarkup(publisher string) string {
	return fmt.Sprintf(`<iframe src="http://%s/banner?pub=%s" width="468" height="60"></iframe>`,
		n.Host, url.QueryEscape(publisher))
}

// Handler serves the network over httpsim: banner requests record an
// impression for the pub= publisher and return ad markup. Banned
// publishers get an empty slot (and earn nothing).
func (n *Network) Handler() httpsim.Handler {
	return func(req *httpsim.Request) *httpsim.Response {
		p, err := urlutil.Parse(req.URL)
		if err != nil || !strings.HasPrefix(p.Path, "/banner") {
			return httpsim.NotFound()
		}
		q, err := url.ParseQuery(p.Query)
		if err != nil {
			return httpsim.NotFound()
		}
		pub := q.Get("pub")
		if pub == "" {
			return httpsim.NotFound()
		}

		n.mu.Lock()
		if reason, isBanned := n.banned[pub]; isBanned {
			n.mu.Unlock()
			return httpsim.HTML("<!-- slot disabled: " + reason + " -->")
		}
		imp := guard.Impression{
			PageURL:  req.Referrer,
			Referrer: headerOf(req, "X-Sim-Page-Referrer"),
			IP:       headerOf(req, ViewerHeader),
			Dwell:    time.Duration(parseIntDefault(headerOf(req, DwellHeader), 0)) * time.Second,
			At:       time.Unix(1433160000, 0).Add(time.Duration(len(n.impressions[pub])) * 900 * time.Millisecond),
		}
		n.impressions[pub] = append(n.impressions[pub], imp)
		n.mu.Unlock()
		return httpsim.HTML(`<html><body><a href="http://offers-` + n.Host + `/click?pub=` + pub + `">AD</a></body></html>`)
	}
}

func headerOf(req *httpsim.Request, key string) string {
	if req.Header == nil {
		return ""
	}
	return req.Header[key]
}

func parseIntDefault(s string, def int) int {
	if s == "" {
		return def
	}
	v := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return def
		}
		v = v*10 + int(s[i]-'0')
	}
	return v
}

// Impressions returns a copy of a publisher's recorded impressions.
func (n *Network) Impressions(publisher string) []guard.Impression {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]guard.Impression, len(n.impressions[publisher]))
	copy(out, n.impressions[publisher])
	return out
}

// EarningsCents returns the publisher's accrued payout. Banned publishers
// forfeit everything — the usual policy.
func (n *Network) EarningsCents(publisher string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, isBanned := n.banned[publisher]; isBanned {
		return 0
	}
	return len(n.impressions[publisher]) * n.CPMCents / 1000
}

// VetResult records one publisher's audit outcome.
type VetResult struct {
	Publisher string
	Report    guard.FraudReport
	Banned    bool
}

// RunVetting audits every publisher's impression batch and bans the
// fraudulent ones. Bogus networks skip vetting by construction ("other ad
// networks can similarly block traffic exchange services" is exactly what
// they decline to do). Results are sorted by publisher.
func (n *Network) RunVetting() []VetResult {
	if !n.Legitimate || n.vetter == nil {
		return nil
	}
	n.mu.Lock()
	pubs := make([]string, 0, len(n.impressions))
	for pub := range n.impressions {
		pubs = append(pubs, pub)
	}
	sort.Strings(pubs)
	batches := make(map[string][]guard.Impression, len(pubs))
	for _, pub := range pubs {
		batch := make([]guard.Impression, len(n.impressions[pub]))
		copy(batch, n.impressions[pub])
		batches[pub] = batch
	}
	n.mu.Unlock()

	out := make([]VetResult, 0, len(pubs))
	for _, pub := range pubs {
		rep := n.vetter.Vet(batches[pub])
		res := VetResult{Publisher: pub, Report: rep}
		if rep.Fraudulent() {
			res.Banned = true
			n.mu.Lock()
			n.banned[pub] = fmt.Sprintf("impression fraud (score %.2f)", rep.Score)
			n.mu.Unlock()
		}
		out = append(out, res)
	}
	return out
}

// Audience plays viewers against publisher pages: it loads the page,
// finds ad slots for known networks, and fires the beacons with the
// viewer's identity. SpoofReferrer models the §II trick of hiding the
// exchange referrer from the legitimate network.
type Audience struct {
	Transport httpsim.RoundTripper
	// AdHosts lists the hostnames whose iframes are ad slots.
	AdHosts map[string]bool
	// SpoofReferrer, when set, replaces the exchange referrer on beacon
	// requests with a plausible organic one.
	SpoofReferrer string
}

// Visit loads pageURL as the given viewer and fires its ad beacons.
// dwell is the viewer's on-page time (exchange traffic pins this at the
// surf timer). It returns the number of beacons fired.
func (a *Audience) Visit(pageURL, viewerIP, country, referrer string, dwell time.Duration) (int, error) {
	resp, err := a.Transport.RoundTrip(&httpsim.Request{
		URL:       pageURL,
		UserAgent: "Mozilla/5.0 (compatible; surfbar)",
		Referrer:  referrer,
		Header: map[string]string{
			shortener.CountryHeader: country,
			ViewerHeader:            viewerIP,
		},
	})
	if err != nil {
		return 0, err
	}
	doc := htmlparse.Parse(string(resp.Body))
	fired := 0
	for i := range doc.Elements {
		el := &doc.Elements[i]
		if el.Tag != "iframe" {
			continue
		}
		src := el.Get("src")
		p, err := urlutil.Parse(src)
		if err != nil || !a.AdHosts[p.Host] {
			continue
		}
		beaconRef := referrer
		if a.SpoofReferrer != "" {
			beaconRef = a.SpoofReferrer
		}
		_, err = a.Transport.RoundTrip(&httpsim.Request{
			URL:       src,
			UserAgent: "Mozilla/5.0 (compatible; surfbar)",
			Referrer:  pageURL,
			Header: map[string]string{
				"X-Sim-Page-Referrer":   beaconRef,
				ViewerHeader:            viewerIP,
				DwellHeader:             fmt.Sprintf("%d", int(dwell/time.Second)),
				shortener.CountryHeader: country,
			},
		})
		if err == nil {
			fired++
		}
	}
	return fired, nil
}
