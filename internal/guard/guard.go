// Package guard implements the countermeasures the paper's conclusion
// (§VI) recommends to the ecosystem's two other stakeholders:
//
//   - For users: a browser-extension analog (SurfGuard) that warns before
//     a traffic-exchange page loads, combining a known-exchange domain
//     list with content heuristics that recognize the surf-bar interface
//     (countdown timer plus full-page rotation iframe).
//
//   - For ad networks: an impression-stream vetter (AdFraudVetter) in the
//     spirit of "most reputable ad networks consider the use of traffic
//     exchanges fraudulent and have strategies in place to vet the ad
//     impression figures". It scores impression batches for the
//     exchange-traffic signature: exchange referrers, dwell times pinned
//     at the exchange's minimum surf timer, very high IP diversity with
//     single-impression sessions, and burst pacing.
//
// Both components consume only observable signals (URLs, page bytes,
// impression metadata) — no simulator ground truth.
package guard

import (
	"strings"
	"time"

	"repro/internal/htmlparse"
	"repro/internal/urlutil"
)

// SurfGuard is the user-side warning filter.
type SurfGuard struct {
	// knownExchanges holds registered domains of known exchange services
	// (the extension's shipped list).
	knownExchanges map[string]bool
	// HeuristicsEnabled also inspects page content for surf-bar
	// structure, catching exchanges missing from the list.
	HeuristicsEnabled bool
}

// NewSurfGuard builds a guard from a seed list of exchange hosts.
func NewSurfGuard(exchangeHosts []string) *SurfGuard {
	g := &SurfGuard{knownExchanges: make(map[string]bool), HeuristicsEnabled: true}
	for _, h := range exchangeHosts {
		g.AddExchange(h)
	}
	return g
}

// AddExchange registers an exchange host on the warning list.
func (g *SurfGuard) AddExchange(host string) {
	g.knownExchanges[urlutil.RegisteredDomain(strings.ToLower(host))] = true
}

// Decision is the guard's verdict for one navigation.
type Decision struct {
	// Warn is true when the navigation should be interrupted with a
	// warning.
	Warn bool
	// Reason explains the verdict: "known-exchange", "surf-interface",
	// or "" when clean.
	Reason string
}

// CheckURL screens a navigation target by domain list alone.
func (g *SurfGuard) CheckURL(rawURL string) Decision {
	if d := urlutil.DomainOf(rawURL); d != "" && g.knownExchanges[d] {
		return Decision{Warn: true, Reason: "known-exchange"}
	}
	return Decision{}
}

// CheckPage screens a navigation with its fetched content: the domain
// list first, then the surf-interface heuristic — a visible countdown
// timer element together with a dominant rotation iframe is the
// structural fingerprint every surf bar shares.
func (g *SurfGuard) CheckPage(rawURL string, body []byte) Decision {
	if d := g.CheckURL(rawURL); d.Warn {
		return d
	}
	if !g.HeuristicsEnabled || len(body) == 0 {
		return Decision{}
	}
	doc := htmlparse.Parse(string(body))
	hasTimer := false
	for i := range doc.Elements {
		el := &doc.Elements[i]
		id := strings.ToLower(el.Get("id"))
		if strings.Contains(id, "timer") || id == "t" || strings.Contains(id, "surfbar") ||
			strings.Contains(strings.ToLower(el.Get("class")), "surfbar") {
			hasTimer = true
			break
		}
	}
	hasRotationFrame := false
	for i := range doc.Elements {
		el := &doc.Elements[i]
		if el.Tag != "iframe" {
			continue
		}
		id := strings.ToLower(el.Get("id"))
		w := strings.TrimSpace(el.Get("width"))
		if strings.Contains(id, "surf") || w == "100%" {
			hasRotationFrame = true
			break
		}
	}
	if hasTimer && hasRotationFrame {
		return Decision{Warn: true, Reason: "surf-interface"}
	}
	return Decision{}
}

// Impression is one ad impression event as an ad network sees it.
type Impression struct {
	// PageURL is the publisher page that rendered the ad.
	PageURL string
	// Referrer is the HTTP referrer of the page view.
	Referrer string
	// IP is the viewer address.
	IP string
	// Dwell is the on-page time before the next event from this viewer.
	Dwell time.Duration
	// At is the impression timestamp.
	At time.Time
}

// FraudReport scores one publisher's impression batch.
type FraudReport struct {
	// Total is the batch size.
	Total int
	// ExchangeReferred counts impressions referred by known exchanges.
	ExchangeReferred int
	// TimerPinned counts impressions whose dwell clusters on a common
	// value (the exchange's minimum surf timer).
	TimerPinned int
	// UniqueIPs counts distinct viewer addresses.
	UniqueIPs int
	// BurstRate is the peak impressions-per-minute over the batch.
	BurstRate float64
	// Score in [0,1] aggregates the signals; Fraudulent applies the
	// decision threshold.
	Score float64
}

// Fraudulent is the vetter's verdict at the conventional 0.5 threshold.
func (r FraudReport) Fraudulent() bool { return r.Score >= 0.5 }

// AdFraudVetter is the ad-network-side impression auditor.
type AdFraudVetter struct {
	guard *SurfGuard
}

// NewAdFraudVetter builds a vetter sharing the guard's exchange list.
func NewAdFraudVetter(g *SurfGuard) *AdFraudVetter {
	return &AdFraudVetter{guard: g}
}

// Vet scores an impression batch for the exchange-traffic signature.
func (v *AdFraudVetter) Vet(impressions []Impression) FraudReport {
	r := FraudReport{Total: len(impressions)}
	if r.Total == 0 {
		return r
	}
	ips := map[string]bool{}
	dwellBuckets := map[int]int{}
	perMinute := map[int64]int{}
	for _, imp := range impressions {
		if imp.Referrer != "" && v.guard.CheckURL(imp.Referrer).Warn {
			r.ExchangeReferred++
		}
		ips[imp.IP] = true
		// Bucket dwell to whole seconds; surf timers pin dwell hard.
		dwellBuckets[int(imp.Dwell/time.Second)]++
		perMinute[imp.At.Unix()/60]++
	}
	r.UniqueIPs = len(ips)
	modal := 0
	for _, c := range dwellBuckets {
		if c > modal {
			modal = c
		}
	}
	r.TimerPinned = modal
	for _, c := range perMinute {
		if rate := float64(c); rate > r.BurstRate {
			r.BurstRate = rate
		}
	}

	// Signal fusion. Organic traffic has scattered dwell, mixed
	// referrers, and IP reuse from returning visitors.
	refShare := float64(r.ExchangeReferred) / float64(r.Total)
	pinShare := float64(r.TimerPinned) / float64(r.Total)
	ipDiversity := float64(r.UniqueIPs) / float64(r.Total)
	score := 0.5*refShare + 0.3*pinShare + 0.2*clamp01((ipDiversity-0.5)*2)
	r.Score = clamp01(score)
	return r
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
