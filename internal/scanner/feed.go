// Package scanner implements the malware detection tool stack of §III-B:
// a multi-engine signature scanner (the VirusTotal analog), a heuristic
// content scanner with JS sandboxing and SWF decompilation (the Quttera
// analog), and the weaker third-party tools the paper vetted and rejected
// (URLQuery, Bright Cloud, Site Check, Sender Base, Wepawet, AVG).
//
// Signature engines detect through a threat-intelligence feed: known-bad
// domains and malware-family byte patterns. The feed is built from the
// synthetic universe's planted malware the same way real AV vendors build
// theirs from collected samples — each engine covers only a subset, and
// aggregation across engines (what VirusTotal actually is) approaches full
// coverage. Detection therefore operates on page CONTENT and URLs, never
// on the generator's ground-truth labels; tests verify recall against
// truth independently.
package scanner

import (
	"hash/fnv"
	"sort"
	"sync"

	"repro/internal/urlutil"
)

// Label vocabulary observed in the paper's analysis reports.
const (
	LabelScrInject     = "Virus.ScrInject.JS"
	LabelScriptVirus   = "Script.virus"
	LabelHeuristicJS   = "Trojan:Script.Heuristic-js.iacgm"
	LabelIframeRef     = "HTML/IframeRef.gen"
	LabelHifrm         = "Mal_Hifrm"
	LabelIframeScript  = "Trojan.IFrame.Script"
	LabelIframeArt     = "htm.iframe.art.gen"
	LabelBlacoleNV     = "BehavesLike.JS.ExploitBlacole.nv"
	LabelBlacoleXM     = "BehavesLike.JS.ExploitBlacole.xm"
	LabelScriptGeneric = "Trojan.Script.Generic"
	LabelJSRedirector  = "Trojan:JS/Redirector"
	LabelFaceliker     = "TrojanClicker:JS/Faceliker.D"
	LabelBlacklisted   = "Blacklisted.Domain"
	LabelResourceBomb  = "Trojan:JS/ResourceBomb.gen"
)

// ThreatFeed is the shared intelligence signature engines draw from. It
// is safe for concurrent use: feeds keep updating (Merge, AddDomain)
// while engines built over them scan in parallel.
type ThreatFeed struct {
	mu sync.RWMutex
	// badDomains maps known-bad registered domains to a family label.
	badDomains map[string]string
	// tokenSigs maps content byte patterns (family markers appearing in
	// malware page bodies or scripts) to a family label.
	tokenSigs map[string]string
}

// NewThreatFeed returns an empty feed.
func NewThreatFeed() *ThreatFeed {
	return &ThreatFeed{
		badDomains: make(map[string]string),
		tokenSigs:  make(map[string]string),
	}
}

// AddDomain registers a known-bad domain with its family label.
func (f *ThreatFeed) AddDomain(domain, label string) {
	f.mu.Lock()
	f.badDomains[urlutil.RegisteredDomain(domain)] = label
	f.mu.Unlock()
}

// AddToken registers a content signature with its family label.
func (f *ThreatFeed) AddToken(token, label string) {
	if token == "" {
		return
	}
	f.mu.Lock()
	f.tokenSigs[token] = label
	f.mu.Unlock()
}

// DomainLabel returns the family label for a registered domain, if listed.
// Keys are normalized at insert time, so the lookup only computes the
// registered domain — allocation-free for the already-lowercase hosts the
// crawl produces (RegisteredDomain folds case itself when it must).
func (f *ThreatFeed) DomainLabel(domain string) (string, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	l, ok := f.badDomains[urlutil.RegisteredDomain(domain)]
	return l, ok
}

// Fingerprint digests the feed's full content — every (domain, label) and
// (token, label) pair, in sorted order — into one value. Engine signature
// subsets are drawn by iterating the sorted feed sequentially, so ANY
// change to the feed (one domain added, one token relabeled) shifts every
// engine's coverage draws; two feeds with equal fingerprints build
// identical engine stacks from the same rng, and that global equality is
// the only sound gate for reusing verdicts across epochs.
func (f *ThreatFeed) Fingerprint() uint64 {
	h := fnv.New64a()
	for _, d := range f.domainEntries() {
		h.Write([]byte("d\x00" + d[0] + "\x00" + d[1] + "\x00"))
	}
	for _, t := range f.tokenEntries() {
		h.Write([]byte("t\x00" + t[0] + "\x00" + t[1] + "\x00"))
	}
	return h.Sum64()
}

// domainEntries returns (domain, label) pairs in sorted order for
// deterministic engine construction.
func (f *ThreatFeed) domainEntries() [][2]string {
	f.mu.RLock()
	out := make([][2]string, 0, len(f.badDomains))
	for d, l := range f.badDomains {
		out = append(out, [2]string{d, l})
	}
	f.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

func (f *ThreatFeed) tokenEntries() [][2]string {
	f.mu.RLock()
	out := make([][2]string, 0, len(f.tokenSigs))
	for t, l := range f.tokenSigs {
		out = append(out, [2]string{t, l})
	}
	f.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
