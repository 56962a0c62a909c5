// Package blacklist simulates the six third-party domain blacklists the
// study consulted (URLBlacklist, Shallalist, Google Safe Browsing,
// SquidGuard MESD, Malware Domain List, Zeus Tracker analogs).
//
// Real blacklists are updated infrequently and carry false positives, so
// the paper labels a domain malicious only when it appears on MULTIPLE
// lists. This package models exactly that: independent lists with partial
// coverage of the truly-bad population plus a sprinkling of stale/benign
// entries, and a consensus labeler with a configurable list threshold. The
// consensus-threshold ablation benchmark quantifies the precision/recall
// trade the paper's ">= 2 lists" rule makes.
package blacklist

import (
	"hash/fnv"
	"sort"
	"sync"

	"repro/internal/simrand"
	"repro/internal/urlutil"
)

// List is one blacklist database keyed by registered domain.
type List struct {
	name string

	mu      sync.RWMutex
	domains map[string]bool
}

// NewList returns an empty list.
func NewList(name string) *List {
	return &List{name: name, domains: make(map[string]bool)}
}

// Add inserts a registered domain (normalized to lowercase registered
// domain before storage).
func (l *List) Add(domain string) {
	d := urlutil.RegisteredDomain(domain)
	l.mu.Lock()
	l.domains[d] = true
	l.mu.Unlock()
}

// containsDomain answers for an already-normalized registered domain —
// the consensus paths normalize once and probe all six lists with it.
func (l *List) containsDomain(d string) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.domains[d]
}

// Domains returns the sorted listed domains.
func (l *List) Domains() []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]string, 0, len(l.domains))
	for d := range l.domains {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// Set is a collection of blacklists with consensus labeling.
type Set struct {
	lists []*List
	// Threshold is the minimum number of lists a domain must appear on to
	// be labeled malicious. The paper uses 2.
	Threshold int
}

// NewSet builds a set over the given lists with the paper's threshold of 2.
func NewSet(lists ...*List) *Set {
	return &Set{lists: lists, Threshold: 2}
}

// Matches returns the names of the lists containing the host's registered
// domain.
func (s *Set) Matches(hostOrDomain string) []string {
	d := urlutil.RegisteredDomain(hostOrDomain)
	var out []string
	for _, l := range s.lists {
		if l.containsDomain(d) {
			out = append(out, l.name)
		}
	}
	return out
}

// Malicious applies the consensus rule: listed on >= Threshold lists.
func (s *Set) Malicious(hostOrDomain string) bool {
	d := urlutil.RegisteredDomain(hostOrDomain)
	hits := 0
	for _, l := range s.lists {
		if l.containsDomain(d) {
			hits++
			if hits >= s.Threshold {
				return true
			}
		}
	}
	return false
}

// Fingerprint digests the set's full content — every list name and its
// sorted domains — into one value. Two sets with equal fingerprints are
// indistinguishable to the detector, so the fingerprint (together with the
// threat feed's) gates cross-epoch verdict reuse.
func (s *Set) Fingerprint() uint64 {
	h := fnv.New64a()
	for _, l := range s.lists {
		h.Write([]byte("l\x00" + l.name + "\x00"))
		for _, d := range l.Domains() {
			h.Write([]byte(d + "\x00"))
		}
	}
	var t [1]byte
	t[0] = byte(s.Threshold)
	h.Write(t[:])
	return h.Sum64()
}

// StandardListNames are the simulator analogs of the six lists in §III-B.
var StandardListNames = []string{
	"urlblacklist", "shallalist", "google-safe-browsing",
	"squidguard-mesd", "malware-domain-list", "zeus-tracker",
}

// BuildConfig tunes BuildStandardSet.
type BuildConfig struct {
	// Coverage is the probability that a truly-bad domain appears on any
	// single list. Real lists overlap heavily but imperfectly; 0.75 gives
	// the familiar pattern where most bad domains make >= 2 lists but a
	// tail escapes consensus.
	Coverage float64
	// FalsePositiveRate is the probability a benign domain lands on one
	// list (stale entries, over-blocking). FPs are drawn independently
	// per list, so consensus suppresses almost all of them.
	FalsePositiveRate float64
	// Staleness is how many epochs behind ground truth the feed this set
	// was built from is running (a longitudinal study builds epoch N's
	// lists from epoch N-lag's truth). It only matters when DecayPerEpoch
	// is also set: each epoch of staleness independently erodes covered
	// entries, modeling lists that are not just lagged but shrinking.
	Staleness int
	// DecayPerEpoch is the per-epoch probability that a covered bad-domain
	// entry has rotted off a list, scaled by the list's decay weight (real
	// lists curate at very different rates). Zero — the default, and the
	// single-epoch configuration — draws nothing, so the epoch-0 rng
	// streams are bit-identical to the pre-longitudinal generator.
	DecayPerEpoch float64
}

// listDecayWeight scales DecayPerEpoch per list: aggressive curators lose
// stale entries fast, archival lists barely at all. Weights are fixed so
// the per-list decay profile is part of the deterministic universe.
var listDecayWeight = map[string]float64{
	"urlblacklist":         1.0,
	"shallalist":           1.25,
	"google-safe-browsing": 0.5,
	"squidguard-mesd":      1.5,
	"malware-domain-list":  0.75,
	"zeus-tracker":         1.0,
}

// DefaultBuildConfig matches the calibration used by the experiments.
func DefaultBuildConfig() BuildConfig {
	return BuildConfig{Coverage: 0.75, FalsePositiveRate: 0.01}
}

// BuildStandardSet constructs the six standard lists over the given
// ground-truth bad domains, with false positives sampled from the benign
// domain population. The rng sub-streams per list keep the experiment
// reproducible.
func BuildStandardSet(rng *simrand.Source, badDomains, benignDomains []string, cfg BuildConfig) *Set {
	lists := make([]*List, 0, len(StandardListNames))
	for _, name := range StandardListNames {
		l := NewList(name)
		sub := rng.Sub("blacklist:" + name)
		// Decay draws come from their own substream, created only when the
		// staleness model is active: a zero-decay build performs exactly the
		// draw sequence the pre-longitudinal generator did.
		var decay *simrand.Source
		decayP := 0.0
		if cfg.Staleness > 0 && cfg.DecayPerEpoch > 0 {
			decay = rng.Sub("decay:" + name)
			decayP = perListDecayProb(name, cfg)
		}
		for _, d := range badDomains {
			if !sub.Bool(cfg.Coverage) {
				continue
			}
			if decay != nil && decay.Bool(decayP) {
				continue // entry rotted off the stale list
			}
			l.Add(d)
		}
		for _, d := range benignDomains {
			if sub.Bool(cfg.FalsePositiveRate) {
				l.Add(d)
			}
		}
		lists = append(lists, l)
	}
	return NewSet(lists...)
}

// perListDecayProb is the probability a covered entry has decayed off the
// named list after cfg.Staleness epochs at the list's weighted per-epoch
// decay rate: 1 - (1-rate)^staleness, clamped to [0, 1].
func perListDecayProb(name string, cfg BuildConfig) float64 {
	weight, ok := listDecayWeight[name]
	if !ok {
		weight = 1
	}
	rate := cfg.DecayPerEpoch * weight
	if rate <= 0 {
		return 0
	}
	if rate >= 1 {
		return 1
	}
	keep := 1.0
	for i := 0; i < cfg.Staleness; i++ {
		keep *= 1 - rate
	}
	return 1 - keep
}
