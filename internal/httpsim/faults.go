package httpsim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/obs"
)

// This file implements the fault-injection layer: a RoundTripper decorator
// that degrades a perfectly healthy virtual internet into the hostile
// substrate the paper's live crawl actually faced — dead member sites,
// stalling multi-hop redirect chains, servers that reset connections or
// hand back partial bodies, transient 5xx storms. Every decision is a pure
// function of (seed, URL, attempt), so a faulty universe is exactly as
// reproducible as a healthy one: no shared state, no wall clocks, and the
// same fault pattern regardless of goroutine scheduling or worker count.

// Transport-level fault errors. They wrap into the error chain so callers
// classify them with errors.Is.
var (
	// ErrConnReset is the injected analog of ECONNRESET.
	ErrConnReset = errors.New("httpsim: connection reset by peer")
	// ErrTimeout is the injected analog of an i/o timeout dialing or
	// reading from the host.
	ErrTimeout = errors.New("httpsim: i/o timeout")
	// ErrTruncated reports a body shorter than the length the server
	// declared — the Client raises it when a response arrives incomplete.
	ErrTruncated = errors.New("httpsim: truncated body")
	// ErrBudget reports a fetch whose accumulated virtual latency blew
	// through the Client's per-request budget (the deadline analog).
	ErrBudget = errors.New("httpsim: fetch budget exceeded")
)

// FaultKind enumerates the injectable fault classes.
type FaultKind int

// The fault classes, in cumulative-probability walk order.
const (
	FaultConnReset FaultKind = iota
	FaultTimeout
	FaultTruncate
	FaultSlow
	FaultTransient5xx
	FaultRedirectLoop
	numFaultKinds
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultConnReset:
		return "conn-reset"
	case FaultTimeout:
		return "timeout"
	case FaultTruncate:
		return "truncated"
	case FaultSlow:
		return "slow"
	case FaultTransient5xx:
		return "http-5xx"
	case FaultRedirectLoop:
		return "redirect-loop"
	}
	return "unknown"
}

// FaultProfile assigns each fault kind an independent per-request
// probability. The zero value injects nothing.
type FaultProfile struct {
	// Name identifies the profile in flags and reports.
	Name string
	// Rates holds per-kind probabilities; their sum must stay <= 1 (the
	// remainder is the healthy-request probability).
	Rates [numFaultKinds]float64
}

// Zero reports whether the profile injects no faults at all.
func (p FaultProfile) Zero() bool {
	for _, r := range p.Rates {
		if r > 0 {
			return false
		}
	}
	return true
}

// Profiles returns the named fault profiles, mildest to nastiest:
//
//	off     — nothing injected (the healthy universe)
//	flaky   — light background unreliability (~12% of requests)
//	lossy   — a lossy network path: resets, timeouts, truncation (~25%)
//	slow    — congested upstreams: stalls and 503 storms (~25%)
//	hostile — everything at once, cloaking-server nastiness included (~40%)
func Profiles() []FaultProfile {
	rates := func(reset, timeout, trunc, slow, s5xx, loop float64) [numFaultKinds]float64 {
		return [numFaultKinds]float64{reset, timeout, trunc, slow, s5xx, loop}
	}
	return []FaultProfile{
		{Name: "off"},
		{Name: "flaky", Rates: rates(0.03, 0.02, 0.02, 0.01, 0.03, 0.01)},
		{Name: "lossy", Rates: rates(0.10, 0.08, 0.07, 0, 0, 0)},
		{Name: "slow", Rates: rates(0, 0.05, 0, 0.15, 0.05, 0)},
		{Name: "hostile", Rates: rates(0.08, 0.07, 0.06, 0.06, 0.08, 0.05)},
	}
}

// ProfileByName resolves a named profile; "" is an alias for "off".
func ProfileByName(name string) (FaultProfile, bool) {
	if name == "" {
		return FaultProfile{Name: "off"}, true
	}
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return FaultProfile{}, false
}

// ProfileNames lists the accepted -faults flag values.
func ProfileNames() []string {
	ps := Profiles()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// pick decides the fault (if any) for one request. The decision hashes
// (seed, url, attempt): stateless, so concurrent crawls of overlapping URL
// sets reach identical decisions in any interleaving, and a retry (attempt
// + 1) re-rolls independently — which is what makes bounded retry an
// effective recovery strategy against transient faults.
func (p FaultProfile) pick(seed uint64, url string, attempt int) (FaultKind, bool) {
	h := fnv.New64a()
	var b [8]byte
	putUint64(b[:], seed)
	h.Write(b[:])
	h.Write([]byte(url))
	putUint64(b[:], uint64(attempt))
	h.Write(b[:])
	// 53 uniform bits -> [0, 1).
	u := float64(h.Sum64()>>11) / float64(1<<53)
	cum := 0.0
	for k, rate := range p.Rates {
		cum += rate
		if rate > 0 && u < cum {
			return FaultKind(k), true
		}
	}
	return 0, false
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// FaultInjector decorates a RoundTripper with a deterministic FaultProfile.
// It is safe for concurrent use and holds no mutable state of its own.
type FaultInjector struct {
	// Inner is the healthy transport being degraded.
	Inner RoundTripper
	// Profile selects what gets injected and how often.
	Profile FaultProfile
	// Seed isolates fault streams: two injectors with different seeds
	// fault different request subsets.
	Seed uint64
	// SlowPenalty is the extra virtual latency a slow fault adds
	// (default 30s — enough to bust any sane fetch budget).
	SlowPenalty time.Duration
	// Metrics, when set, counts requests and injected faults live in an
	// obs registry (httpsim.requests, httpsim.faults.<kind>) so
	// long-running servers can watch fault pressure. Nil-safe no-op;
	// never consulted by the decision path.
	Metrics *obs.Registry
}

var _ RoundTripper = (*FaultInjector)(nil)

// NewFaultInjector wraps inner with the given profile and seed.
func NewFaultInjector(inner RoundTripper, profile FaultProfile, seed uint64) *FaultInjector {
	return &FaultInjector{Inner: inner, Profile: profile, Seed: seed, SlowPenalty: 30 * time.Second}
}

// record counts one injected fault in the registry, if one is attached.
func (f *FaultInjector) record(kind FaultKind) {
	f.Metrics.Counter("httpsim.faults." + kind.String()).Inc()
}

// RoundTrip injects the profile's faults around the inner transport.
// Connection-level faults (reset, timeout) and synthetic responses (5xx,
// redirect loop) never reach the inner transport — the "server" is
// unreachable or lying. Payload faults (truncate, slow) degrade the real
// inner response.
func (f *FaultInjector) RoundTrip(req *Request) (*Response, error) {
	f.Metrics.Counter("httpsim.requests").Inc()
	kind, faulted := f.Profile.pick(f.Seed, req.URL, req.Attempt)
	if !faulted {
		return f.Inner.RoundTrip(req)
	}

	switch kind {
	case FaultConnReset:
		f.record(kind)
		return nil, fmt.Errorf("%w: %s", ErrConnReset, req.URL)
	case FaultTimeout:
		f.record(kind)
		return nil, fmt.Errorf("%w: %s", ErrTimeout, req.URL)
	case FaultTransient5xx:
		f.record(kind)
		return &Response{
			StatusCode:  503,
			ContentType: "text/html",
			Body:        []byte("<html><body>503 Service Unavailable</body></html>"),
			Header:      map[string]string{"Retry-After": "1"},
			Latency:     syntheticLatency(req.URL),
		}, nil
	case FaultRedirectLoop:
		// A 302 pointing back at the request URL: the Client's visited-set
		// detects the loop on the next hop, exactly as it would against a
		// real misbehaving redirector.
		f.record(kind)
		return &Response{
			StatusCode:  302,
			ContentType: "text/html",
			Location:    req.URL,
			Latency:     syntheticLatency(req.URL),
		}, nil
	}

	resp, err := f.Inner.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	out := *resp // degrade a copy; handler responses may be shared

	switch kind {
	case FaultTruncate:
		if len(out.Body) < 2 {
			// Nothing to truncate (redirect hop, empty page): degrade to a
			// reset so the fault still bites deterministically.
			f.record(FaultConnReset)
			return nil, fmt.Errorf("%w: %s", ErrConnReset, req.URL)
		}
		f.record(kind)
		out.DeclaredLength = len(out.Body)
		out.Body = out.Body[:len(out.Body)/2]
		// The precomputed meta-refresh no longer describes the (now
		// partial) body. The client rejects truncated responses before
		// consulting it, but keep the invariant local: altered body,
		// cleared stamp.
		out.MetaRefresh, out.MetaRefreshKnown = "", false
	case FaultSlow:
		f.record(kind)
		penalty := f.SlowPenalty
		if penalty <= 0 {
			penalty = 30 * time.Second
		}
		out.Latency += penalty
	}
	return &out, nil
}
