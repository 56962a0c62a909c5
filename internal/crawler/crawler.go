// Package crawler implements the measurement client of §III-A: it
// registers a fresh account on each exchange, surfs the rotation (solving
// CAPTCHAs on manual-surf exchanges), follows every redirect a browser
// would (including meta refresh), downloads final page content with a
// browser User-Agent (the anti-cloaking measure of footnote 1), and
// captures all traffic in HAR form — the Firebug/NetExport analog.
//
// The crawl advances a virtual clock (minimum surf time plus simulated
// network latency per page), so the temporal analysis of Figure 3 works
// on realistic timestamps without wall-clock sleeping.
package crawler

import (
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/exchange"
	"repro/internal/httpsim"
	"repro/internal/obs"
	"repro/internal/web"
)

// BrowserUA is the crawl User-Agent (a Firefox of the study's era).
const BrowserUA = "Mozilla/5.0 (X11; Linux x86_64; rv:38.0) Gecko/20100101 Firefox/38.0"

// Record is one surfed URL with its capture.
type Record struct {
	// Exchange and Kind identify the source exchange.
	Exchange string
	Kind     exchange.Kind
	// Seq is the 0-based observation index within the exchange's crawl.
	Seq int
	// Timestamp is the virtual capture time.
	Timestamp time.Time
	// EntryURL is the URL the exchange rotated in; FinalURL is where the
	// browser landed after redirects.
	EntryURL string
	FinalURL string
	// Redirects is the redirect hop count (Figure 5's x-axis).
	Redirects int
	// Status and ContentType describe the final response.
	Status      int
	ContentType string
	// Body is the downloaded final page (the local copy uploaded to the
	// scanners).
	Body []byte
	// FetchErr records a failed fetch ("" on success); the URL still
	// counts as crawled.
	FetchErr string
	// ErrKind is the taxonomy bucket of FetchErr ("" on success): one of
	// "no-host", "bad-url", "conn-reset", "timeout", "truncated",
	// "redirect-loop", "redirect-overflow", "deadline", "http-5xx",
	// "transport".
	ErrKind string
	// Attempts counts fetch attempts made for this URL (1 = first try
	// succeeded; retries raise it up to 1+Options.Retries).
	Attempts int
}

// Crawl is one exchange's completed measurement.
type Crawl struct {
	Exchange string
	Kind     exchange.Kind
	Records  []Record
	// Started and Ended bound the virtual crawl window.
	Started, Ended time.Time
}

// Options tunes a crawl.
type Options struct {
	// Account and IP register the crawler's fresh account.
	Account string
	IP      string
	// Steps is the number of URLs to surf.
	Steps int
	// Start is the virtual start time.
	Start time.Time
	// Retries bounds re-fetch attempts after a retryable failure (total
	// attempts per URL = 1 + Retries). A transport error is always
	// isolated to the single URL; retries just decide how hard the
	// crawler fights for it before recording a failed fetch.
	Retries int
	// RetryBackoff is the base virtual delay before the first retry;
	// later retries double it, with deterministic jitter (no wall-clock
	// sleeping — the delay advances the crawl's virtual clock).
	// Zero means 500ms.
	RetryBackoff time.Duration
	// FetchBudget caps the virtual latency a single fetch (all redirect
	// hops) may accumulate — the per-request deadline. Zero means 15s;
	// negative disables the deadline.
	FetchBudget time.Duration
	// Metrics, when set, receives crawl counters (urls surfed, fetch
	// attempts, retries by fault class, failures by kind); Tracer receives
	// per-exchange fetch-stage timings. Both are nil-safe no-ops when
	// unset and never alter crawl output.
	Metrics *obs.Registry
	Tracer  *obs.Tracer
}

// DefaultOptions returns crawl options with two retries per URL and a 15s
// virtual fetch deadline.
func DefaultOptions(steps int) Options {
	return Options{
		Account:      "measurement-account",
		IP:           "203.0.113.7",
		Steps:        steps,
		Start:        time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC),
		Retries:      2,
		RetryBackoff: 500 * time.Millisecond,
		FetchBudget:  15 * time.Second,
	}
}

// errTransient5xx marks a structurally-complete fetch whose final response
// was a gateway-class server error (502/503/504) — retryable, and a fetch
// failure if it persists past the retry budget.
var errTransient5xx = errors.New("crawler: transient server error")

// transient5xx reports whether a final status is a retryable server error.
// Plain 500s are NOT included: the simulated universe uses 500 for broken
// handlers, which are a stable property of the page, not the path to it.
func transient5xx(status int) bool {
	return status == 502 || status == 503 || status == 504
}

// errKind buckets a fetch error into the crawl-health taxonomy.
func errKind(err error) string {
	switch {
	case errors.Is(err, httpsim.ErrNoHost):
		return "no-host"
	case errors.Is(err, httpsim.ErrBadURL):
		return "bad-url"
	case errors.Is(err, httpsim.ErrConnReset):
		return "conn-reset"
	case errors.Is(err, httpsim.ErrTimeout):
		return "timeout"
	case errors.Is(err, httpsim.ErrTruncated):
		return "truncated"
	case errors.Is(err, httpsim.ErrRedirectLoop):
		return "redirect-loop"
	case errors.Is(err, httpsim.ErrTooManyRedirects):
		return "redirect-overflow"
	case errors.Is(err, httpsim.ErrBudget):
		return "deadline"
	case errors.Is(err, errTransient5xx):
		return "http-5xx"
	default:
		return "transport"
	}
}

// retryable reports whether a retry could plausibly change the outcome.
// NXDOMAIN and malformed URLs are permanent; everything else — resets,
// timeouts, truncation, stalls, 5xx, and even redirect loops (the paper's
// cloaking servers answer differently per request) — is worth re-trying.
func retryable(err error) bool {
	return !errors.Is(err, httpsim.ErrNoHost) && !errors.Is(err, httpsim.ErrBadURL)
}

// retryDelay computes the virtual backoff before retry number `attempt`
// (1-based failed attempt): exponential in the attempt, capped at 8s, with
// deterministic jitter in [d/2, 3d/2) hashed from the URL and attempt so
// concurrent crawls stay schedule-independent.
func retryDelay(base time.Duration, url string, attempt int) time.Duration {
	if base <= 0 {
		base = 500 * time.Millisecond
	}
	d := base << (attempt - 1)
	if max := 8 * time.Second; d > max {
		d = max
	}
	h := fnv.New64a()
	h.Write([]byte(url))
	h.Write([]byte{byte(attempt)})
	return d/2 + time.Duration(h.Sum64()%uint64(d))
}

// NewClient builds the redirect-following browser client over a transport.
func NewClient(transport httpsim.RoundTripper) *httpsim.Client {
	c := httpsim.NewClient(transport)
	c.FollowMetaRefresh = true
	c.MetaRefreshTarget = web.MetaRefreshTarget
	return c
}

// Sink receives each completed record as the crawl produces it. rec and
// res are valid only for the duration of the call, so a consumer copies
// what it retains (rec's Body and res.Final belong to the transport and
// are never reused). res is the raw fetch result, for HAR capture
// (partial on a failed fetch), and pageClock is the virtual time the
// page load began (the HAR page timestamp). A non-nil error aborts the
// crawl.
type Sink func(rec *Record, res *httpsim.Result, pageClock time.Time) error

// CrawlExchange runs a full measurement session against one exchange,
// accumulating its records in memory.
func CrawlExchange(ex *exchange.Exchange, transport httpsim.RoundTripper, opts Options) (*Crawl, error) {
	out := &Crawl{
		Exchange: ex.Config().Name,
		Kind:     ex.Config().Kind,
		Records:  make([]Record, 0, max(opts.Steps, 0)),
	}
	started, ended, err := CrawlExchangeStream(ex, transport, opts, func(rec *Record, _ *httpsim.Result, _ time.Time) error {
		out.Records = append(out.Records, *rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.Started, out.Ended = started, ended
	return out, nil
}

// CrawlExchangeStream is the measurement loop: register, start a session,
// surf opts.Steps URLs (solving CAPTCHAs, following redirects, retrying
// transient faults on a virtual-clock backoff), and hand every record to
// sink in sequence order, accumulating nothing, so a crawl of any length
// runs in O(1) memory. Returns the virtual crawl window.
func CrawlExchangeStream(ex *exchange.Exchange, transport httpsim.RoundTripper, opts Options,
	sink Sink) (started, ended time.Time, err error) {
	if opts.Steps <= 0 {
		return time.Time{}, time.Time{}, errors.New("crawler: Steps must be positive")
	}
	if _, err := ex.Register(opts.Account, opts.IP); err != nil {
		return time.Time{}, time.Time{}, fmt.Errorf("crawler: register on %s: %w", ex.Config().Name, err)
	}
	sess, err := ex.StartSession(opts.Account, opts.Steps)
	if err != nil {
		return time.Time{}, time.Time{}, fmt.Errorf("crawler: session on %s: %w", ex.Config().Name, err)
	}
	defer ex.EndSession(opts.Account)

	client := NewClient(transport)
	switch {
	case opts.FetchBudget > 0:
		client.Budget = opts.FetchBudget
	case opts.FetchBudget == 0:
		client.Budget = 15 * time.Second
	}
	name, kind, home := ex.Config().Name, ex.Config().Kind, ex.HomeURL()
	clock := opts.Start
	urls := opts.Metrics.Lazy("crawl.urls")
	fetchAttempts := opts.Metrics.Lazy("crawl.fetch_attempts")
	fetched := opts.Metrics.Lazy("crawl.fetched")
	// One record and one fetch serve every step and retry: sink sees
	// them only for the duration of the call, and every consumer copies
	// what it keeps.
	var rec Record
	var fetch httpsim.Fetch

	for i := 0; i < opts.Steps; i++ {
		// Manual-surf exchanges gate each step behind a CAPTCHA; the
		// study solved them by hand, we solve them in code.
		if c := sess.Challenge(); c != nil {
			if !sess.Solve(c.ID, exchange.SolveChallenge(c)) {
				return time.Time{}, time.Time{}, fmt.Errorf("crawler: captcha rejected on %s", name)
			}
		}
		step, err := sess.Next()
		if err != nil {
			return time.Time{}, time.Time{}, fmt.Errorf("crawler: step %d on %s: %w", i, name, err)
		}

		rec = Record{
			Exchange:  name,
			Kind:      kind,
			Seq:       i,
			Timestamp: clock,
			EntryURL:  step.URL,
		}

		// Fetch with bounded retry. A failure here is always isolated to
		// this URL: the surf session continues, the failure is recorded,
		// and the step's credit is still claimed below.
		urls.Inc()
		fetchSpan := opts.Tracer.Start(name, obs.StageFetch)
		var res *httpsim.Result
		var ferr error
		attempt := 1
		for {
			fetchAttempts.Inc()
			res, ferr = client.DoWith(&fetch, step.URL, BrowserUA, home, attempt)
			if ferr == nil && res.Final != nil && transient5xx(res.Final.StatusCode) {
				ferr = fmt.Errorf("%w: http %d from %s", errTransient5xx,
					res.Final.StatusCode, res.FinalURL)
			}
			if ferr == nil || attempt > opts.Retries || !retryable(ferr) {
				break
			}
			opts.Metrics.Counter("crawl.retries." + errKind(ferr)).Inc()
			clock = clock.Add(retryDelay(opts.RetryBackoff, step.URL, attempt))
			attempt++
		}
		fetchSpan.End()
		rec.Attempts = attempt

		// pageClock is the virtual time the page load began — the HAR
		// page timestamp, captured before hop latencies advance the clock.
		pageClock := clock

		if ferr != nil {
			rec.FetchErr = ferr.Error()
			rec.ErrKind = errKind(ferr)
			opts.Metrics.Counter("crawl.failed." + rec.ErrKind).Inc()
			rec.FinalURL = step.URL
			// Keep whatever the partial chain established (forensics and
			// the crawl-health section), but never a body: partial or
			// error-page content must not reach the scanners as if it
			// were the page.
			if len(res.Chain) > 0 {
				rec.FinalURL = res.FinalURL
				rec.Redirects = res.Redirects()
				if res.Final != nil {
					rec.Status = res.Final.StatusCode
					rec.ContentType = res.Final.ContentType
				}
				for _, hop := range res.Chain {
					clock = clock.Add(hop.Latency)
				}
			}
		} else {
			fetched.Inc()
			rec.FinalURL = res.FinalURL
			rec.Redirects = res.Redirects()
			rec.Status = res.Final.StatusCode
			rec.ContentType = res.Final.ContentType
			rec.Body = res.Final.Body
			for _, hop := range res.Chain {
				clock = clock.Add(hop.Latency)
			}
		}
		if err := sink(&rec, res, pageClock); err != nil {
			return time.Time{}, time.Time{}, err
		}

		// Dwell for the minimum surf time, then claim the credit.
		clock = clock.Add(time.Duration(step.SurfSeconds) * time.Second)
		if err := sess.Complete(step, step.SurfSeconds); err != nil {
			return time.Time{}, time.Time{}, fmt.Errorf("crawler: credit on %s: %w", name, err)
		}
	}
	return opts.Start, clock, nil
}

// ExchangeOptions derives the i-th exchange's crawl options from the
// base: its own step budget, account and IP. Every crawl of a study's
// exchanges derives them this way, so the record streams are the same
// whichever worker crawls which exchange.
func ExchangeOptions(base Options, i, steps int) Options {
	opts := base
	opts.Steps = steps
	opts.Account = fmt.Sprintf("%s-%d", base.Account, i)
	opts.IP = fmt.Sprintf("203.0.113.%d", 10+i)
	return opts
}
