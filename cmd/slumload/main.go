// Command slumload replays a fleet of simulated scan-API clients against
// a slumserve instance and reports latency quantiles and throughput. It
// is the load half of the serve-soak CI job: thousands of scan
// submissions from concurrent tenants, every accepted job polled to
// completion, and the no-lost-jobs accounting checked at the end —
// attempted == accepted + shed (+ rate-limited), accepted == completed,
// and a warm verdict cache.
//
//	slumload -requests 5000 -clients 32 -tenants 2        # self-serve
//	slumload -target http://127.0.0.1:8080 -requests 5000 # external server
//
// With no -target, slumload starts an in-process slumserve-equivalent on
// a loopback port (same universe, same detector, same scan service) and
// drives it over real HTTP — so CI needs no port coordination or
// background-process choreography to soak the serving path. With
// -target, only the URL pool is derived locally (the universe is
// deterministic in -seed/-scale, so the driver and a separately-launched
// slumserve agree on which hosts exist).
//
// Exit status is non-zero if any job is lost, any accepted job fails to
// complete, or the cache never hits.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "slumload:", err)
		os.Exit(1)
	}
}

type loadConfig struct {
	target     string
	requests   int
	clients    int
	tenants    int
	batch      int
	seed       uint64
	scale      int
	faults     string
	queueDepth int
	shedWait   time.Duration
	timeout    time.Duration
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("slumload", flag.ContinueOnError)
	var cfg loadConfig
	fs.StringVar(&cfg.target, "target", "", "scan API base URL (empty = self-serve in process)")
	fs.IntVar(&cfg.requests, "requests", 5000, "total scan submissions to attempt")
	fs.IntVar(&cfg.clients, "clients", 32, "concurrent clients")
	fs.IntVar(&cfg.tenants, "tenants", 2, "distinct X-Tenant values to spread clients across")
	fs.IntVar(&cfg.batch, "batch", 2, "URLs per scan request")
	fs.Uint64Var(&cfg.seed, "seed", 1, "experiment seed (must match the target server)")
	fs.IntVar(&cfg.scale, "scale", 900, "universe scale divisor (must match the target server)")
	fs.StringVar(&cfg.faults, "faults", "", "fault profile for the self-served universe")
	fs.IntVar(&cfg.queueDepth, "queue-depth", 64, "self-serve scan queue depth")
	fs.DurationVar(&cfg.shedWait, "shed-wait", time.Millisecond, "pause before retrying a shed (429) submission")
	fs.DurationVar(&cfg.timeout, "timeout", 2*time.Minute, "overall deadline for the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.requests <= 0 || cfg.clients <= 0 || cfg.tenants <= 0 || cfg.batch <= 0 {
		return fmt.Errorf("requests, clients, tenants and batch must all be positive")
	}

	// The universe is deterministic in (seed, scale): build it locally for
	// URL material whether or not we also serve it.
	sc := core.DefaultStudyConfig()
	sc.Seed = cfg.seed
	sc.Scale = cfg.scale
	sc.DriveShortenerTraffic = false
	st, err := core.NewStudy(sc)
	if err != nil {
		return err
	}
	var urls []string
	for _, site := range st.Universe.Sites {
		urls = append(urls, site.EntryURL)
	}
	if len(urls) == 0 {
		return fmt.Errorf("universe has no sites at scale %d", cfg.scale)
	}

	base := cfg.target
	if base == "" {
		profile, ok := httpsim.ProfileByName(cfg.faults)
		if !ok {
			return fmt.Errorf("unknown fault profile %q (want one of: %s)",
				cfg.faults, strings.Join(httpsim.ProfileNames(), ", "))
		}
		var transport httpsim.RoundTripper = st.Universe.Internet
		if !profile.Zero() {
			transport = httpsim.NewFaultInjector(transport, profile, cfg.seed)
		}
		cache := core.NewShardedVerdictCache(core.ShardedCacheConfig{Capacity: 4096})
		scanner := serve.NewScanner(transport, st.Detector, cache, nil)
		scanSrv := serve.NewServer(scanner, serve.Config{QueueDepth: cfg.queueDepth})
		defer scanSrv.Close()

		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer ln.Close()
		hs := &http.Server{Handler: serve.APIHandler(scanSrv)}
		go hs.Serve(ln)
		defer hs.Close()
		base = "http://" + ln.Addr().String()
		fmt.Fprintf(out, "self-serving scan API on %s (queue depth %d, %d sites)\n",
			base, cfg.queueDepth, len(urls))
	}

	res, err := drive(cfg, base, urls)
	if err != nil {
		return err
	}
	res.print(out)
	return res.check(cfg)
}

// loadResult aggregates the run: driver-side accounting, latency
// histograms, wall-clock throughput, and the server's own stats.
type loadResult struct {
	attempted, accepted, shed, limited, otherErr int64
	completedJobs                                int64
	urlResults, urlErrors                        int64
	elapsed                                      time.Duration
	submitLat, jobLat                            *obs.Histogram
	serverStats                                  serve.Stats
}

// drive runs the client fleet against base and polls every accepted job
// to completion.
func drive(cfg loadConfig, base string, urls []string) (*loadResult, error) {
	reg := obs.NewRegistry()
	res := &loadResult{
		submitLat: reg.Histogram("load.submit_seconds"),
		jobLat:    reg.Histogram("load.job_seconds"),
	}
	deadline := time.Now().Add(cfg.timeout)
	var ticket atomic.Int64 // next request number; > requests means stop

	httpc := &http.Client{Timeout: 30 * time.Second}
	var wg sync.WaitGroup
	errc := make(chan error, cfg.clients)
	start := time.Now()
	for c := 0; c < cfg.clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", c%cfg.tenants)
			for {
				n := ticket.Add(1)
				if n > int64(cfg.requests) {
					return
				}
				if time.Now().After(deadline) {
					errc <- fmt.Errorf("deadline exceeded after %d submissions", n-1)
					return
				}
				// Deterministic URL choice per ticket so every run covers
				// the pool the same way.
				batch := make([]string, cfg.batch)
				for i := range batch {
					batch[i] = urls[(int(n)*7+i*3)%len(urls)]
				}
				if err := submitAndPoll(httpc, base, tenant, batch, cfg, res, deadline); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	close(errc)
	if err := <-errc; err != nil {
		return nil, err
	}

	// The server's own view of the run.
	resp, err := httpc.Get(base + "/api/v1/stats")
	if err != nil {
		return nil, fmt.Errorf("fetch stats: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&res.serverStats); err != nil {
		return nil, fmt.Errorf("decode stats: %w", err)
	}
	return res, nil
}

// retryAfterDelay converts a 429 response's Retry-After header into the
// pause before the next submission. The server's advice is honored only
// when it is a positive delay — an absent, malformed, zero or negative
// header falls back to the configured shed wait so a lying server can
// never turn the retry loop into a busy-spin — and it is clamped to the
// time remaining before the deadline so a huge value cannot park the
// client past the end of the run. Both the delta-seconds and HTTP-date
// forms of the header are understood.
func retryAfterDelay(header string, fallback, remaining time.Duration) time.Duration {
	d := fallback
	header = strings.TrimSpace(header)
	if secs, err := strconv.Atoi(header); err == nil {
		if secs > 0 {
			d = time.Duration(secs) * time.Second
		}
	} else if t, err := http.ParseTime(header); err == nil {
		if until := time.Until(t); until > 0 {
			d = until
		}
	}
	if d > remaining {
		d = remaining
	}
	if d <= 0 {
		d = fallback
	}
	return d
}

// maxSubmitResponse caps the submit response body slumload reads. An
// accepted job, a shed notice and an error message are each well under
// a kilobyte.
const maxSubmitResponse = 64 << 10

// readCapped reads r to its end, failing when r holds more than limit
// bytes or the read fails; either error names the limit.
func readCapped(r io.Reader, limit int64) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, fmt.Errorf("read response body (limit %d bytes): %w", limit, err)
	}
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("response body exceeds the %d-byte limit", limit)
	}
	return data, nil
}

// submitAndPoll performs one scan submission (retrying sheds and rate
// limits until accepted) and polls the job to completion.
func submitAndPoll(httpc *http.Client, base, tenant string, batch []string,
	cfg loadConfig, res *loadResult, deadline time.Time) error {
	body, _ := json.Marshal(serve.ScanRequest{URLs: batch})
	atomic.AddInt64(&res.attempted, 1)

	var jobID string
	for {
		req, err := http.NewRequest("POST", base+"/api/v1/scan", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(serve.TenantHeader, tenant)
		t0 := time.Now()
		resp, err := httpc.Do(req)
		if err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		res.submitLat.ObserveDuration(time.Since(t0))
		data, err := readCapped(resp.Body, maxSubmitResponse)
		resp.Body.Close()
		if err != nil {
			atomic.AddInt64(&res.otherErr, 1)
			return fmt.Errorf("submit: %w", err)
		}

		switch resp.StatusCode {
		case http.StatusAccepted:
			var acc struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(data, &acc); err != nil || acc.ID == "" {
				return fmt.Errorf("submit response %q: %v", data, err)
			}
			jobID = acc.ID
			atomic.AddInt64(&res.accepted, 1)
		case http.StatusTooManyRequests:
			// Shed or rate-limited: count it as a fresh attempt and retry.
			if bytes.Contains(data, []byte(serve.CodeRateLimited)) {
				atomic.AddInt64(&res.limited, 1)
			} else {
				atomic.AddInt64(&res.shed, 1)
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("deadline exceeded while shed-retrying")
			}
			time.Sleep(retryAfterDelay(resp.Header.Get("Retry-After"), cfg.shedWait, time.Until(deadline)))
			atomic.AddInt64(&res.attempted, 1)
			continue
		default:
			atomic.AddInt64(&res.otherErr, 1)
			return fmt.Errorf("submit status %d: %s", resp.StatusCode, data)
		}
		break
	}

	// Poll to completion; job latency spans submit through done.
	t0 := time.Now()
	for {
		resp, err := httpc.Get(base + "/api/v1/jobs/" + jobID)
		if err != nil {
			return fmt.Errorf("poll %s: %w", jobID, err)
		}
		var job serve.Job
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("poll %s: %w", jobID, err)
		}
		if job.State == serve.JobDone {
			res.jobLat.ObserveDuration(time.Since(t0))
			atomic.AddInt64(&res.completedJobs, 1)
			for _, r := range job.Results {
				atomic.AddInt64(&res.urlResults, 1)
				if r.Error != "" {
					atomic.AddInt64(&res.urlErrors, 1)
				}
			}
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("deadline exceeded polling %s", jobID)
		}
		time.Sleep(time.Millisecond)
	}
}

func (r *loadResult) print(out io.Writer) {
	sub := r.submitLat.Stats()
	job := r.jobLat.Stats()
	qps := float64(r.completedJobs) / r.elapsed.Seconds()
	fmt.Fprintf(out, "\nscan requests: %d attempted, %d accepted, %d shed, %d rate-limited\n",
		r.attempted, r.accepted, r.shed, r.limited)
	fmt.Fprintf(out, "jobs completed: %d (%d URL results, %d fetch errors)\n",
		r.completedJobs, r.urlResults, r.urlErrors)
	fmt.Fprintf(out, "elapsed: %v   throughput: %.0f jobs/sec\n", r.elapsed.Round(time.Millisecond), qps)
	fmt.Fprintf(out, "submit latency ms: p50=%.2f p95=%.2f p99=%.2f\n",
		sub.P50*1000, sub.P95*1000, sub.P99*1000)
	fmt.Fprintf(out, "job latency ms:    p50=%.2f p95=%.2f p99=%.2f\n",
		job.P50*1000, job.P95*1000, job.P99*1000)
	fmt.Fprintf(out, "server: %d submitted, %d completed, %d shed, %d rate-limited, %d queued\n",
		r.serverStats.Submitted, r.serverStats.Completed, r.serverStats.Shed,
		r.serverStats.Limited, r.serverStats.Queued)
	if c := r.serverStats.Cache; c != nil {
		fmt.Fprintf(out, "cache: %d hits, %d misses (%.1f%% hit rate), %d entries\n",
			c.Hits, c.Misses, c.HitRate()*100, c.Entries)
	}
}

// check enforces the soak invariants and returns an error naming the
// first violation.
func (r *loadResult) check(cfg loadConfig) error {
	if r.accepted+r.shed+r.limited+r.otherErr != r.attempted {
		return fmt.Errorf("lost submissions: accepted %d + shed %d + limited %d + errors %d != attempted %d",
			r.accepted, r.shed, r.limited, r.otherErr, r.attempted)
	}
	if r.completedJobs != r.accepted {
		return fmt.Errorf("lost jobs: %d accepted but %d completed", r.accepted, r.completedJobs)
	}
	if r.accepted != int64(cfg.requests) {
		return fmt.Errorf("accepted %d jobs, want %d", r.accepted, cfg.requests)
	}
	if want := r.accepted * int64(cfg.batch); r.urlResults != want {
		return fmt.Errorf("URL results %d != accepted %d x batch %d", r.urlResults, r.accepted, cfg.batch)
	}
	// Server-side accounting must agree with the driver's. The driver may
	// be one of several (an external target), so >= rather than ==.
	if r.serverStats.Completed < r.completedJobs {
		return fmt.Errorf("server completed %d < driver observed %d", r.serverStats.Completed, r.completedJobs)
	}
	if r.serverStats.Queued != 0 {
		return fmt.Errorf("server still has %d queued jobs after the run", r.serverStats.Queued)
	}
	if c := r.serverStats.Cache; c != nil && c.Hits == 0 {
		return fmt.Errorf("verdict cache never hit over %d submissions", r.attempted)
	}
	return nil
}
