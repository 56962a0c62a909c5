package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// TestRetryAfterDelay pins the header-to-pause mapping: only a positive
// server delay is honored, everything degenerate falls back to the shed
// wait, and nothing can exceed the time left before the deadline.
func TestRetryAfterDelay(t *testing.T) {
	const fallback = 5 * time.Millisecond
	const remaining = 10 * time.Second
	cases := []struct {
		name, header string
		want         time.Duration
	}{
		{"absent", "", fallback},
		{"garbage", "soon", fallback},
		{"zero", "0", fallback},
		{"negative", "-3", fallback},
		{"float", "1.5", fallback},
		{"positive", "2", 2 * time.Second},
		{"padded", "  2  ", 2 * time.Second},
		{"huge clamps to deadline", "86400", remaining},
	}
	for _, tc := range cases {
		if got := retryAfterDelay(tc.header, fallback, remaining); got != tc.want {
			t.Errorf("%s: retryAfterDelay(%q) = %v, want %v", tc.name, tc.header, got, tc.want)
		}
	}
	// HTTP-date form: a date ~2s out is honored, a past date falls back.
	future := time.Now().Add(2 * time.Second).UTC().Format(http.TimeFormat)
	if got := retryAfterDelay(future, fallback, remaining); got < time.Second || got > 2*time.Second {
		t.Errorf("future HTTP-date: got %v, want ~2s", got)
	}
	past := time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)
	if got := retryAfterDelay(past, fallback, remaining); got != fallback {
		t.Errorf("past HTTP-date: got %v, want fallback", got)
	}
	// A deadline already blown still yields a positive pause, never a spin.
	if got := retryAfterDelay("2", fallback, -time.Second); got != fallback {
		t.Errorf("blown deadline: got %v, want fallback", got)
	}
}

// shedStub is a scan API that 429s the first `sheds` submissions with the
// given Retry-After header, then accepts and completes a job. It records
// the arrival time of every submission so tests can measure retry gaps.
func shedStub(t *testing.T, sheds int, retryAfter string) (*httptest.Server, *[]time.Time) {
	t.Helper()
	var remaining atomic.Int64
	remaining.Store(int64(sheds))
	arrivals := &[]time.Time{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == "POST" && r.URL.Path == "/api/v1/scan":
			*arrivals = append(*arrivals, time.Now())
			if remaining.Add(-1) >= 0 {
				if retryAfter != "" {
					w.Header().Set("Retry-After", retryAfter)
				}
				w.WriteHeader(http.StatusTooManyRequests)
				w.Write([]byte(`{"code":"OVERLOADED"}`))
				return
			}
			w.WriteHeader(http.StatusAccepted)
			w.Write([]byte(`{"id":"job-1"}`))
		case strings.HasPrefix(r.URL.Path, "/api/v1/jobs/"):
			json.NewEncoder(w).Encode(serve.Job{
				ID: "job-1", State: serve.JobDone,
				Results: []serve.URLResult{{URL: "http://x.test/"}},
			})
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(srv.Close)
	return srv, arrivals
}

func shedResult() *loadResult {
	reg := obs.NewRegistry()
	return &loadResult{
		submitLat: reg.Histogram("load.submit_seconds"),
		jobLat:    reg.Histogram("load.job_seconds"),
	}
}

// TestSubmitHonorsRetryAfter is the pre-fix-failing regression: with a
// tiny shed wait and "Retry-After: 1", the client must actually wait on
// the order of the advertised second before re-submitting — the old code
// ignored the header and retried after shedWait (1ms).
func TestSubmitHonorsRetryAfter(t *testing.T) {
	if testing.Short() {
		t.Skip("sleeps ~1s honoring Retry-After")
	}
	srv, arrivals := shedStub(t, 1, "1")
	cfg := loadConfig{shedWait: time.Millisecond}
	res := shedResult()
	deadline := time.Now().Add(30 * time.Second)
	err := submitAndPoll(srv.Client(), srv.URL, "t0", []string{"http://x.test/"}, cfg, res, deadline)
	if err != nil {
		t.Fatal(err)
	}
	if len(*arrivals) != 2 {
		t.Fatalf("submissions = %d, want 2", len(*arrivals))
	}
	if gap := (*arrivals)[1].Sub((*arrivals)[0]); gap < 500*time.Millisecond {
		t.Errorf("retry gap %v ignores Retry-After: 1", gap)
	}
	if res.shed != 1 || res.accepted != 1 || res.attempted != 2 {
		t.Errorf("accounting shed=%d accepted=%d attempted=%d, want 1/1/2", res.shed, res.accepted, res.attempted)
	}
}

// TestSubmitDegenerateRetryAfter drives the zero, negative, garbage and
// absent header variants against the stub: each must retry promptly on
// the shed-wait fallback (no busy-spin, no long park) and complete.
func TestSubmitDegenerateRetryAfter(t *testing.T) {
	for _, header := range []string{"", "0", "-5", "never"} {
		header := header
		t.Run("header="+header, func(t *testing.T) {
			srv, arrivals := shedStub(t, 3, header)
			cfg := loadConfig{shedWait: 2 * time.Millisecond}
			res := shedResult()
			deadline := time.Now().Add(5 * time.Second)
			start := time.Now()
			err := submitAndPoll(srv.Client(), srv.URL, "t0", []string{"http://x.test/"}, cfg, res, deadline)
			if err != nil {
				t.Fatal(err)
			}
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Errorf("degenerate header parked the client for %v", elapsed)
			}
			if len(*arrivals) != 4 {
				t.Errorf("submissions = %d, want 4", len(*arrivals))
			}
			for i := 1; i < len(*arrivals); i++ {
				if gap := (*arrivals)[i].Sub((*arrivals)[i-1]); gap < cfg.shedWait {
					t.Errorf("retry %d gap %v below shed wait %v (busy-spin)", i, gap, cfg.shedWait)
				}
			}
		})
	}
}

// TestSubmitClampsHugeRetryAfter: a server advertising an hour-long
// Retry-After cannot sleep the client past the run deadline — the pause
// clamps to the time remaining and the loop then reports the deadline.
func TestSubmitClampsHugeRetryAfter(t *testing.T) {
	srv, _ := shedStub(t, 1000, "3600")
	cfg := loadConfig{shedWait: time.Millisecond}
	res := shedResult()
	deadline := time.Now().Add(300 * time.Millisecond)
	start := time.Now()
	err := submitAndPoll(srv.Client(), srv.URL, "t0", []string{"http://x.test/"}, cfg, res, deadline)
	if err == nil || !strings.Contains(err.Error(), "deadline exceeded") {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("huge Retry-After parked the client for %v past a 300ms deadline", elapsed)
	}
}

// TestReadCapped pins the submit-response read: a body up to the limit
// is read whole, one byte more is an error naming the limit, and a
// failed read is an error naming both the limit and the failure.
func TestReadCapped(t *testing.T) {
	if got, err := readCapped(strings.NewReader("12345678"), 8); err != nil || string(got) != "12345678" {
		t.Fatalf("body at the limit: %q, %v", got, err)
	}
	if _, err := readCapped(strings.NewReader("123456789"), 8); err == nil || !strings.Contains(err.Error(), "8-byte limit") {
		t.Fatalf("body over the limit: err %v, want one naming the limit", err)
	}
	boom := errors.New("connection reset")
	_, err := readCapped(io.MultiReader(strings.NewReader("1234"), iotest.ErrReader(boom)), 8)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "limit 8 bytes") {
		t.Fatalf("failed read: err %v, want one wrapping the failure and naming the limit", err)
	}
}

// TestSubmitRejectsOversizedResponse serves a submit response larger
// than maxSubmitResponse: submitAndPoll must fail with an error, count
// it as an errored submission, and not buffer the rest of the body.
func TestSubmitRejectsOversizedResponse(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":"` + strings.Repeat("x", maxSubmitResponse) + `"}`))
	}))
	t.Cleanup(srv.Close)
	res := shedResult()
	err := submitAndPoll(srv.Client(), srv.URL, "t0", []string{"http://x.test/"}, loadConfig{}, res, time.Now().Add(10*time.Second))
	if err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("err = %v, want a response-size error", err)
	}
	if res.attempted != 1 || res.otherErr != 1 || res.accepted != 0 {
		t.Fatalf("attempted %d, errors %d, accepted %d; want 1, 1, 0", res.attempted, res.otherErr, res.accepted)
	}
}
