package web

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/httpsim"
)

const botUA = "VirusTotalBot/1.0"

// renderTarget is one cached render: a page of a site, as a browser or a
// scanner bot sees it.
type renderTarget struct {
	url, ua string
}

// renderTargets covers every page of one site per page-rendering kind,
// the bot variant of a cloaked site, and a redirector's landing page (a
// redirector's own pages are bodiless 302s).
func renderTargets(t *testing.T, u *Universe) []renderTarget {
	t.Helper()
	var out []renderTarget
	for _, k := range append([]MaliceKind{Benign}, kindOrder...) {
		if k == Redirector {
			continue
		}
		s := u.SitesOfKind(k)[0]
		for _, p := range s.Pages {
			out = append(out, renderTarget{"http://" + s.Host + p, browserUA})
		}
	}
	cloaked := false
	for _, s := range u.MaliciousSites() {
		if s.Cloaked {
			out = append(out, renderTarget{"http://" + s.Host + "/", botUA}, renderTarget{"http://" + s.Host + "/", browserUA})
			cloaked = true
			break
		}
	}
	if !cloaked {
		t.Fatal("no cloaked site to render a bot variant of")
	}
	land := "http://" + landingHostFor(u.SitesOfKind(Redirector)[0]) + "/offer"
	out = append(out, renderTarget{land, browserUA})
	// One target per cached render.
	seen := map[renderTarget]bool{}
	uniq := out[:0]
	for _, tg := range out {
		if !seen[tg] {
			seen[tg] = true
			uniq = append(uniq, tg)
		}
	}
	return uniq
}

func serveBody(t *testing.T, u *Universe, tg renderTarget) []byte {
	t.Helper()
	resp, err := u.Internet.RoundTrip(&httpsim.Request{URL: tg.url, UserAgent: tg.ua})
	if err != nil {
		t.Fatal(err)
	}
	return resp.Body
}

// TestRenderBodiesOwnTheirArrays renders page after page on the pooled
// render scratch and checks that every cached body is an exact-size array
// of its own: later renders leave earlier bodies unchanged, a repeat serve
// returns the cached array, and writing one body changes no other.
func TestRenderBodiesOwnTheirArrays(t *testing.T) {
	u := Generate(smallConfig())
	targets := renderTargets(t, u)
	bodies := make([][]byte, len(targets))
	want := make([][]byte, len(targets))
	for i, tg := range targets {
		bodies[i] = serveBody(t, u, tg)
		want[i] = bytes.Clone(bodies[i])
		if len(bodies[i]) == 0 || cap(bodies[i]) != len(bodies[i]) {
			t.Fatalf("%s (%s): body len %d cap %d, want an exact-size body", tg.url, tg.ua, len(bodies[i]), cap(bodies[i]))
		}
	}
	for i, tg := range targets {
		if !bytes.Equal(bodies[i], want[i]) {
			t.Fatalf("%s (%s): cached body changed by later renders", tg.url, tg.ua)
		}
		if again := serveBody(t, u, tg); &again[0] != &bodies[i][0] {
			t.Fatalf("%s (%s): repeat serve returned a different array", tg.url, tg.ua)
		}
	}
	for i := range bodies {
		for k := range bodies[i] {
			bodies[i][k] ^= 0xff
		}
		for j := range bodies {
			if j != i && !bytes.Equal(bodies[j], want[j]) {
				t.Fatalf("body of %s shares its array with %s", targets[j].url, targets[i].url)
			}
		}
		for k := range bodies[i] {
			bodies[i][k] ^= 0xff
		}
	}
}

// TestConcurrentRendersMatchSequential renders the same pages from many
// goroutines at once on a fresh universe; every body must equal the one a
// sequential render of an identical universe produced. Run under -race it
// also checks the pooled sources and scratch buffers are never shared.
func TestConcurrentRendersMatchSequential(t *testing.T) {
	seq := Generate(smallConfig())
	targets := renderTargets(t, seq)
	for _, s := range seq.Sites[:40] {
		for _, p := range s.Pages {
			targets = append(targets, renderTarget{"http://" + s.Host + p, browserUA})
		}
	}
	want := make([][]byte, len(targets))
	for i, tg := range targets {
		want[i] = serveBody(t, seq, tg)
	}

	u := Generate(smallConfig())
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := range targets {
				i := (n*7 + w*13) % len(targets) // a different order per worker
				resp, err := u.Internet.RoundTrip(&httpsim.Request{URL: targets[i].url, UserAgent: targets[i].ua})
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(resp.Body, want[i]) {
					t.Errorf("%s (%s): concurrent render differs from the sequential one", targets[i].url, targets[i].ua)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestServedTemplatesAreImmutable fetches one cached page from many
// goroutines at once — through the bare Internet, through fault
// injectors that slow and truncate every response, and under two
// spellings of its URL — and checks that every hop carries the latency
// of its own URL while the published template is never written: not a
// field, not a body byte. Run under -race it also catches a write that
// happens to restore the old value.
func TestServedTemplatesAreImmutable(t *testing.T) {
	u := Generate(smallConfig())
	s := u.SitesOfKind(Benign)[0]
	url := "http://" + s.Host + s.Pages[0]
	twin := url + "?ref=twin" // same page, same cache slot, another URL
	tmpl, err := u.Internet.RoundTrip(&httpsim.Request{URL: url, UserAgent: browserUA})
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := u.Internet.RoundTrip(&httpsim.Request{URL: url, UserAgent: browserUA}); again != tmpl {
		t.Fatal("a repeat fetch of the URL a page was rendered for did not get the cached template itself")
	}
	want, wantBody := *tmpl, bytes.Clone(tmpl.Body)
	latency := func(rawURL string) time.Duration { return (&httpsim.Response{}).Complete(rawURL).Latency }

	force := func(k httpsim.FaultKind) httpsim.RoundTripper {
		p := httpsim.FaultProfile{Name: "force-" + k.String()}
		p.Rates[k] = 1
		return httpsim.NewFaultInjector(u.Internet, p, 1)
	}
	const penalty = 30 * time.Second // FaultInjector's default SlowPenalty
	transports := []struct {
		name  string
		rt    httpsim.RoundTripper
		extra time.Duration
		trunc bool
	}{
		{"internet", u.Internet, 0, false},
		{"slow", force(httpsim.FaultSlow), penalty, false},
		{"truncate", force(httpsim.FaultTruncate), 0, true},
	}
	var wg sync.WaitGroup
	for _, tr := range transports {
		for _, target := range []string{url, twin} {
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						resp, err := tr.rt.RoundTrip(&httpsim.Request{URL: target, UserAgent: browserUA})
						if err != nil {
							t.Errorf("%s %s: %v", tr.name, target, err)
							return
						}
						if got, want := resp.Latency, latency(target)+tr.extra; got != want {
							t.Errorf("%s %s: latency %v, want %v", tr.name, target, got, want)
							return
						}
						if resp.Truncated() != tr.trunc || !bytes.HasPrefix(wantBody, resp.Body) {
							t.Errorf("%s %s: truncated=%v, body of %d bytes not a prefix of the page", tr.name, target, resp.Truncated(), len(resp.Body))
							return
						}
						if tr.trunc {
							continue
						}
						res, err := httpsim.NewClient(tr.rt).Get(target, browserUA, "")
						if err != nil {
							t.Errorf("%s %s: %v", tr.name, target, err)
							return
						}
						if hop := res.Chain[0]; hop.Latency != latency(hop.URL)+tr.extra {
							t.Errorf("%s %s: hop latency %v, want %v", tr.name, hop.URL, hop.Latency, latency(hop.URL)+tr.extra)
							return
						}
					}
				}()
			}
		}
	}
	wg.Wait()
	got := *tmpl
	if !bytes.Equal(got.Body, wantBody) {
		t.Fatal("a body byte of the published template was written")
	}
	got.Body, want.Body = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the published template was written:\n got %+v\nwant %+v", got, want)
	}
}
