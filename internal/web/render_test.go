package web

import (
	"bytes"
	"sync"
	"testing"

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
