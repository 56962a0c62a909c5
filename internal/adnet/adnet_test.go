package adnet

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/httpsim"
)

// rig wires a bogus network, a legitimate network, and a publisher page
// carrying both networks' slots.
type rig struct {
	in    *httpsim.Internet
	bogus *Network
	legit *Network
	pub   string
}

func newRig(t *testing.T) *rig {
	t.Helper()
	in := httpsim.NewInternet()
	g := guard.NewSurfGuard([]string{"10khits.sim", "sendsurf.sim"})
	r := &rig{
		in:    in,
		bogus: New("AdHitz-sim", "adhitz.sim", 40, nil),
		legit: New("LegitAds", "legitads.sim", 200, guard.NewAdFraudVetter(g)),
		pub:   "member-site.com",
	}
	in.Register(r.bogus.Host, r.bogus.Handler())
	in.Register(r.legit.Host, r.legit.Handler())
	page := "<html><body><h1>Member site</h1>" +
		r.bogus.SlotMarkup(r.pub) + "\n" + r.legit.SlotMarkup(r.pub) +
		"</body></html>"
	in.Register(r.pub, func(req *httpsim.Request) *httpsim.Response {
		return httpsim.HTML(page)
	})
	return r
}

func (r *rig) adHosts() map[string]bool {
	return map[string]bool{r.bogus.Host: true, r.legit.Host: true}
}

// driveExchangeTraffic plays n exchange-driven viewers (fresh IPs, pinned
// dwell, exchange referrer — optionally spoofed at the beacon).
func (r *rig) driveExchangeTraffic(t *testing.T, n int, spoof string) {
	t.Helper()
	aud := &Audience{Transport: r.in, AdHosts: r.adHosts(), SpoofReferrer: spoof}
	for i := 0; i < n; i++ {
		ip := fmt.Sprintf("10.%d.%d.%d", i/65536, (i/256)%256, i%256)
		fired, err := aud.Visit("http://"+r.pub+"/", ip, "India", "http://10khits.sim/surf", 20*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if fired != 2 {
			t.Fatalf("beacons fired = %d, want 2", fired)
		}
	}
}

// driveOrganicTraffic plays n organic viewers (recurring IPs, scattered
// dwell, search referrers).
func (r *rig) driveOrganicTraffic(t *testing.T, n int) {
	t.Helper()
	aud := &Audience{Transport: r.in, AdHosts: r.adHosts()}
	refs := []string{"http://google.sim/search?q=stuff", "", "http://wikipedia.sim/"}
	for i := 0; i < n; i++ {
		ip := fmt.Sprintf("198.51.100.%d", i%50)
		dwell := time.Duration(5+i*13%240) * time.Second
		if _, err := aud.Visit("http://"+r.pub+"/", ip, "USA", refs[i%len(refs)], dwell); err != nil {
			t.Fatal(err)
		}
	}
}

func TestImpressionsRecorded(t *testing.T) {
	r := newRig(t)
	r.driveExchangeTraffic(t, 50, "")
	if got := len(r.bogus.Impressions(r.pub)); got != 50 {
		t.Fatalf("bogus impressions = %d", got)
	}
	if got := len(r.legit.Impressions(r.pub)); got != 50 {
		t.Fatalf("legit impressions = %d", got)
	}
	imp := r.legit.Impressions(r.pub)[0]
	if imp.Referrer != "http://10khits.sim/surf" {
		t.Fatalf("impression referrer = %q", imp.Referrer)
	}
	if imp.Dwell != 20*time.Second {
		t.Fatalf("impression dwell = %v", imp.Dwell)
	}
}

func TestBogusNetworkPaysForExchangeTraffic(t *testing.T) {
	r := newRig(t)
	r.driveExchangeTraffic(t, 1000, "")
	// 1000 impressions at 40c CPM = 40 cents, no questions asked.
	if got := r.bogus.EarningsCents(r.pub); got != 40 {
		t.Fatalf("bogus earnings = %d cents", got)
	}
	if res := r.bogus.RunVetting(); res != nil {
		t.Fatal("bogus network must not vet")
	}
	if got := r.bogus.EarningsCents(r.pub); got != 40 {
		t.Fatalf("bogus earnings after (non-)vetting = %d", got)
	}
}

func TestLegitNetworkBansExchangePublisher(t *testing.T) {
	r := newRig(t)
	r.driveExchangeTraffic(t, 800, "")
	results := r.legit.RunVetting()
	if len(results) != 1 || !results[0].Banned {
		t.Fatalf("vetting = %+v", results)
	}
	if r.legit.banned[r.pub] == "" {
		t.Fatal("publisher not banned")
	}
	if got := r.legit.EarningsCents(r.pub); got != 0 {
		t.Fatalf("banned publisher keeps %d cents", got)
	}
	// Banned slots stop recording.
	before := len(r.legit.Impressions(r.pub))
	r.driveExchangeTraffic(t, 10, "")
	if got := len(r.legit.Impressions(r.pub)); got != before {
		t.Fatalf("banned slot still recording: %d -> %d", before, got)
	}
}

func TestSpoofedReferrersStillCaught(t *testing.T) {
	// §II: referrer spoofing on legitimate exchanges. The referrer signal
	// disappears, but dwell pinning + fresh-IP diversity + pacing still
	// push the score over the line.
	r := newRig(t)
	r.driveExchangeTraffic(t, 800, "http://google.sim/search?q=innocent")
	results := r.legit.RunVetting()
	if len(results) != 1 {
		t.Fatalf("results = %+v", results)
	}
	rep := results[0].Report
	if rep.ExchangeReferred != 0 {
		t.Fatalf("spoofed referrers visible: %+v", rep)
	}
	if !results[0].Banned {
		t.Fatalf("spoofed exchange traffic evaded vetting: %+v", rep)
	}
}

func TestOrganicPublisherSurvivesVetting(t *testing.T) {
	r := newRig(t)
	r.driveOrganicTraffic(t, 800)
	results := r.legit.RunVetting()
	if len(results) != 1 || results[0].Banned {
		t.Fatalf("organic publisher banned: %+v", results)
	}
	if got := r.legit.EarningsCents(r.pub); got != 160 {
		t.Fatalf("organic earnings = %d cents, want 160 (800 x 200c CPM)", got)
	}
}

func TestHandlerErrors(t *testing.T) {
	r := newRig(t)
	for _, u := range []string{
		"http://legitads.sim/otherpath",
		"http://legitads.sim/banner",        // missing pub
		"http://legitads.sim/banner?pub=",   // empty pub
		"http://legitads.sim/banner?%zz=%2", // bad query
	} {
		resp, err := r.in.RoundTrip(&httpsim.Request{URL: u})
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 404 {
			t.Fatalf("%s -> %d, want 404", u, resp.StatusCode)
		}
	}
}

func TestSlotMarkupParses(t *testing.T) {
	n := New("X", "x-ads.sim", 100, nil)
	markup := n.SlotMarkup("pub.example")
	if !strings.Contains(markup, "x-ads.sim/banner?pub=pub.example") {
		t.Fatalf("markup = %q", markup)
	}
}

func TestAudienceIgnoresNonAdIframes(t *testing.T) {
	in := httpsim.NewInternet()
	beacons := 0
	in.Register("ads.sim", func(req *httpsim.Request) *httpsim.Response {
		beacons++
		return httpsim.HTML("ad")
	})
	in.Register("pub.sim", func(req *httpsim.Request) *httpsim.Response {
		return httpsim.HTML(`<iframe src="http://video.sim/embed"></iframe>
<iframe src="http://ads.sim/banner?pub=pub.sim"></iframe>`)
	})
	in.Register("video.sim", func(req *httpsim.Request) *httpsim.Response {
		return httpsim.HTML("video")
	})
	aud := &Audience{Transport: in, AdHosts: map[string]bool{"ads.sim": true}}
	fired, err := aud.Visit("http://pub.sim/", "10.0.0.1", "USA", "", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fired != 1 || beacons != 1 {
		t.Fatalf("fired=%d beacons=%d, want 1/1", fired, beacons)
	}
}

func TestVisitDeadPage(t *testing.T) {
	in := httpsim.NewInternet()
	aud := &Audience{Transport: in, AdHosts: map[string]bool{}}
	if _, err := aud.Visit("http://gone.sim/", "10.0.0.1", "USA", "", 0); err == nil {
		t.Fatal("dead page visit succeeded")
	}
}

func BenchmarkAudienceVisit(b *testing.B) {
	in := httpsim.NewInternet()
	n := New("B", "b-ads.sim", 50, nil)
	in.Register(n.Host, n.Handler())
	in.Register("pub.sim", func(req *httpsim.Request) *httpsim.Response {
		return httpsim.HTML("<html>" + n.SlotMarkup("pub.sim") + "</html>")
	})
	aud := &Audience{Transport: in, AdHosts: map[string]bool{n.Host: true}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := aud.Visit("http://pub.sim/", "10.0.0.1", "USA", "http://x.sim/", 20*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}
