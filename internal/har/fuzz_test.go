package har

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/httpsim"
)

// fuzzSeedLog builds a small but representative capture: a two-hop
// redirect chain with a body-carrying final response.
func fuzzSeedLog() []byte {
	l := NewLog()
	start := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	p := NewPage(1, "http://entry.sim/", start)
	l.Pages = append(l.Pages, p)
	l.Entries = AppendResult(l.Entries, p.ID, "Mozilla/5.0 (X11)", start, &httpsim.Result{
		Chain: []httpsim.Hop{
			{URL: "http://entry.sim/", StatusCode: 302, Kind: "http", Latency: 30 * time.Millisecond},
			{URL: "http://land.sim/offer", StatusCode: 200, ContentType: "text/html", BodySize: 14, Latency: 45 * time.Millisecond},
		},
		Final:    &httpsim.Response{StatusCode: 200, ContentType: "text/html", Body: []byte("<html>x</html>")},
		FinalURL: "http://land.sim/offer",
	})
	var buf bytes.Buffer
	if err := Encode(&buf, l); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzDecode drives the HAR decoder over arbitrary bytes. Decode must
// never panic; any log it accepts must survive an encode/decode round
// trip (the slumcrawl -> slumscan offline workflow).
func FuzzDecode(f *testing.F) {
	f.Add(fuzzSeedLog())
	f.Add([]byte(`{"log":{"version":"1.2","creator":{"name":"x","version":"0"}}}`))
	f.Add([]byte(`{"log":{"version":"1.2","entries":[{"pageref":"page_1"}]}}`))
	f.Add([]byte(`{"log":null}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		if l.Version == "" {
			t.Fatal("Decode accepted a log without a version")
		}
		var buf bytes.Buffer
		if err := Encode(&buf, l); err != nil {
			t.Fatalf("re-encode of accepted log failed: %v", err)
		}
		if _, err := Decode(&buf); err != nil {
			t.Fatalf("round trip of accepted log failed: %v", err)
		}
	})
}
