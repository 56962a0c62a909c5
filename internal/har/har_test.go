package har

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/httpsim"
)

func sampleResult() *httpsim.Result {
	return &httpsim.Result{
		Chain: []httpsim.Hop{
			{URL: "http://a.example/", StatusCode: 302, Kind: "http", ContentType: "text/html", Latency: 100 * time.Millisecond},
			{URL: "http://b.example/land", StatusCode: 200, ContentType: "text/html", BodySize: 42, Latency: 60 * time.Millisecond},
		},
		Final:    &httpsim.Response{StatusCode: 200, ContentType: "text/html", Body: []byte("<html>page body</html>")},
		FinalURL: "http://b.example/land",
	}
}

// sampleLog is a one-page capture of sampleResult.
func sampleLog(title string, start time.Time) *Log {
	l := NewLog()
	p := NewPage(1, title, start)
	l.Pages = append(l.Pages, p)
	l.Entries = AppendResult(l.Entries, p.ID, "UA", start, sampleResult())
	return l
}

func TestResultProducesEntriesPerHop(t *testing.T) {
	start := time.Date(2015, 6, 1, 12, 0, 0, 0, time.UTC)
	l := sampleLog("http://a.example/", start)

	if len(l.Pages) != 1 || len(l.Entries) != 2 {
		t.Fatalf("pages=%d entries=%d, want 1 and 2", len(l.Pages), len(l.Entries))
	}
	if l.Entries[0].Response.RedirectURL != "http://b.example/land" {
		t.Fatalf("redirectURL = %q", l.Entries[0].Response.RedirectURL)
	}
	if l.Entries[1].Response.Content.Text != "<html>page body</html>" {
		t.Fatalf("final body not archived: %+v", l.Entries[1].Response.Content)
	}
	if l.Entries[0].Response.Content.Text != "" {
		t.Fatal("intermediate hop should not carry body text")
	}
	if l.Entries[0].Pageref != l.Pages[0].ID || l.Entries[1].Pageref != l.Pages[0].ID {
		t.Fatalf("entries refer to %q and %q, page is %q", l.Entries[0].Pageref, l.Entries[1].Pageref, l.Pages[0].ID)
	}
	// The second entry must start after the first hop's latency.
	if l.Entries[1].StartedDateTime <= l.Entries[0].StartedDateTime {
		t.Fatalf("entry timestamps not advancing: %q vs %q",
			l.Entries[0].StartedDateTime, l.Entries[1].StartedDateTime)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, sampleLog("session", time.Date(2015, 6, 1, 12, 0, 0, 0, time.UTC))); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"log"`) {
		t.Fatal("encoded HAR missing top-level log key")
	}
	decoded, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Version != "1.2" {
		t.Fatalf("version = %q", decoded.Version)
	}
	if len(decoded.Entries) != 2 {
		t.Fatalf("entries after round trip = %d", len(decoded.Entries))
	}
	if decoded.Entries[1].Response.Content.Text != "<html>page body</html>" {
		t.Fatal("body text lost in round trip")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(strings.NewReader("not json")); err == nil {
		t.Fatal("want error for bad JSON")
	}
	if _, err := Decode(strings.NewReader(`{"notlog": {}}`)); err == nil {
		t.Fatal("want error for missing log key")
	}
	if _, err := Decode(strings.NewReader(`{"log": {"entries": []}}`)); err == nil {
		t.Fatal("want error for missing version")
	}
}

func TestAddResultNil(t *testing.T) {
	if got := AppendResult(nil, "p", "UA", time.Now(), nil); len(got) != 0 {
		t.Fatal("nil result added entries")
	}
}

func TestPageIDsUnique(t *testing.T) {
	ids := map[string]bool{}
	for i := 1; i <= 100; i++ {
		id := NewPage(i, "p", time.Now()).ID
		if ids[id] {
			t.Fatalf("duplicate page id %q", id)
		}
		ids[id] = true
	}
}

// TestJoinPartsMatchesEncode checks the piecewise encoding against Encode
// of the whole log: a capture of several pages, and one whose every
// fetch failed, which has no pages and null entries.
func TestJoinPartsMatchesEncode(t *testing.T) {
	start := time.Date(2015, 6, 1, 12, 0, 0, 0, time.UTC)
	full := NewLog()
	for n := 1; n <= 3; n++ {
		p := NewPage(n, fmt.Sprintf("http://entry%d.example/", n), start)
		full.Pages = append(full.Pages, p)
		full.Entries = AppendResult(full.Entries, p.ID, "UA <&>", start, sampleResult())
		start = start.Add(time.Minute)
	}
	for name, l := range map[string]*Log{"three pages": full, "every fetch failed": NewLog()} {
		var want bytes.Buffer
		if err := Encode(&want, l); err != nil {
			t.Fatal(err)
		}
		var pages, entries []byte
		var err error
		for i := range l.Pages {
			if pages, err = AppendElement(pages, int64(len(pages)), &l.Pages[i]); err != nil {
				t.Fatal(err)
			}
		}
		for i := range l.Entries {
			if entries, err = AppendElement(entries, int64(len(entries)), &l.Entries[i]); err != nil {
				t.Fatal(err)
			}
		}
		got, err := io.ReadAll(JoinParts(sectionOf(pages), sectionOf(entries)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got) {
			t.Errorf("%s: joined parts differ from Encode:\n want %s\n got  %s", name, want.Bytes(), got)
		}
	}
	var empty bytes.Buffer
	if err := Encode(&empty, NewLog()); err != nil {
		t.Fatal(err)
	}
	if s := empty.String(); strings.Contains(s, `"pages"`) || !strings.Contains(s, `"entries":null`) {
		t.Errorf("a capture without pages encodes as %s, want no pages and null entries", s)
	}
}

func sectionOf(b []byte) *io.SectionReader {
	return io.NewSectionReader(bytes.NewReader(b), 0, int64(len(b)))
}

func BenchmarkEncode(b *testing.B) {
	l := NewLog()
	start := time.Now()
	for i := 1; i <= 100; i++ {
		p := NewPage(i, "p", start)
		l.Pages = append(l.Pages, p)
		l.Entries = AppendResult(l.Entries, p.ID, "UA", start, sampleResult())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Encode(&buf, l); err != nil {
			b.Fatal(err)
		}
	}
}
