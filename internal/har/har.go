// Package har encodes and decodes HTTP Archive (HAR) 1.2 logs — the
// capture format the study's crawler produced via the NetExport extension.
//
// Each surf session becomes one HAR log; each hop of each fetch becomes one
// entry with request, response, and timing blocks. The analysis pipeline
// can be re-run from persisted HAR files alone, which mirrors how the
// original study's offline analysis worked from its capture archive.
package har

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/httpsim"
)

// Log is the top-level HAR structure.
type Log struct {
	Version string  `json:"version"`
	Creator Creator `json:"creator"`
	Pages   []Page  `json:"pages,omitempty"`
	Entries []Entry `json:"entries"`
}

// Creator identifies the capturing tool.
type Creator struct {
	Name    string `json:"name"`
	Version string `json:"version"`
}

// Page is one visited page.
type Page struct {
	StartedDateTime string `json:"startedDateTime"`
	ID              string `json:"id"`
	Title           string `json:"title"`
}

// Entry is one request/response exchange.
type Entry struct {
	Pageref         string   `json:"pageref,omitempty"`
	StartedDateTime string   `json:"startedDateTime"`
	Time            float64  `json:"time"` // total ms
	Request         Request  `json:"request"`
	Response        Response `json:"response"`
	Timings         Timings  `json:"timings"`
}

// Request is the HAR request block.
type Request struct {
	Method      string   `json:"method"`
	URL         string   `json:"url"`
	HTTPVersion string   `json:"httpVersion"`
	Headers     []Header `json:"headers"`
	HeaderSize  int      `json:"headersSize"`
	BodySize    int      `json:"bodySize"`
}

// Response is the HAR response block.
type Response struct {
	Status      int      `json:"status"`
	StatusText  string   `json:"statusText"`
	HTTPVersion string   `json:"httpVersion"`
	Headers     []Header `json:"headers"`
	Content     Content  `json:"content"`
	RedirectURL string   `json:"redirectURL"`
	HeaderSize  int      `json:"headersSize"`
	BodySize    int      `json:"bodySize"`
}

// Header is one HTTP header.
type Header struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// Content is the HAR response content block. Text is included so the
// offline analysis (and the anti-cloaking re-scan) can run from the
// archive without refetching.
type Content struct {
	Size     int    `json:"size"`
	MimeType string `json:"mimeType"`
	Text     string `json:"text,omitempty"`
	Encoding string `json:"encoding,omitempty"`
}

// Timings is the HAR timing block (milliseconds; -1 = not applicable).
type Timings struct {
	Blocked float64 `json:"blocked"`
	DNS     float64 `json:"dns"`
	Connect float64 `json:"connect"`
	Send    float64 `json:"send"`
	Wait    float64 `json:"wait"`
	Receive float64 `json:"receive"`
}

// NewLog returns an empty log attributed to the simulated capture stack.
func NewLog() *Log {
	return &Log{Version: "1.2", Creator: Creator{Name: "slums-crawler", Version: "1.0"}}
}

// NewPage returns the n-th page (1-based) of a capture, page_n: the page
// load of title begun at start.
func NewPage(n int, title string, start time.Time) Page {
	return Page{StartedDateTime: stamp(start), ID: "page_" + strconv.Itoa(n), Title: title}
}

// AppendResult appends one entry per hop of a completed fetch to dst, all
// referring to page pageID. The synthetic latency is split across
// wait/receive the way browser captures look.
func AppendResult(dst []Entry, pageID, userAgent string, start time.Time, res *httpsim.Result) []Entry {
	if res == nil {
		return dst
	}
	at := start
	for i, hop := range res.Chain {
		totalMS := float64(hop.Latency) / float64(time.Millisecond)
		entry := Entry{
			Pageref:         pageID,
			StartedDateTime: stamp(at),
			Time:            totalMS,
			Request: Request{
				Method:      "GET",
				URL:         hop.URL,
				HTTPVersion: "HTTP/1.1",
				Headers: []Header{
					{Name: "User-Agent", Value: userAgent},
				},
				HeaderSize: -1,
				BodySize:   0,
			},
			Response: Response{
				Status:      hop.StatusCode,
				StatusText:  statusText(hop.StatusCode),
				HTTPVersion: "HTTP/1.1",
				Content: Content{
					Size:     hop.BodySize,
					MimeType: hop.ContentType,
				},
				HeaderSize: -1,
				BodySize:   hop.BodySize,
			},
			Timings: Timings{
				Blocked: -1, DNS: -1, Connect: -1,
				Send: 0, Wait: totalMS * 0.8, Receive: totalMS * 0.2,
			},
		}
		// Redirect hops carry their target.
		if i+1 < len(res.Chain) {
			entry.Response.RedirectURL = res.Chain[i+1].URL
		}
		// Final hop carries the body text for offline re-analysis.
		if i == len(res.Chain)-1 && res.Final != nil {
			entry.Response.Content.Text = string(res.Final.Body)
		}
		dst = append(dst, entry)
		at = at.Add(hop.Latency)
	}
	return dst
}

// stamp formats a capture time the way NetExport does.
func stamp(t time.Time) string {
	return t.UTC().Format("2006-01-02T15:04:05.000Z07:00")
}

// Encode writes the log as HAR JSON ({"log": {...}}).
func Encode(w io.Writer, l *Log) error {
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]*Log{"log": l})
}

// A capture too large to hold is encoded piecewise: every page and every
// entry on its own, with AppendElement, into a pages part and an entries
// part, which JoinParts then wraps in the log envelope.

// AppendElement appends the JSON encoding of v, a Page or an Entry, to
// dst as the next element of a part whose earlier elements fill n bytes:
// a comma unless n is 0, then v exactly as Encode writes it inside the
// log's pages or entries array.
func AppendElement(dst []byte, n int64, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return dst, fmt.Errorf("har: encode: %w", err)
	}
	if n > 0 {
		dst = append(dst, ',')
	}
	return append(dst, b...), nil
}

// JoinParts returns the HAR document of NewLog holding the elements of a
// pages part and an entries part, as AppendElement wrote them. It is
// byte-identical to Encode of that log: without pages there is no
// "pages" key, and without entries "entries" is null.
func JoinParts(pages, entries *io.SectionReader) io.Reader {
	l := NewLog()
	version, _ := json.Marshal(l.Version)
	creator, _ := json.Marshal(l.Creator)
	rs := []io.Reader{strings.NewReader(`{"log":{"version":` + string(version) + `,"creator":` + string(creator))}
	if pages.Size() > 0 {
		rs = append(rs, strings.NewReader(`,"pages":[`), pages, strings.NewReader(`]`))
	}
	if entries.Size() > 0 {
		rs = append(rs, strings.NewReader(`,"entries":[`), entries, strings.NewReader(`]`))
	} else {
		rs = append(rs, strings.NewReader(`,"entries":null`))
	}
	return io.MultiReader(append(rs, strings.NewReader("}}\n"))...)
}

// Decode reads a HAR JSON document.
func Decode(r io.Reader) (*Log, error) {
	var doc map[string]*Log
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("har: decode: %w", err)
	}
	l, ok := doc["log"]
	if !ok || l == nil {
		return nil, fmt.Errorf("har: missing log object")
	}
	if l.Version == "" {
		return nil, fmt.Errorf("har: missing version")
	}
	return l, nil
}

func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 301:
		return "Moved Permanently"
	case 302:
		return "Found"
	case 404:
		return "Not Found"
	case 500:
		return "Internal Server Error"
	default:
		return ""
	}
}
