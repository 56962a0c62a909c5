package htmlparse

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

// byTag returns the elements with the given tag, in document order.
func byTag(doc *Document, tag string) []*Element {
	var out []*Element
	for i := range doc.Elements {
		if doc.Elements[i].Tag == tag {
			out = append(out, &doc.Elements[i])
		}
	}
	return out
}

// collect gathers what one of the Element accessors (InlineScript,
// ScriptSrc, Link) reports over a document, in document order.
func collect(doc *Document, get func(*Element) (string, bool)) []string {
	var out []string
	for i := range doc.Elements {
		if v, ok := get(&doc.Elements[i]); ok {
			out = append(out, v)
		}
	}
	return out
}

func TestParseSimplePage(t *testing.T) {
	doc := Parse(`<html><head><title>Hi</title></head>
<body><p>text</p><a href="http://x.com/a">link</a></body></html>`)
	if el := doc.First("title"); el == nil || el.Text != "Hi" {
		t.Fatalf("title = %+v", el)
	}
	links := collect(doc, (*Element).Link)
	if len(links) != 1 || links[0] != "http://x.com/a" {
		t.Fatalf("links = %v", links)
	}
}

func TestIframeAttributes(t *testing.T) {
	// The paper's Code 1: a barely visible iframe.
	src := `<iframe align="right" height="1" name="cwindow" scrolling="NO"
 src="http://zfiyayeshira.blogspot.com/" style="border:8 solid #990000;" width="1">
</iframe>`
	doc := Parse(src)
	iframes := byTag(doc, "iframe")
	if len(iframes) != 1 {
		t.Fatalf("iframes = %d, want 1", len(iframes))
	}
	f := iframes[0]
	if f.Get("height") != "1" || f.Get("width") != "1" {
		t.Fatalf("geometry attrs = %v", f.Attrs)
	}
	if f.Get("src") != "http://zfiyayeshira.blogspot.com/" {
		t.Fatalf("src = %q", f.Get("src"))
	}
	if f.Get("scrolling") != "NO" {
		t.Fatalf("scrolling = %q (case must be preserved in values)", f.Get("scrolling"))
	}
}

func TestTransparentIframe(t *testing.T) {
	// The paper's Code 2: allowtransparency makes it invisible.
	src := `<iframe src="https://acces.direction-x.com/a.php?t=29"
 width="1" height="1" framespacing="0" frameborder="no" allowtransparency="true"></iframe>`
	doc := Parse(src)
	f := doc.First("iframe")
	if f == nil {
		t.Fatal("no iframe parsed")
	}
	if f.Get("allowtransparency") != "true" {
		t.Fatalf("allowtransparency = %q", f.Get("allowtransparency"))
	}
}

func TestInlineAndExternalScripts(t *testing.T) {
	src := `<script type="text/javascript" src="http://company.ooo/tfjw2pmk.php?id=8689556"></script>
<script>var x = 1; document.write('<iframe src="http://t.qservz.com/ai.aspx">');</script>`
	doc := Parse(src)
	srcs := collect(doc, (*Element).ScriptSrc)
	if len(srcs) != 1 || !strings.Contains(srcs[0], "company.ooo") {
		t.Fatalf("script srcs = %v", srcs)
	}
	inline := collect(doc, (*Element).InlineScript)
	if len(inline) != 1 || !strings.Contains(inline[0], "document.write") {
		t.Fatalf("inline scripts = %v", inline)
	}
}

func TestScriptBodyNotParsedAsHTML(t *testing.T) {
	// The iframe inside document.write must not appear as an element.
	src := `<script>document.write('<iframe src="http://evil/x">')</script><p>after</p>`
	doc := Parse(src)
	if len(byTag(doc, "iframe")) != 0 {
		t.Fatal("iframe inside script body must not be parsed as an element")
	}
	if len(byTag(doc, "p")) != 1 {
		t.Fatal("element after script body lost")
	}
}

func TestMetaRefresh(t *testing.T) {
	doc := Parse(`<meta http-equiv="refresh" content="0; url=http://www.theclickcheck.com?sub=1729235497">`)
	if got := doc.MetaRefresh(); got != "http://www.theclickcheck.com?sub=1729235497" {
		t.Fatalf("MetaRefresh = %q", got)
	}
}

func TestMetaRefreshCaseAndSpacing(t *testing.T) {
	doc := Parse(`<META HTTP-EQUIV='Refresh' CONTENT='5 ;  URL=http://target.example/'>`)
	if got := doc.MetaRefresh(); got != "http://target.example/" {
		t.Fatalf("MetaRefresh = %q", got)
	}
}

func TestMetaRefreshAbsent(t *testing.T) {
	doc := Parse(`<meta charset="utf-8"><meta http-equiv="content-type" content="text/html">`)
	if got := doc.MetaRefresh(); got != "" {
		t.Fatalf("MetaRefresh = %q, want empty", got)
	}
}

func TestCommentsSkipped(t *testing.T) {
	doc := Parse(`<!-- <iframe src="http://evil/"> --><p>ok</p>`)
	if len(byTag(doc, "iframe")) != 0 {
		t.Fatal("commented-out iframe must be ignored")
	}
	if len(byTag(doc, "p")) != 1 {
		t.Fatal("content after comment lost")
	}
}

func TestUnterminatedComment(t *testing.T) {
	doc := Parse(`<p>before</p><!-- unterminated <iframe src="x">`)
	if len(byTag(doc, "p")) != 1 || len(byTag(doc, "iframe")) != 0 {
		t.Fatalf("unterminated comment handling wrong: %+v", doc.Elements)
	}
}

func TestMalformedMarkup(t *testing.T) {
	cases := []string{
		"",
		"<",
		"<<<<",
		"<iframe",
		"<iframe src=",
		`<iframe src="unterminated`,
		"< notatag >",
		"plain text only",
		"<a href='mix\"quotes'>x</a>",
	}
	for _, src := range cases {
		doc := Parse(src) // must not panic
		_ = collect(doc, (*Element).Link)
		_ = doc.MetaRefresh()
	}
}

func TestValuelessAndUnquotedAttrs(t *testing.T) {
	doc := Parse(`<iframe hidden width=1 height=1 src=http://e.com/x></iframe>`)
	f := doc.First("iframe")
	if f == nil {
		t.Fatal("no iframe")
	}
	if _, ok := f.Attr("hidden"); !ok {
		t.Fatal("valueless attr lost")
	}
	if f.Get("width") != "1" || f.Get("src") != "http://e.com/x" {
		t.Fatalf("unquoted attrs = %v", f.Attrs)
	}
}

func TestSelfClosing(t *testing.T) {
	doc := Parse(`<img src="x.png"/><br/>`)
	img := doc.First("img")
	if img == nil || !img.SelfClosing {
		t.Fatalf("img = %+v", img)
	}
}

func TestDeceptiveDownloadSnippet(t *testing.T) {
	// Shape of the paper's Code 4: div with data-dm attributes and anchor
	// with a data: URL href.
	src := `<div id="dm_topbar">
<a href="data:text/html,%3Chtml%3E" data-dm-title="Flash Player" data-dm-filesize="1.1"
 target="_blank" data-dm-href="http://yupfiles.net/downloader?id=7b22" class="download_link">
<div id="dm_topbar_block">
<span id="dm_topbar_text">A pagina necessita do plugin para continuar.</span>
</div></a></div>`
	doc := Parse(src)
	var anchor *Element
	for i := range doc.Elements {
		if doc.Elements[i].Tag == "a" {
			anchor = &doc.Elements[i]
			break
		}
	}
	if anchor == nil {
		t.Fatal("anchor not parsed")
	}
	if anchor.Get("data-dm-title") != "Flash Player" {
		t.Fatalf("data-dm-title = %q", anchor.Get("data-dm-title"))
	}
	if !strings.HasPrefix(anchor.Get("href"), "data:text/html") {
		t.Fatalf("href = %q", anchor.Get("href"))
	}
}

func TestParseStyle(t *testing.T) {
	st := ParseStyle("width: 1px; height: 1px; position: absolute; top: -100px;")
	if st["width"] != "1px" || st["top"] != "-100px" {
		t.Fatalf("style = %v", st)
	}
	if len(ParseStyle("")) != 0 {
		t.Fatal("empty style should parse to empty map")
	}
	if len(ParseStyle("no-colon-here")) != 0 {
		t.Fatal("declaration without colon should be dropped")
	}
}

func TestPixelValue(t *testing.T) {
	cases := []struct {
		in   string
		want int
		ok   bool
	}{
		{"1", 1, true},
		{"1px", 1, true},
		{" 24PX ", 24, true},
		{"-100px", -100, true},
		{"0", 0, true},
		{"100%", 0, false},
		{"", 0, false},
		{"px", 0, false},
		{"12abc", 0, false},
	}
	for _, tc := range cases {
		got, ok := PixelValue(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Errorf("PixelValue(%q) = (%d, %v), want (%d, %v)", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

func TestParseNeverPanicsProperty(t *testing.T) {
	f := func(junk string) bool {
		doc := Parse(junk)
		for _, el := range doc.Elements {
			if el.Tag == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, testutil.QuickConfig(t, 500)); err != nil {
		t.Fatal(err)
	}
}

func TestOffsetsAreIncreasing(t *testing.T) {
	doc := Parse(`<div><p>a</p><p>b</p><iframe src="x"></iframe></div>`)
	prev := -1
	for _, el := range doc.Elements {
		if el.Offset <= prev {
			t.Fatalf("offsets not strictly increasing: %+v", doc.Elements)
		}
		prev = el.Offset
	}
}

func BenchmarkParsePage(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 50; i++ {
		sb.WriteString(`<div class="row"><a href="http://example.com/p">x</a>`)
		sb.WriteString(`<script>var a = 1; track(a);</script>`)
		sb.WriteString(`<iframe width="1" height="1" src="http://t.example/i"></iframe></div>`)
	}
	page := sb.String()
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Parse(page)
	}
}

// A released document keeps no string of any page it parsed, even of one
// a later, smaller Reset no longer reaches, so the pool pins no page.
func TestReleaseClearsEverySlot(t *testing.T) {
	doc := Borrow(strings.Repeat(`<a href="http://big.example/" class="x">big</a>`, 40))
	doc.Reset(`<p id="small">`)
	Release(doc)
	if doc.Raw != "" {
		t.Fatalf("Raw = %q after Release", doc.Raw)
	}
	for i, el := range doc.Elements[:cap(doc.Elements)] {
		if el.Tag != "" || el.Text != "" || el.Attrs != nil {
			t.Fatalf("element slot %d = %+v after Release", i, el)
		}
	}
	for i, a := range doc.attrs[:cap(doc.attrs)] {
		if a != (Attr{}) {
			t.Fatalf("attribute slot %d = %+v after Release", i, a)
		}
	}
}
