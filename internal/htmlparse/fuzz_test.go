package htmlparse

import (
	"testing"
)

// FuzzTokenize drives the tokenizer/DOM builder and every accessor the
// scanner stack leans on over arbitrary markup. The parser's contract is
// total: any input yields a document without panicking, and the accessors
// stay within the parsed element set.
func FuzzTokenize(f *testing.F) {
	seeds := []string{
		"",
		"plain text, no markup",
		"<html><head><title>Shop — Business</title></head><body><p>hi</p></body></html>",
		`<iframe src="http://x.sim/t" width="1" height="1" style="visibility:hidden"></iframe>`,
		`<script>document.write('<iframe src=http://p.sim/x>');</script>`,
		`<script src="//cdn.sim/lib.js"></script><a href="/next.pdf">doc</a>`,
		`<meta http-equiv="refresh" content="0; url=http://land.sim/offer">`,
		`<a href="data:text/html,%3Chtml%3E" data-dm-title="Flash Player" class="download_link">install</a>`,
		`<embed src="http://cdn.sim/AdFlash46.swf" type="application/x-shockwave-flash">`,
		"<div><p><span>unclosed nesting",
		"<<>><tag attr=>< iframe >",
		`<iframe style="position:absolute;top:-100px;width: 1px">`,
		"<b\x00roken attr='\xff\xfe'>",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc := Parse(src)
		if doc == nil {
			t.Fatal("Parse returned nil document")
		}
		for i := range doc.Elements {
			el := &doc.Elements[i]
			seen := map[string]bool{}
			for _, a := range el.Attrs {
				if seen[a.Name] {
					t.Fatalf("element %d repeats attribute %q", i, a.Name)
				}
				seen[a.Name] = true
				if v, ok := el.Attr(a.Name); !ok || v != a.Value {
					t.Fatalf("Attr(%q) = %q, %v; want %q", a.Name, v, ok, a.Value)
				}
			}
			ParseStyle(el.Get("style"))
			PixelValue(el.Get("width"))
			PixelValue(el.Get("height"))
			el.Attr("hidden")
		}
		doc.First("title")
		doc.InlineScripts()
		doc.ScriptSrcs()
		doc.MetaRefresh()
		doc.Links()
	})
}
