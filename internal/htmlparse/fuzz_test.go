package htmlparse

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

// FuzzTokenize drives the tokenizer/DOM builder and every accessor the
// scanner stack leans on over arbitrary markup. The parser's contract is
// total: any input yields a document without panicking, and the accessors
// stay within the parsed element set.
func FuzzTokenize(f *testing.F) {
	for _, s := range tokenizeSeeds {
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
			el.InlineScript()
			el.ScriptSrc()
			el.Link()
		}
		doc.First("title")
		doc.MetaRefresh()
	})
}

// tokenizeSeeds covers the markup shapes the scanner stack reads.
var tokenizeSeeds = []string{
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

// FuzzParseReuse checks that a reused document cannot be told from a
// fresh one: parsing a into a pooled document and then b into it must
// give exactly what Parse(b) gives. The corpus pairs the tokenizer seeds
// with each other and with strings from TestParseNeverPanicsProperty's
// quick-check domain.
func FuzzParseReuse(f *testing.F) {
	seeds := append([]string(nil), tokenizeSeeds...)
	rnd := testutil.Rand(f)
	for range 16 {
		v, ok := quick.Value(reflect.TypeOf(""), rnd)
		if !ok {
			f.Fatal("quick.Value cannot generate a string")
		}
		seeds = append(seeds, v.String())
	}
	for i, a := range seeds {
		f.Add(a, seeds[(i+1)%len(seeds)])
		f.Add(a, "")
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		want := Parse(b)
		doc := Borrow(a)
		doc.Reset(b)
		defer Release(doc)
		if doc.Raw != want.Raw || len(doc.Elements) != len(want.Elements) {
			t.Fatalf("reused parse of %q after %q: %d elements, fresh parse %d", b, a, len(doc.Elements), len(want.Elements))
		}
		for i := range want.Elements {
			if !reflect.DeepEqual(doc.Elements[i], want.Elements[i]) {
				t.Fatalf("reused parse of %q after %q: element %d = %+v, fresh parse %+v", b, a, i, doc.Elements[i], want.Elements[i])
			}
		}
	})
}
