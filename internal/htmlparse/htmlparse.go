// Package htmlparse implements a small HTML tokenizer and element extractor
// sufficient for the artifacts this study inspects: iframe elements and
// their geometry/visibility attributes, script elements (external src and
// inline bodies), anchors, meta-refresh redirects, and object/embed tags
// referencing Flash content.
//
// It is deliberately not a full HTML5 tree builder — the heuristic scanner
// (the Quttera analog) only needs flat element extraction with attributes
// and inline script bodies, which is also how the real tools' static
// passes work on malformed malware pages that no spec-compliant parser
// would accept anyway. The tokenizer is forgiving: unclosed tags, stray
// '<', bad quoting, and comments all degrade gracefully instead of
// erroring.
package htmlparse

import (
	"strings"
	"sync"
)

// Element is one parsed HTML element.
type Element struct {
	// Tag is the lowercased tag name ("iframe", "script", ...).
	Tag string
	// Attrs lists the element's attributes in source order, with
	// lowercased names and unquoted values; valueless attributes have
	// value "". A repeated name appears once, holding its last value. The
	// slice is nil for attribute-less elements and shares one backing
	// array with every other element of the document.
	Attrs []Attr
	// Text is the raw text between an element's open and close tag. It is
	// only populated for HTML raw-text elements, whose content is not
	// markup: script, style, title, textarea.
	Text string
	// SelfClosing records a trailing "/>".
	SelfClosing bool
	// Offset is the byte offset of the '<' that opened the element.
	Offset int
}

// Attr is one attribute of an Element.
type Attr struct {
	Name, Value string
}

// Attr returns the value of the named attribute (lowercase) and whether it
// was present.
func (e *Element) Attr(name string) (string, bool) {
	for _, a := range e.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// Get returns the value of the named attribute (lowercase), or "" when it
// is absent.
func (e *Element) Get(name string) string {
	v, _ := e.Attr(name)
	return v
}

// Document is the flat parse of an HTML page.
type Document struct {
	// Elements lists every parsed element in document order.
	Elements []Element
	// Raw is the input.
	Raw string
	// attrs is the attribute slab every element's Attrs slices. Reset
	// reuses it, and the element slice, across parses.
	attrs []Attr
}

// bodyTags are raw-text tags whose inner content is captured verbatim and
// never re-parsed as markup. Capturing bodies of nestable containers (div,
// a, ...) would swallow their children, so only true raw-text elements are
// listed.
var bodyTags = map[string]bool{
	"script": true, "style": true, "title": true, "textarea": true,
}

// Parse tokenizes src into a flat Document. It never fails: arbitrarily
// broken markup yields a best-effort element list.
//
// Besides the Document, Parse allocates its element slice once, sized to
// the number of '<' followed by a tag-name byte (every element starts at
// one), and one attribute slab that every element's Attrs slices.
func Parse(src string) *Document {
	d := new(Document)
	d.Reset(src)
	return d
}

// Reset parses src into d, replacing what d held. It is Parse on a
// document that already owns an element slice and an attribute slab:
// both are reused, and grow only when src needs more room than an
// earlier parse left. Every Element and every Attrs slice of the earlier
// parse is overwritten, so a caller that reuses a document must not keep
// them across a Reset.
func (d *Document) Reset(src string) {
	d.Raw = src
	d.Elements = d.Elements[:0]
	attrs := d.attrs[:0]
	limit := maxElements(src)
	if limit > cap(d.Elements) {
		d.Elements = make([]Element, 0, limit)
	}
	// Most elements carry at most one attribute; the slab grows past that
	// only on attribute-heavy markup.
	if limit > cap(attrs) {
		attrs = make([]Attr, 0, limit)
	}
	i := 0
	n := len(src)
	for i < n {
		lt := strings.IndexByte(src[i:], '<')
		if lt < 0 {
			break
		}
		pos := i + lt
		rest := src[pos:]
		switch {
		case strings.HasPrefix(rest, "<!--"):
			end := strings.Index(rest[4:], "-->")
			if end < 0 {
				i = n
				continue
			}
			i = pos + 4 + end + 3
		case strings.HasPrefix(rest, "<!") || strings.HasPrefix(rest, "<?"):
			end := strings.IndexByte(rest, '>')
			if end < 0 {
				i = n
				continue
			}
			i = pos + end + 1
		case strings.HasPrefix(rest, "</"):
			end := strings.IndexByte(rest, '>')
			if end < 0 {
				i = n
				continue
			}
			i = pos + end + 1
		default:
			el, next, ok := parseTag(src, pos, &attrs)
			if !ok {
				i = pos + 1
				continue
			}
			i = next
			if bodyTags[el.Tag] && !el.SelfClosing {
				body, after := captureBody(src, i, el.Tag)
				el.Text = body
				i = after
			}
			d.Elements = append(d.Elements, el)
		}
	}
	// The slab may have moved as it grew: point every element's run of
	// attributes, which follow each other in document order, at the final
	// array, capped so an append through one element cannot reach the next.
	off := 0
	for k := range d.Elements {
		el := &d.Elements[k]
		if m := len(el.Attrs); m > 0 {
			el.Attrs = attrs[off : off+m : off+m]
			off += m
		}
	}
	d.attrs = attrs
}

// docPool recycles Documents for callers that parse a page, read it and
// drop it before they return: the scanner's passes over a body and its
// script-written fragments, the fold's title lookup, the meta-refresh
// extractor.
var docPool = sync.Pool{New: func() any { return new(Document) }}

// maxPooledElements bounds the element slice a released Document may
// carry back into the pool, so one huge page does not stay resident.
const maxPooledElements = 1 << 12

// Borrow parses src into a pooled Document. The caller hands it back with
// Release before it returns, and keeps no Element or Attrs slice of it;
// strings read from it are substrings of src and stay valid.
func Borrow(src string) *Document {
	d := docPool.Get().(*Document)
	d.Reset(src)
	return d
}

// Release returns a Borrowed Document to the pool. It clears every
// element and attribute slot, including those an earlier, larger Reset
// left past the current length, so the pool never pins a parsed page.
func Release(d *Document) {
	clear(d.Elements[:cap(d.Elements)])
	clear(d.attrs[:cap(d.attrs)])
	d.Raw = ""
	if cap(d.Elements) > maxPooledElements {
		return
	}
	docPool.Put(d)
}

// maxElements bounds the number of elements Parse can find in src: one
// per '<' followed by a tag-name byte.
func maxElements(src string) int {
	n := 0
	for i := 0; ; {
		lt := strings.IndexByte(src[i:], '<')
		if lt < 0 {
			return n
		}
		i += lt + 1
		if i < len(src) && isNameByte(src[i]) {
			n++
		}
	}
}

// parseTag parses an opening tag starting at src[pos] == '<'. It returns
// the element, the offset just past '>', and whether a valid tag was found.
// The element's attributes are appended to *attrs, and el.Attrs slices
// them there; Reset re-points it once the slab stops growing.
func parseTag(src string, pos int, attrs *[]Attr) (Element, int, bool) {
	i := pos + 1
	n := len(src)
	start := i
	for i < n && isNameByte(src[i]) {
		i++
	}
	if i == start {
		return Element{}, 0, false
	}
	el := Element{
		Tag:    strings.ToLower(src[start:i]),
		Offset: pos,
	}
	first := len(*attrs)
	setAttr := func(name, val string) {
		own := (*attrs)[first:]
		for k := range own {
			if own[k].Name == name {
				own[k].Value = val
				return
			}
		}
		*attrs = append(*attrs, Attr{name, val})
		el.Attrs = (*attrs)[first:]
	}
	for i < n {
		// Skip whitespace.
		for i < n && isSpace(src[i]) {
			i++
		}
		if i >= n {
			return el, n, true
		}
		if src[i] == '>' {
			return el, i + 1, true
		}
		if src[i] == '/' {
			el.SelfClosing = true
			i++
			continue
		}
		// Attribute name.
		nameStart := i
		for i < n && src[i] != '=' && src[i] != '>' && src[i] != '/' && !isSpace(src[i]) {
			i++
		}
		name := strings.ToLower(src[nameStart:i])
		if name == "" {
			i++
			continue
		}
		// Skip whitespace before '='.
		for i < n && isSpace(src[i]) {
			i++
		}
		if i < n && src[i] == '=' {
			i++
			for i < n && isSpace(src[i]) {
				i++
			}
			val, next := parseAttrValue(src, i)
			setAttr(name, val)
			i = next
		} else {
			setAttr(name, "")
		}
	}
	return el, n, true
}

func parseAttrValue(src string, i int) (string, int) {
	n := len(src)
	if i >= n {
		return "", n
	}
	switch src[i] {
	case '"', '\'':
		quote := src[i]
		i++
		end := strings.IndexByte(src[i:], quote)
		if end < 0 {
			return src[i:], n
		}
		return src[i : i+end], i + end + 1
	default:
		start := i
		for i < n && !isSpace(src[i]) && src[i] != '>' {
			i++
		}
		return src[start:i], i
	}
}

// captureBody returns the raw text until the matching close tag (case
// insensitive), and the offset just past the close tag. A missing close
// tag captures to end of input.
func captureBody(src string, i int, tag string) (string, int) {
	close1 := "</" + tag + ">"
	idx := asciiIndexFold(src[i:], close1)
	if idx < 0 {
		// Tolerate "</tag " with attributes or whitespace before '>'.
		alt := "</" + tag
		idx = asciiIndexFold(src[i:], alt)
		if idx < 0 {
			return src[i:], len(src)
		}
		gt := strings.IndexByte(src[i+idx:], '>')
		if gt < 0 {
			return src[i : i+idx], len(src)
		}
		return src[i : i+idx], i + idx + gt + 1
	}
	return src[i : i+idx], i + idx + len(close1)
}

// asciiIndexFold reports the first index of sub in s under ASCII case
// folding. The comparison is byte-wise so returned offsets always index
// s directly — strings.ToLower re-encodes invalid UTF-8 as the
// multi-byte replacement rune and shifts offsets.
func asciiIndexFold(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		j := 0
		for j < len(sub) && foldByte(s[i+j]) == foldByte(sub[j]) {
			j++
		}
		if j == len(sub) {
			return i
		}
	}
	return -1
}

func foldByte(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

func isNameByte(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '-'
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

// First returns the first element with the tag, or nil.
func (d *Document) First(tag string) *Element {
	for i := range d.Elements {
		if d.Elements[i].Tag == tag {
			return &d.Elements[i]
		}
	}
	return nil
}

// InlineScript returns the body of a script element without a src
// attribute, and whether e is one. A blank body does not count.
func (e *Element) InlineScript() (string, bool) {
	if e.Tag != "script" {
		return "", false
	}
	if _, ok := e.Attr("src"); ok || strings.TrimSpace(e.Text) == "" {
		return "", false
	}
	return e.Text, true
}

// ScriptSrc returns the trimmed src attribute of an external script
// element, and whether e is one.
func (e *Element) ScriptSrc() (string, bool) {
	if e.Tag != "script" {
		return "", false
	}
	if src := e.Get("src"); src != "" {
		return strings.TrimSpace(src), true
	}
	return "", false
}

// MetaRefresh returns the target URL of a <meta http-equiv="refresh">
// element, or "" if none. Meta refresh is the final hop of the Figure 4
// redirection chain.
func (d *Document) MetaRefresh() string {
	for i := range d.Elements {
		el := &d.Elements[i]
		if el.Tag != "meta" || !strings.EqualFold(el.Get("http-equiv"), "refresh") {
			continue
		}
		content := el.Get("content")
		// Format: "5; url=http://target/".
		if semi := strings.IndexByte(content, ';'); semi >= 0 {
			rest := strings.TrimSpace(content[semi+1:])
			lower := strings.ToLower(rest)
			if strings.HasPrefix(lower, "url=") {
				return strings.TrimSpace(rest[4:])
			}
		}
	}
	return ""
}

// Link returns the trimmed href attribute of an anchor, and whether e is
// an anchor with a non-empty href.
func (e *Element) Link() (string, bool) {
	if e.Tag != "a" {
		return "", false
	}
	if href := e.Get("href"); href != "" {
		return strings.TrimSpace(href), true
	}
	return "", false
}

// Style is a parsed inline CSS style attribute.
type Style map[string]string

// ParseStyle parses "k: v; k2: v2" inline CSS into a map with lowercase
// keys and trimmed values.
func ParseStyle(s string) Style {
	out := make(Style)
	for _, decl := range strings.Split(s, ";") {
		colon := strings.IndexByte(decl, ':')
		if colon < 0 {
			continue
		}
		k := strings.ToLower(strings.TrimSpace(decl[:colon]))
		v := strings.TrimSpace(decl[colon+1:])
		if k != "" && v != "" {
			out[k] = v
		}
	}
	return out
}

// PixelValue parses a CSS/attribute length like "1", "1px", " 24px " into
// integer pixels. It returns (value, true) on success. Percentages and
// other units return false.
func PixelValue(s string) (int, bool) {
	s = strings.TrimSpace(strings.ToLower(s))
	s = strings.TrimSuffix(s, "px")
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, false
	}
	neg := false
	if s[0] == '-' {
		neg = true
		s = s[1:]
	}
	v := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int(c-'0')
		if v > 1<<30 {
			return 0, false
		}
	}
	if neg {
		v = -v
	}
	return v, true
}
