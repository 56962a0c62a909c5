// Package pdf implements a miniature PDF reader and writer sufficient for
// the document-malware class the study's heuristic scanner advertises
// coverage of: Quttera "can detect malicious hidden iframe elements,
// malicious re-directs, malvertising, JavaScript exploits, and malformed
// PDFs that are commonly used by attackers" (§III-B).
//
// The format modeled here is the honest core of pre-2016 PDF malware:
// an object graph with a catalog, pages and streams, where attackers
// attach an /OpenAction carrying embedded JavaScript (heap-spray or
// redirect payloads that fire on open) or a /Launch action starting an
// external executable, and deliberately malform the cross-reference
// structure to crash naive parsers while Acrobat's forgiving reader
// still renders. The reader is correspondingly forgiving — it scans the
// object graph even when the xref is broken, which is exactly what a
// malware scanner must do.
package pdf

import (
	"fmt"
	"strconv"
	"strings"
)

// Header and footer markers.
const (
	header = "%PDF-1.4"
	footer = "%%EOF"
)

// Object is one parsed PDF object.
type Object struct {
	// Num is the object number ("N 0 obj").
	Num int
	// Dict holds the object's dictionary entries: keys without the
	// leading slash, values as raw token text (nested dictionaries are
	// flattened into the raw text of the parent value).
	Dict map[string]string
	// Stream is the object's stream content, if any.
	Stream string
}

// Document is a parsed PDF.
type Document struct {
	// Objects maps object number -> object.
	Objects map[int]*Object
	// Malformations lists structural defects found while parsing
	// ("missing-header", "missing-eof", "bad-xref", "duplicate-object",
	// "content-after-eof").
	Malformations []string
	// Raw is the input.
	Raw string
}

// --- writing ---

// Builder composes a document.
type Builder struct {
	objects []*Object
	// openAction references an action object to fire on open.
	openAction int
	// breakXref deliberately corrupts the xref table.
	breakXref bool
	// appendAfterEOF plants content after %%EOF (an appended-payload
	// trick).
	appendAfterEOF string
}

// NewBuilder starts a minimal one-page document (catalog 1, pages 2,
// page 3, contents 4).
func NewBuilder() *Builder {
	b := &Builder{}
	b.objects = []*Object{
		{Num: 1, Dict: map[string]string{"Type": "/Catalog", "Pages": "2 0 R"}},
		{Num: 2, Dict: map[string]string{"Type": "/Pages", "Kids": "[3 0 R]", "Count": "1"}},
		{Num: 3, Dict: map[string]string{"Type": "/Page", "Parent": "2 0 R", "Contents": "4 0 R"}},
		{Num: 4, Dict: map[string]string{"Length": "44"}, Stream: "BT /F1 12 Tf 72 720 Td (Hello) Tj ET"},
	}
	return b
}

// nextNum returns the next free object number.
func (b *Builder) nextNum() int {
	maxN := 0
	for _, o := range b.objects {
		if o.Num > maxN {
			maxN = o.Num
		}
	}
	return maxN + 1
}

// AddJavaScriptAction attaches an /OpenAction running the given
// JavaScript when the document opens — the auto-execution vehicle of the
// era's exploit PDFs.
func (b *Builder) AddJavaScriptAction(js string) *Builder {
	n := b.nextNum()
	b.objects = append(b.objects, &Object{
		Num: n,
		Dict: map[string]string{
			"Type": "/Action", "S": "/JavaScript",
			"JS": "(" + escapePDFString(js) + ")",
		},
	})
	b.openAction = n
	return b
}

// BreakXref corrupts the cross-reference offsets (naive parsers die;
// forgiving readers recover by scanning).
func (b *Builder) BreakXref() *Builder {
	b.breakXref = true
	return b
}

// Encode renders the document bytes.
func (b *Builder) Encode() []byte {
	var sb strings.Builder
	sb.WriteString(header + "\n")
	offsets := make(map[int]int, len(b.objects))
	for _, o := range b.objects {
		offsets[o.Num] = sb.Len()
		fmt.Fprintf(&sb, "%d 0 obj\n<<", o.Num)
		for _, k := range sortedDictKeys(o.Dict) {
			fmt.Fprintf(&sb, " /%s %s", k, o.Dict[k])
		}
		if b.openAction != 0 && o.Num == 1 {
			fmt.Fprintf(&sb, " /OpenAction %d 0 R", b.openAction)
		}
		sb.WriteString(" >>\n")
		if o.Stream != "" {
			sb.WriteString("stream\n")
			sb.WriteString(o.Stream)
			sb.WriteString("\nendstream\n")
		}
		sb.WriteString("endobj\n")
	}
	xrefAt := sb.Len()
	fmt.Fprintf(&sb, "xref\n0 %d\n0000000000 65535 f \n", len(b.objects)+1)
	for _, o := range b.objects {
		off := offsets[o.Num]
		if b.breakXref {
			off = off*3 + 17 // garbage offsets
		}
		fmt.Fprintf(&sb, "%010d 00000 n \n", off)
	}
	fmt.Fprintf(&sb, "trailer\n<< /Size %d /Root 1 0 R >>\nstartxref\n%d\n%s\n",
		len(b.objects)+1, xrefAt, footer)
	if b.appendAfterEOF != "" {
		sb.WriteString(b.appendAfterEOF)
	}
	return []byte(sb.String())
}

func sortedDictKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

func escapePDFString(s string) string {
	s = strings.ReplaceAll(s, "\\", "\\\\")
	s = strings.ReplaceAll(s, "(", "\\(")
	s = strings.ReplaceAll(s, ")", "\\)")
	return s
}

// --- parsing ---

// Parse reads a document, scanning the object graph directly (xref is
// validated but never trusted). It returns a best-effort Document even
// for malformed inputs; only non-PDF input errors.
func Parse(data []byte) (*Document, error) {
	raw := string(data)
	doc := &Document{Objects: make(map[int]*Object), Raw: raw}
	if !strings.HasPrefix(raw, "%PDF-") {
		if !strings.Contains(raw, "%PDF-") {
			return nil, fmt.Errorf("pdf: not a PDF document")
		}
		doc.Malformations = append(doc.Malformations, "missing-header")
	}
	eof := strings.LastIndex(raw, footer)
	if eof < 0 {
		doc.Malformations = append(doc.Malformations, "missing-eof")
	} else if strings.TrimSpace(raw[eof+len(footer):]) != "" {
		doc.Malformations = append(doc.Malformations, "content-after-eof")
	}

	// Scan objects.
	rest := raw
	base := 0
	for {
		objIdx, num := findObjStart(rest)
		if objIdx < 0 {
			break
		}
		bodyStart := objIdx
		end := strings.Index(rest[bodyStart:], "endobj")
		if end < 0 {
			doc.Malformations = append(doc.Malformations, "unterminated-object")
			break
		}
		body := rest[bodyStart : bodyStart+end]
		obj := &Object{Num: num, Dict: parseDict(body)}
		if s := extractStream(body); s != "" {
			obj.Stream = s
		}
		if _, dup := doc.Objects[num]; dup {
			doc.Malformations = append(doc.Malformations, "duplicate-object")
		}
		doc.Objects[num] = obj
		advance := bodyStart + end + len("endobj")
		rest = rest[advance:]
		base += advance
	}

	// Validate xref offsets against actual object positions.
	if strings.Contains(raw, "xref") && xrefBroken(raw) {
		doc.Malformations = append(doc.Malformations, "bad-xref")
	}
	return doc, nil
}

// findObjStart locates the next "N 0 obj" marker, returning the offset
// just past it and the object number.
func findObjStart(s string) (int, int) {
	idx := 0
	for {
		objAt := strings.Index(s[idx:], " 0 obj")
		if objAt < 0 {
			return -1, 0
		}
		objAt += idx
		// Walk back over the digits of N.
		numEnd := objAt
		numStart := numEnd
		for numStart > 0 && s[numStart-1] >= '0' && s[numStart-1] <= '9' {
			numStart--
		}
		if numStart == numEnd {
			idx = objAt + 1
			continue
		}
		n, err := strconv.Atoi(s[numStart:numEnd])
		if err != nil {
			idx = objAt + 1
			continue
		}
		return objAt + len(" 0 obj"), n
	}
}

// parseDict extracts flat key/value pairs from the first << ... >> block.
func parseDict(body string) map[string]string {
	out := make(map[string]string)
	start := strings.Index(body, "<<")
	if start < 0 {
		return out
	}
	depth := 0
	end := -1
	for i := start; i < len(body)-1; i++ {
		switch {
		case body[i] == '<' && body[i+1] == '<':
			depth++
			i++
		case body[i] == '>' && body[i+1] == '>':
			depth--
			i++
			if depth == 0 {
				end = i
			}
		}
		if end >= 0 {
			break
		}
	}
	lo, hi := start+2, end-1
	if end < 0 {
		// Unterminated dict: take everything after "<<".
		hi = len(body)
	}
	if hi < lo {
		hi = lo
	}
	inner := body[lo:hi]
	i := 0
	for i < len(inner) {
		slash := strings.IndexByte(inner[i:], '/')
		if slash < 0 {
			break
		}
		i += slash + 1
		keyEnd := i
		for keyEnd < len(inner) && isNameChar(inner[keyEnd]) {
			keyEnd++
		}
		key := inner[i:keyEnd]
		i = keyEnd
		// Value runs until the next top-level '/name' that starts a key
		// or end of dict. Handle parenthesized strings so slashes inside
		// them do not split.
		val, next := parseValue(inner, i)
		if key != "" {
			out[key] = strings.TrimSpace(val)
		}
		i = next
	}
	return out
}

func isNameChar(c byte) bool {
	return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')
}

// parseValue reads the raw value text following a dictionary key. A
// value may itself be a name (/JavaScript): the leading slash of the
// value must not be mistaken for the next key, so name-valued content is
// consumed before the top-level-slash scan begins.
func parseValue(s string, i int) (string, int) {
	start := i
	// Skip leading whitespace.
	for i < len(s) && (s[i] == ' ' || s[i] == '\n' || s[i] == '\r' || s[i] == '\t') {
		i++
	}
	// A name value: consume "/Name" as part of the value.
	if i < len(s) && s[i] == '/' {
		i++
		for i < len(s) && isNameChar(s[i]) {
			i++
		}
	}
	depthPar, depthBr, depthDict := 0, 0, 0
	for i < len(s) {
		c := s[i]
		switch c {
		case '(':
			if prevIsEscape(s, i) {
				break
			}
			depthPar++
		case ')':
			if prevIsEscape(s, i) {
				break
			}
			if depthPar > 0 {
				depthPar--
			}
		case '[':
			depthBr++
		case ']':
			if depthBr > 0 {
				depthBr--
			}
		case '<':
			if i+1 < len(s) && s[i+1] == '<' {
				depthDict++
				i++
			}
		case '>':
			if i+1 < len(s) && s[i+1] == '>' {
				if depthDict > 0 {
					depthDict--
				}
				i++
			}
		case '/':
			if depthPar == 0 && depthBr == 0 && depthDict == 0 && i > start {
				return s[start:i], i
			}
		}
		i++
	}
	return s[start:], i
}

func prevIsEscape(s string, i int) bool {
	return i > 0 && s[i-1] == '\\'
}

func extractStream(body string) string {
	start := strings.Index(body, "stream")
	if start < 0 {
		return ""
	}
	start += len("stream")
	for start < len(body) && (body[start] == '\r' || body[start] == '\n') {
		start++
	}
	end := strings.Index(body[start:], "endstream")
	if end < 0 {
		return strings.TrimSpace(body[start:])
	}
	return strings.TrimRight(body[start:start+end], "\r\n")
}

// xrefBroken cross-checks the first xref entry offsets against real
// object positions.
func xrefBroken(raw string) bool {
	xrefAt := strings.Index(raw, "xref")
	if xrefAt < 0 {
		return false
	}
	lines := strings.Split(raw[xrefAt:], "\n")
	if len(lines) < 3 {
		// Truncated table: no entries to validate.
		return false
	}
	checked := 0
	for _, line := range lines[2:] { // skip "xref" and the subsection line
		fields := strings.Fields(line)
		if len(fields) < 3 || fields[2] != "n" {
			continue
		}
		off, err := strconv.Atoi(fields[0])
		if err != nil || off < 0 || off >= len(raw) {
			return true
		}
		// A valid in-use entry points at "N 0 obj".
		tail := raw[off:]
		if !looksLikeObjStart(tail) {
			return true
		}
		checked++
		if checked >= 4 {
			break
		}
	}
	return false
}

func looksLikeObjStart(s string) bool {
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	return i > 0 && strings.HasPrefix(s[i:], " 0 obj")
}

// --- inspection ---

// Findings summarizes a document's threat-relevant features.
type Findings struct {
	// OpenActionJS is the JavaScript wired to fire on open ("" if none).
	OpenActionJS string
	// LaunchTarget is the external file a /Launch action starts.
	LaunchTarget string
	// Malformations echoes the parser's structural defects.
	Malformations []string
	// HasJavaScript reports any /JavaScript action, auto-open or not.
	HasJavaScript bool
}

// Malicious applies the scanner heuristic: auto-open JavaScript, a
// Launch action on an executable, or JavaScript combined with deliberate
// malformation.
func (f Findings) Malicious() bool {
	if f.OpenActionJS != "" {
		return true
	}
	if t := strings.ToLower(f.LaunchTarget); strings.HasSuffix(t, ".exe") ||
		strings.HasSuffix(t, ".scr") || strings.HasSuffix(t, ".bat") {
		return true
	}
	return f.HasJavaScript && len(f.Malformations) > 0
}

// Inspect parses and summarizes a document.
func Inspect(data []byte) (Findings, error) {
	doc, err := Parse(data)
	if err != nil {
		return Findings{}, err
	}
	f := Findings{Malformations: doc.Malformations}

	// Resolve the catalog's OpenAction reference.
	openRef := 0
	if cat := doc.catalog(); cat != nil {
		if ref, ok := cat.Dict["OpenAction"]; ok {
			openRef = parseRef(ref)
		}
	}
	for num, obj := range doc.Objects {
		s := obj.Dict["S"]
		switch s {
		case "/JavaScript":
			f.HasJavaScript = true
			js := stripPDFString(obj.Dict["JS"])
			if num == openRef {
				f.OpenActionJS = js
			}
		case "/Launch":
			if num == openRef || openRef == 0 {
				f.LaunchTarget = stripPDFString(obj.Dict["F"])
			}
		}
	}
	return f, nil
}

// catalog returns the /Type /Catalog object, if present.
func (d *Document) catalog() *Object {
	for _, o := range d.Objects {
		if o.Dict["Type"] == "/Catalog" {
			return o
		}
	}
	return nil
}

// parseRef reads "N 0 R" into N.
func parseRef(s string) int {
	fields := strings.Fields(strings.TrimSpace(s))
	if len(fields) < 1 {
		return 0
	}
	n, err := strconv.Atoi(fields[0])
	if err != nil {
		return 0
	}
	return n
}

// stripPDFString unwraps a (…) literal and its escapes.
func stripPDFString(s string) string {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "(") {
		return s
	}
	s = strings.TrimPrefix(s, "(")
	s = strings.TrimSuffix(s, ")")
	s = strings.ReplaceAll(s, "\\(", "(")
	s = strings.ReplaceAll(s, "\\)", ")")
	s = strings.ReplaceAll(s, "\\\\", "\\")
	return s
}
