package jsengine

import (
	"strings"
	"testing"
)

// These tests exercise the dialect's corners: operators, conversions,
// escapes, host-object behaviours, and the defensive paths malware text
// routinely hits.

func TestCommentsSkipped(t *testing.T) {
	tr := mustTrace(t, `
// line comment with <iframe> text that must not matter
/* block comment
   spanning lines */
document.write("after"); // trailing
/* unterminated block comment swallows the rest
document.write("never");
`)
	if len(tr.Writes) != 1 || tr.Writes[0] != "after" {
		t.Fatalf("writes = %v", tr.Writes)
	}
}

func TestStringEscapes(t *testing.T) {
	tr := mustTrace(t, `document.write("a\tb\nc\x41B\q");`)
	want := "a\tb\nc" + "AB" + "q"
	if tr.Writes[0] != want {
		t.Fatalf("write = %q, want %q", tr.Writes[0], want)
	}
}

func TestBadHexEscapesDegrade(t *testing.T) {
	// \xZZ and \uZZZZ with bad digits degrade to the letter, not a crash.
	tr := mustTrace(t, `document.write("\xZZ\uQQQQ");`)
	if !strings.Contains(tr.Writes[0], "x") || !strings.Contains(tr.Writes[0], "u") {
		t.Fatalf("write = %q", tr.Writes[0])
	}
}

func TestHexNumbers(t *testing.T) {
	tr := mustTrace(t, `document.write(0x10 + 1);`)
	if tr.Writes[0] != "17" {
		t.Fatalf("write = %q", tr.Writes[0])
	}
}

func TestCompoundAssignment(t *testing.T) {
	tr := mustTrace(t, `
var s = "http://";
s += "evil.example";
var n = 10;
n -= 3;
var o = document.getElementById("x");
o.count = 1;
o.count += 4;
document.write(s);
document.write(n);
document.write(o.count);
`)
	if tr.Writes[0] != "http://evil.example" || tr.Writes[1] != "7" || tr.Writes[2] != "5" {
		t.Fatalf("writes = %v", tr.Writes)
	}
}

func TestTypeof(t *testing.T) {
	tr := mustTrace(t, `
document.write(typeof "s");
document.write(typeof 1);
document.write(typeof true);
document.write(typeof undefined);
document.write(typeof document);
document.write(typeof unescape);
`)
	want := []string{"string", "number", "boolean", "undefined", "object", "function"}
	for i, w := range want {
		if tr.Writes[i] != w {
			t.Fatalf("typeof write[%d] = %q, want %q", i, tr.Writes[i], w)
		}
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	tr := mustTrace(t, `
if (2 < 3 && 3 <= 3 && 4 > 1 && 4 >= 4) { document.write("rel"); }
if ("a" == "a" && "a" !== "b") { document.write("eq"); }
if (1 == "1") { document.write("loose"); }
if (!false || neverEvaluated()) { document.write("or"); }
var x = 0 && document.write("skipped");
document.write(5 % 3);
document.write(7 / 2);
document.write(2 * 3 - 1);
`)
	want := []string{"rel", "eq", "loose", "or", "2", "3.5", "5"}
	if len(tr.Writes) != len(want) {
		t.Fatalf("writes = %v", tr.Writes)
	}
	for i := range want {
		if tr.Writes[i] != want[i] {
			t.Fatalf("write[%d] = %q, want %q", i, tr.Writes[i], want[i])
		}
	}
}

func TestElseIfChain(t *testing.T) {
	tr := mustTrace(t, `
var n = 2;
if (n == 1) { document.write("one"); }
else if (n == 2) { document.write("two"); }
else { document.write("many"); }
`)
	if len(tr.Writes) != 1 || tr.Writes[0] != "two" {
		t.Fatalf("writes = %v", tr.Writes)
	}
}

func TestBareBlockAndSingleStatementIf(t *testing.T) {
	tr := mustTrace(t, `
{ document.write("block"); }
if (true) document.write("single");
`)
	if len(tr.Writes) != 2 {
		t.Fatalf("writes = %v", tr.Writes)
	}
}

func TestArrayIndexAssignment(t *testing.T) {
	tr := mustTrace(t, `
var a = [1, 2];
a[1] = 9;
a[4] = 5;
document.write(a[1]);
document.write(a.length);
document.write(a);
`)
	if tr.Writes[0] != "9" || tr.Writes[1] != "5" {
		t.Fatalf("writes = %v", tr.Writes)
	}
	if !strings.HasPrefix(tr.Writes[2], "1,9,") {
		t.Fatalf("array toString = %q", tr.Writes[2])
	}
}

func TestObjectIndexing(t *testing.T) {
	tr := mustTrace(t, `
var el = document.createElement("div");
el["data"] = "v";
document.write(el["data"]);
document.write(el.tagName);
`)
	if tr.Writes[0] != "v" || tr.Writes[1] != "DIV" {
		t.Fatalf("writes = %v", tr.Writes)
	}
}

func TestStringIndexingAndMethods(t *testing.T) {
	tr := mustTrace(t, `
var s = "abcdef";
document.write(s[2]);
document.write(s.charCodeAt(0));
document.write(s.substr(1, 3));
document.write(s.slice(2, 4));
document.write(s.length);
`)
	want := []string{"c", "97", "bcd", "cd", "6"}
	for i, w := range want {
		if tr.Writes[i] != w {
			t.Fatalf("write[%d] = %q, want %q", i, tr.Writes[i], w)
		}
	}
}

func TestStringMethodOutOfRange(t *testing.T) {
	tr := mustTrace(t, `
var s = "ab";
document.write(s.charAt(99));
document.write(s[99]);
document.write(s.substring(5, 99));
`)
	if tr.Writes[0] != "" || tr.Writes[1] != "undefined" || tr.Writes[2] != "" {
		t.Fatalf("writes = %v", tr.Writes)
	}
}

func TestParseIntBases(t *testing.T) {
	tr := mustTrace(t, `
document.write(parseInt("42"));
document.write(parseInt("42abc"));
document.write(parseInt("ff", 16));
document.write(parseInt("abc"));
`)
	if tr.Writes[0] != "42" || tr.Writes[1] != "42" || tr.Writes[2] != "255" || tr.Writes[3] != "NaN" {
		t.Fatalf("writes = %v", tr.Writes)
	}
}

func TestMathBuiltins(t *testing.T) {
	tr := mustTrace(t, `
document.write(Math.floor(3.9));
document.write(Math.abs(0 - 5));
document.write(Math.random());
`)
	if tr.Writes[0] != "3" || tr.Writes[1] != "5" || tr.Writes[2] != "0.5" {
		t.Fatalf("writes = %v", tr.Writes)
	}
}

func TestNewDateFixedClock(t *testing.T) {
	tr := mustTrace(t, `
var d = new Date();
document.write(d.getTime());
`)
	if tr.Writes[0] != "1450000000000" {
		t.Fatalf("sandbox clock = %q", tr.Writes[0])
	}
}

func TestEscapeUnescapeRoundTrip(t *testing.T) {
	tr := mustTrace(t, `
var enc = escape("a b<>&");
document.write(enc);
document.write(unescape(enc));
document.write(encodeURIComponent("x/y"));
document.write(decodeURIComponent("x%2Fy"));
`)
	if tr.Writes[1] != "a b<>&" {
		t.Fatalf("round trip = %q", tr.Writes[1])
	}
	if tr.Writes[3] != "x/y" {
		t.Fatalf("decodeURIComponent = %q", tr.Writes[3])
	}
}

func TestForgivingUnescape(t *testing.T) {
	// Stray % sequences must decode what they can and pass junk through.
	if got := forgivingUnescape("%41%4"); got != "A%4" {
		t.Fatalf("forgivingUnescape = %q", got)
	}
	if got := forgivingUnescape("%zz"); got != "%zz" {
		t.Fatalf("forgivingUnescape = %q", got)
	}
	tr := mustTrace(t, `document.write(unescape("%41%%42"));`)
	if !strings.Contains(tr.Writes[0], "A") {
		t.Fatalf("unescape with junk = %q", tr.Writes[0])
	}
}

func TestBtoaAtob(t *testing.T) {
	tr := mustTrace(t, `
document.write(btoa("hi"));
document.write(atob(btoa("payload")));
document.write(atob("!!!not base64!!!"));
`)
	if tr.Writes[0] != "aGk=" || tr.Writes[1] != "payload" || tr.Writes[2] != "" {
		t.Fatalf("writes = %v", tr.Writes)
	}
}

func TestDocumentCookieAndReferrer(t *testing.T) {
	tr := mustTrace(t, `
document.cookie = "sid=123";
document.write(document.cookie);
document.write(document.referrer);
`)
	if tr.Writes[0] != "sid=123" || tr.Writes[1] != "" {
		t.Fatalf("writes = %v", tr.Writes)
	}
}

func TestLocationReads(t *testing.T) {
	tr := mustTrace(t, `
document.write(location.href);
document.write(window.location.hostname);
`)
	if tr.Writes[0] != "http://sandbox.invalid/" || tr.Writes[1] != "sandbox.invalid" {
		t.Fatalf("writes = %v", tr.Writes)
	}
	if len(tr.Navigations) != 0 {
		t.Fatal("reads recorded as navigations")
	}
}

func TestPropertyWriteOnPrimitiveIgnored(t *testing.T) {
	tr := mustTrace(t, `
var s = "str";
s.prop = 1;
document.write("survived");
`)
	if len(tr.Writes) != 1 {
		t.Fatalf("writes = %v", tr.Writes)
	}
}

func TestMouseHandlerAssignmentRecorded(t *testing.T) {
	tr := mustTrace(t, `
document.onmousemove = function() {};
document.onkeydown = function() {};
`)
	if len(tr.FingerprintReads) != 2 {
		t.Fatalf("fingerprint reads = %v", tr.FingerprintReads)
	}
}

func TestPostfixIncrementTolerated(t *testing.T) {
	tr := mustTrace(t, `
var i = 0;
i++;
document.write("ok");
`)
	if len(tr.Writes) != 1 {
		t.Fatalf("writes = %v", tr.Writes)
	}
}

func TestUnaryMinusAndNot(t *testing.T) {
	tr := mustTrace(t, `
document.write(-5 + 2);
document.write(!0);
document.write(!!"x");
`)
	if tr.Writes[0] != "-3" || tr.Writes[1] != "true" || tr.Writes[2] != "true" {
		t.Fatalf("writes = %v", tr.Writes)
	}
}

func TestGetElementsByTagName(t *testing.T) {
	tr := mustTrace(t, `
var els = document.getElementsByTagName("script");
var first = els[0];
first.style.display = "none";
document.write(els.length);
`)
	if tr.Writes[0] != "1" {
		t.Fatalf("writes = %v", tr.Writes)
	}
}

func TestIIFE(t *testing.T) {
	// The GA loader shape: immediately-invoked function expression with
	// arguments.
	tr := mustTrace(t, `
(function(w, d, tag) {
  d.write("iife:" + tag);
})(window, document, "script");
`)
	if len(tr.Writes) != 1 || tr.Writes[0] != "iife:script" {
		t.Fatalf("writes = %v", tr.Writes)
	}
}

func TestNestedFunctionsAndHoisting(t *testing.T) {
	tr := mustTrace(t, `
document.write(helper());
function helper() {
  function inner() { return "deep"; }
  return inner();
}
`)
	if tr.Writes[0] != "deep" {
		t.Fatalf("writes = %v (function hoisting broken)", tr.Writes)
	}
}

func TestReturnWithoutValue(t *testing.T) {
	tr := mustTrace(t, `
function f(x) {
  if (x) { return; }
  document.write("unreached");
}
f(1);
document.write("after");
`)
	if len(tr.Writes) != 1 || tr.Writes[0] != "after" {
		t.Fatalf("writes = %v", tr.Writes)
	}
}

func TestTopLevelReturnStopsScript(t *testing.T) {
	tr := mustTrace(t, `
document.write("before");
return;
document.write("after");
`)
	// Top-level return ends the program gracefully (common in snippets
	// ripped out of event handlers).
	if len(tr.Writes) != 1 || tr.Writes[0] != "before" {
		t.Fatalf("writes = %v", tr.Writes)
	}
}

func TestToStringOfHostValues(t *testing.T) {
	tr := mustTrace(t, `
document.write(document);
document.write(unescape);
document.write(function() {});
`)
	if tr.Writes[0] != "[object Object]" {
		t.Fatalf("object toString = %q", tr.Writes[0])
	}
	if !strings.Contains(tr.Writes[1], "native code") {
		t.Fatalf("native fn toString = %q", tr.Writes[1])
	}
	if !strings.Contains(tr.Writes[2], "function") {
		t.Fatalf("user fn toString = %q", tr.Writes[2])
	}
}

func TestSelfAndTopAliases(t *testing.T) {
	tr := mustTrace(t, `
self.location.href = "http://a.example/";
top.open("http://b.example/");
`)
	if len(tr.Navigations) != 1 || len(tr.Popups) != 1 {
		t.Fatalf("trace = %+v", tr)
	}
}

func TestEvalOfNonString(t *testing.T) {
	tr := mustTrace(t, `
var v = eval(42);
document.write(v);
`)
	if tr.Writes[0] != "42" {
		t.Fatalf("eval(42) = %q", tr.Writes[0])
	}
	if tr.Evals != 0 {
		t.Fatalf("eval of non-string counted: %d", tr.Evals)
	}
}

func TestEvalOfGarbageIsNonFatal(t *testing.T) {
	tr := mustTrace(t, `
eval("%%% not javascript %%%");
document.write("survived");
`)
	if len(tr.Writes) != 1 {
		t.Fatalf("writes = %v", tr.Writes)
	}
}

func TestVarWithoutInitializer(t *testing.T) {
	tr := mustTrace(t, `
var x;
document.write(x);
x = "set";
document.write(x);
`)
	if tr.Writes[0] != "undefined" || tr.Writes[1] != "set" {
		t.Fatalf("writes = %v", tr.Writes)
	}
}

func TestUndeclaredAssignmentCreatesGlobal(t *testing.T) {
	tr := mustTrace(t, `
function f() { leaked = "global"; }
f();
document.write(leaked);
`)
	if tr.Writes[0] != "global" {
		t.Fatalf("writes = %v", tr.Writes)
	}
}

func TestScanWriteMarkupStopsAtCloseParen(t *testing.T) {
	// The write() call has no markup; markup appears in a LATER string
	// that must not be attributed to the call.
	r := StaticScan(`document.write("plain"); var x = "<iframe src=evil>";`)
	if r.WritesMarkup {
		t.Fatal("markup outside the write call misattributed")
	}
}

func TestLexerTokenString(t *testing.T) {
	toks := lexInto(`x = 1;`, nil)
	if len(toks) == 0 || toks[0].String() == "" {
		t.Fatal("token String() empty")
	}
}

func TestWhileLoop(t *testing.T) {
	tr := mustTrace(t, `
var i = 0;
var s = "";
while (i < 4) {
  s = s + i;
  i = i + 1;
}
document.write(s);
`)
	if tr.Writes[0] != "0123" {
		t.Fatalf("write = %q", tr.Writes[0])
	}
}

func TestForLoopWithIncrement(t *testing.T) {
	tr := mustTrace(t, `
var total = 0;
for (var i = 1; i <= 5; i++) {
  total += i;
}
document.write(total);
`)
	if tr.Writes[0] != "15" {
		t.Fatalf("write = %q", tr.Writes[0])
	}
}

func TestBreakAndContinue(t *testing.T) {
	tr := mustTrace(t, `
var s = "";
for (var i = 0; i < 10; i++) {
  if (i == 2) { continue; }
  if (i == 5) { break; }
  s = s + i;
}
document.write(s);
`)
	if tr.Writes[0] != "0134" {
		t.Fatalf("write = %q", tr.Writes[0])
	}
}

func TestPrefixAndPostfixIncrementValues(t *testing.T) {
	tr := mustTrace(t, `
var i = 5;
document.write(i++);
document.write(i);
document.write(++i);
document.write(i--);
document.write(--i);
`)
	want := []string{"5", "6", "7", "7", "5"}
	for k, w := range want {
		if tr.Writes[k] != w {
			t.Fatalf("write[%d] = %q, want %q (all: %v)", k, tr.Writes[k], w, tr.Writes)
		}
	}
}

func TestInfiniteLoopHitsStepLimit(t *testing.T) {
	if _, err := execute(`while (true) { var x = 1; }`); err == nil {
		t.Fatal("infinite loop must hit the step limit")
	}
	if _, err := execute(`for (;;) { }`); err == nil {
		t.Fatal("for(;;) must hit the step limit")
	}
}

func TestLoopDecoderDeobfuscation(t *testing.T) {
	// The classic decode-loop packer: char codes shifted by a key,
	// decoded by a for loop, then eval'd. Static analysis sees only an
	// integer array; the sandbox recovers the payload behaviour.
	payload := `document.write('<iframe src="http://loop-hidden.example/x" width="1" height="1"></iframe>');`
	var codes []string
	for i := 0; i < len(payload); i++ {
		codes = append(codes, itoa(int(payload[i])+7))
	}
	src := `
var d = [` + strings.Join(codes, ",") + `];
var s = "";
for (var i = 0; i < d.length; i++) {
  s = s + String.fromCharCode(d[i] - 7);
}
eval(s);
`
	tr := mustTrace(t, src)
	if len(tr.InjectedIframes()) != 1 {
		t.Fatalf("loop decoder payload not recovered: %+v", tr)
	}
	if !strings.Contains(tr.Writes[0], "loop-hidden.example") {
		t.Fatalf("write = %q", tr.Writes[0])
	}
}

func TestWhileWithBreakOnly(t *testing.T) {
	tr := mustTrace(t, `
var n = 0;
while (true) {
  n++;
  if (n >= 3) { break; }
}
document.write(n);
`)
	if tr.Writes[0] != "3" {
		t.Fatalf("write = %q", tr.Writes[0])
	}
}

func TestNestedLoops(t *testing.T) {
	tr := mustTrace(t, `
var s = "";
for (var i = 0; i < 2; i++) {
  for (var j = 0; j < 2; j++) {
    if (j == 1 && i == 0) { continue; }
    s = s + i + j;
  }
}
document.write(s);
`)
	if tr.Writes[0] != "001011" {
		t.Fatalf("write = %q", tr.Writes[0])
	}
}

func TestObjectLiteral(t *testing.T) {
	tr := mustTrace(t, `
var cfg = {host: "evil.example", port: 8080, "quoted-key": true};
document.write(cfg.host);
document.write(cfg["port"]);
document.write(cfg["quoted-key"]);
`)
	if tr.Writes[0] != "evil.example" || tr.Writes[1] != "8080" || tr.Writes[2] != "true" {
		t.Fatalf("writes = %v", tr.Writes)
	}
}

func TestNestedObjectLiteral(t *testing.T) {
	tr := mustTrace(t, `
var o = {inner: {url: "http://x.example/"}, list: [1, 2]};
window.open(o.inner.url);
document.write(o.list[1]);
`)
	if len(tr.Popups) != 1 || tr.Popups[0] != "http://x.example/" {
		t.Fatalf("popups = %v", tr.Popups)
	}
	if tr.Writes[0] != "2" {
		t.Fatalf("writes = %v", tr.Writes)
	}
}

func TestTryCatchRecovers(t *testing.T) {
	// Malware routinely wraps exploits in try/catch so one failed vector
	// does not kill the rest of the payload.
	tr := mustTrace(t, `
try {
  someUndefinedApi.method.deep();
  document.write("unreached");
} catch (e) {
  document.write("caught");
}
document.write("after");
`)
	// Calling a property of undefined is a no-op in our forgiving model,
	// so nothing throws here — the body completes and the catch never
	// runs.
	if len(tr.Writes) != 2 || tr.Writes[0] != "unreached" || tr.Writes[1] != "after" {
		t.Fatalf("writes = %v", tr.Writes)
	}
}

func TestTryCatchOnRealParseError(t *testing.T) {
	// eval of garbage does not throw in our model; but a thrown-ish error
	// from a bad assignment target inside eval is non-fatal. Verify the
	// catch handler binds an error string when the body errors.
	tr := mustTrace(t, `
function boom() { return boom(); }
try {
  document.write("start");
} catch (e) {
  document.write("never:" + e);
}
document.write("done");
`)
	if len(tr.Writes) != 2 || tr.Writes[1] != "done" {
		t.Fatalf("writes = %v", tr.Writes)
	}
}

func TestTryFinallyFolded(t *testing.T) {
	tr := mustTrace(t, `
try {
  document.write("body");
} finally {
  document.write("finally");
}
`)
	if len(tr.Writes) != 2 || tr.Writes[1] != "finally" {
		t.Fatalf("writes = %v", tr.Writes)
	}
}

func TestStepLimitNotCatchable(t *testing.T) {
	// A recursion bomb inside try/catch must still abort the script: VM
	// resource limits are not script-visible exceptions.
	_, err := execute(`
function f() { return f(); }
try { f(); } catch (e) { }
document.write("unreachable");
`)
	if err == nil {
		t.Fatal("step limit swallowed by catch")
	}
}

func TestGALoaderWithObjectConfig(t *testing.T) {
	// A fuller analytics-style snippet now parses end to end.
	tr := mustTrace(t, `
var _gaq = {account: "UA-54970982-1", sampleRate: 100};
(function(w, d) {
  try {
    w.ga = function() {};
    ga("create", _gaq.account, "auto");
  } catch (err) { }
})(window, document);
document.write(_gaq.account);
`)
	if len(tr.Writes) != 1 || tr.Writes[0] != "UA-54970982-1" {
		t.Fatalf("writes = %v", tr.Writes)
	}
}
