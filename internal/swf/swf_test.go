package swf

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

// buildAdFlash assembles the §V-D AdFlash46-style malicious movie: an
// invisible full-page click catcher whose mouse-up handler makes
// ExternalInterface calls into obfuscated JS.
func buildAdFlash(obfKey byte) []byte {
	sb := NewScript().Obfuscate(obfKey)
	handler := sb.NewSegment()
	sb.AllowDomain(0, "*")
	sb.SetScaleMode(0, "EXACT_FIT")
	sb.Listen(0, "mouseUp", handler)
	sb.ExternalCall(handler, "AdFlash.onClick")
	sb.DisplayState(handler, "fullScreen")
	sb.ExternalCall(handler, "window.NqPnfu")
	sb.DisplayState(handler, "normal")

	return NewBuilder(800, 600).
		Meta("name", "AdFlash46").
		AddClickArea(ClickArea{X: 0, Y: 0, W: 800, H: 600, Alpha: 0}).
		Script(sb).
		Encode()
}

// buildBenignMovie assembles an ordinary animation with no script.
func buildBenignMovie() []byte {
	return NewBuilder(468, 60).
		Meta("name", "banner").
		AddShape().AddShape().AddShape().
		Encode()
}

func TestRoundTrip(t *testing.T) {
	data := buildAdFlash(0x5a)
	m, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if m.Width != 800 || m.Height != 600 {
		t.Fatalf("stage = %dx%d", m.Width, m.Height)
	}
	if m.Metadata["name"] != "AdFlash46" {
		t.Fatalf("metadata = %v", m.Metadata)
	}
	if len(m.Clicks) != 1 || m.Clicks[0].Alpha != 0 {
		t.Fatalf("clicks = %+v", m.Clicks)
	}
	if m.Script == nil || !m.Script.Obfuscated {
		t.Fatal("script missing or not marked obfuscated")
	}
	// The decoded pool must be deobfuscated.
	joined := strings.Join(m.Script.Pool, " ")
	if !strings.Contains(joined, "AdFlash.onClick") {
		t.Fatalf("pool not decoded: %v", m.Script.Pool)
	}
}

func TestObfuscatedPoolIsUnreadableRaw(t *testing.T) {
	clear := buildAdFlash(0)
	obf := buildAdFlash(0x77)
	if !strings.Contains(string(clear), "AdFlash.onClick") {
		t.Fatal("plaintext pool should be grep-able in the raw file")
	}
	if strings.Contains(string(obf), "AdFlash.onClick") {
		t.Fatal("obfuscated pool must not be grep-able in the raw file")
	}
}

func TestVMBehaviourTrace(t *testing.T) {
	_, beh, _, err := Inspect(buildAdFlash(0x5a))
	if err != nil {
		t.Fatalf("Inspect: %v", err)
	}
	if len(beh.AllowedDomains) != 1 || beh.AllowedDomains[0] != "*" {
		t.Fatalf("allowDomain = %v", beh.AllowedDomains)
	}
	if len(beh.ExternalCalls) != 2 {
		t.Fatalf("external calls = %v", beh.ExternalCalls)
	}
	if beh.ExternalCalls[0] != "AdFlash.onClick" || beh.ExternalCalls[1] != "window.NqPnfu" {
		t.Fatalf("external calls = %v", beh.ExternalCalls)
	}
	if len(beh.DisplayStates) != 2 || beh.DisplayStates[0] != "fullScreen" {
		t.Fatalf("display states = %v", beh.DisplayStates)
	}
	if len(beh.Listens) != 1 || beh.Listens[0] != "mouseUp" {
		t.Fatalf("listens = %v", beh.Listens)
	}
}

func TestSuspicionVerdicts(t *testing.T) {
	_, _, susp, err := Inspect(buildAdFlash(0x5a))
	if err != nil {
		t.Fatal(err)
	}
	if !susp.InvisibleClickCatcher || !susp.PromiscuousDomain || !susp.ObfuscatedPool {
		t.Fatalf("suspicion = %+v", susp)
	}
	if !susp.Malicious() {
		t.Fatal("AdFlash movie must be flagged malicious")
	}

	_, _, benign, err := Inspect(buildBenignMovie())
	if err != nil {
		t.Fatal(err)
	}
	if benign.Malicious() {
		t.Fatalf("benign movie flagged malicious: %+v", benign)
	}
}

func TestVisibleClickAreaNotInvisibleCatcher(t *testing.T) {
	// A visible, partial-page button (a legit play button) must not trip
	// the invisible-catcher heuristic.
	sb := NewScript()
	h := sb.NewSegment()
	sb.Listen(0, "mouseUp", h)
	sb.Navigate(h, "http://video.example/play")
	data := NewBuilder(800, 600).
		AddClickArea(ClickArea{X: 350, Y: 250, W: 100, H: 100, Alpha: 255}).
		Script(sb).
		Encode()
	_, _, susp, err := Inspect(data)
	if err != nil {
		t.Fatal(err)
	}
	if susp.InvisibleClickCatcher {
		t.Fatal("visible button misflagged as invisible catcher")
	}
	if susp.Malicious() {
		t.Fatalf("benign navigation flagged malicious: %+v", susp)
	}
}

func TestInvisibleCatcherWithNavigationIsMalicious(t *testing.T) {
	sb := NewScript()
	h := sb.NewSegment()
	sb.Listen(0, "mouseDown", h)
	sb.Navigate(h, "http://landing.example/offer")
	data := NewBuilder(640, 480).
		AddClickArea(ClickArea{X: 0, Y: 0, W: 640, H: 480, Alpha: 3}).
		Script(sb).
		Encode()
	_, beh, susp, err := Inspect(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(beh.Navigations) != 1 {
		t.Fatalf("navigations = %v", beh.Navigations)
	}
	if !susp.Malicious() {
		t.Fatalf("hidden click-through not flagged: %+v", susp)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Fatal("nil input must error")
	}
	if _, err := Decode([]byte("JUNK")); err != ErrBadMagic {
		t.Fatalf("bad magic error = %v", err)
	}
	valid := buildBenignMovie()
	for _, cut := range []int{5, 8, 10, len(valid) - 1} {
		if _, err := Decode(valid[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestDecodeNeverPanicsOnFuzz(t *testing.T) {
	base := buildAdFlash(0x11)
	f := func(pos uint16, b byte) bool {
		data := append([]byte(nil), base...)
		data[int(pos)%len(data)] = b
		m, err := Decode(data) // may error, must not panic
		if err == nil && m != nil {
			m.Run() // ditto
		}
		return true
	}
	if err := quick.Check(f, testutil.QuickConfig(t, 800)); err != nil {
		t.Fatal(err)
	}
}

func TestVMStackUnderflow(t *testing.T) {
	sb := NewScript()
	sb.emit(0, OpAllowDomain) // pop on empty stack
	data := NewBuilder(10, 10).Script(sb).Encode()
	m, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil {
		t.Fatal("stack underflow must error")
	}
}

func TestVMUnknownOpcode(t *testing.T) {
	sb := NewScript()
	sb.emit(0, 0xEE)
	data := NewBuilder(10, 10).Script(sb).Encode()
	m, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil {
		t.Fatal("unknown opcode must error")
	}
}

func TestHandlerRegisteringHandlerFiresOnce(t *testing.T) {
	sb := NewScript()
	h1 := sb.NewSegment()
	h2 := sb.NewSegment()
	sb.Listen(0, "mouseUp", h1)
	sb.Listen(h1, "mouseMove", h2)
	sb.ExternalCall(h1, "first")
	sb.ExternalCall(h2, "second")
	// h1 also re-registers itself; the VM must not loop.
	sb.Listen(h1, "mouseUp", h1)
	data := NewBuilder(10, 10).Script(sb).Encode()
	m, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	beh, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(beh.ExternalCalls) != 2 {
		t.Fatalf("external calls = %v, want exactly [first second]", beh.ExternalCalls)
	}
}

func TestExternalCallWithArgs(t *testing.T) {
	sb := NewScript()
	sb.ExternalCall(0, "track", "evt", "42")
	data := NewBuilder(10, 10).Script(sb).Encode()
	m, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	beh, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(beh.ExternalCalls) != 1 || beh.ExternalCalls[0] != "track(evt,42)" {
		t.Fatalf("external calls = %v", beh.ExternalCalls)
	}
}

func TestPushNumRoundTrip(t *testing.T) {
	sb := NewScript()
	sb.PushNum(0, 42)
	sb.emit(0, OpNavigate) // navigate to "42" — nonsense but exercises stack
	data := NewBuilder(10, 10).Script(sb).Encode()
	m, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	beh, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(beh.Navigations) != 1 || beh.Navigations[0] != "42" {
		t.Fatalf("navigations = %v", beh.Navigations)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a := buildAdFlash(0x5a)
	b := buildAdFlash(0x5a)
	if string(a) != string(b) {
		t.Fatal("encoding not deterministic")
	}
}

func BenchmarkEncodeAdFlash(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buildAdFlash(0x5a)
	}
}

func BenchmarkInspect(b *testing.B) {
	data := buildAdFlash(0x5a)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := Inspect(data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestInternPoolOverflowPanics is the regression test for the string-pool
// index truncation bug: pool indices are 16-bit OpPushStr operands, and
// interning entry 65,536 used to truncate uint16(65536) to 0 — every push
// of the new string silently aliased pool entry 0. The pool must fail
// loudly at the bound instead.
func TestInternPoolOverflowPanics(t *testing.T) {
	sb := NewScript()
	for i := 0; i < maxPoolStrings; i++ {
		sb.intern(fmt.Sprintf("str-%d", i))
	}
	if idx := sb.intern("str-0"); idx != 0 {
		t.Fatalf("re-interning str-0 returned %d, want 0", idx)
	}
	if idx := sb.intern(fmt.Sprintf("str-%d", maxPoolStrings-1)); idx != maxPoolStrings-1 {
		t.Fatalf("re-interning the last string returned %d, want %d", idx, maxPoolStrings-1)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("interning string 65,537 did not panic; a truncated index would alias pool entry 0")
		}
	}()
	sb.intern("one-too-many")
}

// Fixture builders for movie shapes the generator never plants.

// AddShape appends an opaque benign drawing tag.
func (b *Builder) AddShape() *Builder {
	b.shapes++
	return b
}

// PushNum pushes a number in segment seg.
func (sb *ScriptBuilder) PushNum(seg int, v float64) *ScriptBuilder {
	var buf [9]byte
	buf[0] = OpPushNum
	binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(v))
	return sb.emit(seg, buf[:]...)
}

// Navigate emits getURL(url).
func (sb *ScriptBuilder) Navigate(seg int, url string) *ScriptBuilder {
	return sb.PushStr(seg, url).emit(seg, OpNavigate)
}
