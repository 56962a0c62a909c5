package web

import (
	"strings"

	"repro/internal/httpsim"
	"repro/internal/jsengine"
	"repro/internal/urlutil"
)

// HostileScript is one entry of the sandbox-hostile corpus: a script
// engineered to exhaust a specific execution budget rather than to evade
// a signature. Every script terminates under the default jsengine budget
// with a structured sandbox error code — that termination is exactly what
// the sandbox layer exists to guarantee.
type HostileScript struct {
	// Name is a DNS-safe slug identifying the bomb shape.
	Name string
	// Src is the script source. It contains no '<', so it survives
	// inline-<script> embedding and htmlparse extraction unmangled.
	Src string
}

// HostileScripts returns the bomb corpus. The set is deterministic (no
// randomness) so the same corpus byte-for-byte backs tests, fuzz seeds
// and the chaos matrix.
func HostileScripts() []HostileScript {
	return []HostileScript{
		// A try/catch-wrapped infinite loop: the classic sandbox escape
		// attempt. The fuel violation must be uncatchable, or the script
		// would spin forever inside its own catch.
		{Name: "infinite-loop", Src: `var n = 0;
try {
  while (true) { n = n + 1; }
} catch (e) {
  while (true) { n = n + 2; }
}`},
		// Exponential allocation: doubling a string runs out of heap
		// budget in ~20 iterations while costing almost no fuel.
		{Name: "string-doubling", Src: `var s = "AAAAAAAAAAAAAAAA";
while (true) { s = s + s; }`},
		// A single statement that asks for a hundred-million-element
		// array. Growth is charged before allocation, so the interpreter
		// never actually materializes it.
		{Name: "sparse-array", Src: `var a = [];
a[100000000] = 1;
a[0] = 2;`},
		// Quadratic string building: each append recopies the whole
		// accumulator, so cumulative interned bytes grow with the square
		// of the iteration count.
		{Name: "quadratic-builder", Src: `var s = "";
var i = 0;
while (i >= 0) {
  s = s + "0123456789abcdef";
  i = i + 1;
}`},
		// Eval recursion through a decoder: each frame re-enters eval
		// until the depth budget trips. The unescape marker also makes
		// the script statically obfuscated, as real decoders are.
		{Name: "eval-recursion", Src: `function f(n) {
  try { eval(unescape("f%28n %2B 1%29")); } catch (e) { }
}
f(0);`},
		// Deeply nested self-rewriting decoder with a fuel bomb at the
		// core — built below with jsengine.Escape, like the universe's
		// JSObfuscatedInjection pages but an order of magnitude deeper.
		{Name: "decoder-tower", Src: decoderTower(12)},
		// document.write flood: output bytes, not fuel or heap, are the
		// binding budget.
		{Name: "write-flood", Src: `var chunk = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
chunk = chunk + chunk;
chunk = chunk + chunk;
var i = 0;
while (i >= 0) {
  document.write(chunk);
  i = i + 1;
}`},
	}
}

// decoderTower wraps an unbounded loop in `layers` rings of
// eval(unescape(...)), each layer escaping the one below it.
func decoderTower(layers int) string {
	src := "var i = 0; while (true) { i = i + 1; }"
	for i := 0; i < layers; i++ {
		src = `eval(unescape("` + jsengine.Escape(src) + `"));`
	}
	return src
}

// PlantHostileSites adds one MaliciousJS/JSBomb site per hostile script
// to an already-generated universe and registers their handlers. It is
// opt-in — the default universe (and therefore every golden report) never
// contains bomb sites. Bomb pages render deterministically with no rng,
// and their family tokens are deliberately NOT fed to the threat
// intelligence: detection must come from the sandbox tripping, not from a
// signature match.
func (u *Universe) PlantHostileSites() []*Site {
	scripts := HostileScripts()
	out := make([]*Site, 0, len(scripts))
	for _, hs := range scripts {
		s := &Site{
			Host:        "bomb-" + hs.Name + ".net",
			Category:    CatIT,
			Kind:        MaliciousJS,
			Variant:     JSBomb,
			Pages:       []string{"/"},
			FamilyToken: "fam_bomb_" + strings.ReplaceAll(hs.Name, "-", "_"),
			BombSrc:     hs.Src,
		}
		s.TLD = urlutil.TLD(s.Host)
		s.EntryURL = "http://" + s.Host + "/"
		u.addSite(s)
		u.Internet.Register(s.Host, static(httpsim.HTML(renderBombPage(s))))
		out = append(out, s)
	}
	return out
}

// renderBombPage embeds the bomb script in a minimal page. No rng: the
// page is a pure function of the site, so responses are byte-identical
// across requests, workers and runs.
func renderBombPage(s *Site) string {
	var b strings.Builder
	b.WriteString("<html><head><title>")
	b.WriteString(s.Host)
	b.WriteString("</title></head><body>\n<p>loading...</p>\n<script>\n")
	b.WriteString(s.BombSrc)
	b.WriteString("\n</script>\n<!-- ")
	b.WriteString(s.FamilyToken)
	b.WriteString(" -->\n</body></html>\n")
	return b.String()
}
