package jsengine

import (
	"math"
	"strings"

	"repro/internal/match"
)

// StaticReport is the result of static (no-execution) scanning of a script,
// the Zozzle-style half of the analysis.
type StaticReport struct {
	// Entropy is the Shannon entropy of the source in bits/byte. Packed
	// and encoded payloads push this toward 6+; plain JS sits near 4.5.
	Entropy float64
	// EscapeDensity is the fraction of source bytes that are part of %xx
	// escape sequences.
	EscapeDensity float64
	// HasEval, HasUnescape, HasFromCharCode flag the classic
	// deobfuscation trio.
	HasEval         bool
	HasUnescape     bool
	HasFromCharCode bool
	// WritesMarkup flags document.write calls whose visible arguments
	// contain markup.
	WritesMarkup bool
	// SetsLocation flags window.location(.href) assignment in source.
	SetsLocation bool
	// ExternalInterface flags ExternalInterface.call usage.
	ExternalInterface bool
	// FingerprintAPIs flags navigator/screen/mouse-event usage.
	FingerprintAPIs bool
	// LongStringLiteral flags a string literal over 512 bytes — packed
	// payloads are carried this way.
	LongStringLiteral bool
}

// Obfuscated reports the static obfuscation verdict: the eval-decode combo,
// or heavy escape density, or abnormal entropy alongside a long literal.
func (r StaticReport) Obfuscated() bool {
	if r.HasEval && (r.HasUnescape || r.HasFromCharCode) {
		return true
	}
	if r.EscapeDensity > 0.25 {
		return true
	}
	return r.Entropy > 5.4 && r.LongStringLiteral
}

// StaticScan performs token-level static analysis of src.
func StaticScan(src string) StaticReport {
	r := StaticReport{
		Entropy:       Entropy(src),
		EscapeDensity: escapeDensity(src),
	}
	tp := borrowToks()
	defer returnToks(tp)
	toks := lexInto(src, *tp)
	*tp = toks
	for i, t := range toks {
		switch t.kind {
		case tokIdent:
			switch t.text {
			case "eval":
				r.HasEval = true
			case "unescape", "decodeURIComponent", "atob":
				r.HasUnescape = true
			case "fromCharCode":
				r.HasFromCharCode = true
			case "navigator", "screen":
				r.FingerprintAPIs = true
			case "onmousemove", "onmousedown", "onkeydown", "mousemove", "mousedown", "keydown":
				r.FingerprintAPIs = true
			case "ExternalInterface":
				r.ExternalInterface = true
			case "location":
				// location followed by an assignment (possibly through
				// .href) later in the stream.
				if scanSetsLocation(toks[i:]) {
					r.SetsLocation = true
				}
			case "write", "writeln":
				if scanWriteMarkup(toks[i:]) {
					r.WritesMarkup = true
				}
			}
		case tokString:
			if len(t.text) > 512 {
				r.LongStringLiteral = true
			}
		}
	}
	return r
}

// scanSetsLocation checks whether the token run starting at "location" is
// an assignment sink: `location = `, `location.href = `, or
// `location.replace(`.
func scanSetsLocation(toks []token) bool {
	if len(toks) < 2 {
		return false
	}
	i := 1
	// Optional `.prop` chain.
	for i+1 < len(toks) && toks[i].kind == tokPunct && toks[i].text == "." && toks[i+1].kind == tokIdent {
		if toks[i+1].text == "replace" || toks[i+1].text == "assign" {
			return true
		}
		i += 2
	}
	return i < len(toks) && toks[i].kind == tokPunct && (toks[i].text == "=" || toks[i].text == "+=")
}

// scanWriteMarkup checks whether a write(...) call has a visible markup
// string argument.
func scanWriteMarkup(toks []token) bool {
	if len(toks) < 3 || toks[1].kind != tokPunct || toks[1].text != "(" {
		return false
	}
	depth := 0
	for _, t := range toks[1:] {
		if t.kind == tokPunct {
			switch t.text {
			case "(":
				depth++
			case ")":
				depth--
				if depth == 0 {
					return false
				}
			}
		}
		if t.kind == tokString && strings.Contains(t.text, "<") {
			return true
		}
	}
	return false
}

// Entropy returns the Shannon entropy of s in bits per byte (0 for empty).
func Entropy(s string) float64 {
	if len(s) == 0 {
		return 0
	}
	var counts [256]int
	for i := 0; i < len(s); i++ {
		counts[s[i]]++
	}
	total := float64(len(s))
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / total
		h -= p * math.Log2(p)
	}
	return h
}

func escapeDensity(s string) float64 {
	if len(s) == 0 {
		return 0
	}
	escaped := 0
	for i := 0; i+2 < len(s); i++ {
		if s[i] == '%' {
			if _, ok1 := hexVal(s[i+1]); ok1 {
				if _, ok2 := hexVal(s[i+2]); ok2 {
					escaped += 3
					i += 2
				}
			}
		}
	}
	return float64(escaped) / float64(len(s))
}

// Report is the combined static + dynamic analysis of one script.
type Report struct {
	Static StaticReport
	// Trace is the sandbox behaviour trace; nil when sandboxing was
	// disabled or the script was rejected as too complex.
	Trace *Trace
	// SandboxErr records a non-fatal execution problem. It is always a
	// *SandboxError (match with CodeOf): resource codes mean the script
	// outran its budget, EVAL_ERROR covers parse and evaluation
	// failures. The partial trace, if any, is still valid.
	SandboxErr error
}

// Options controls Analyze.
type Options struct {
	// Sandbox enables dynamic execution. The ablation benchmarks run
	// with it off to quantify what static-only scanning misses.
	Sandbox bool
	// Budget bounds the execution. Unset (non-positive) fields fall back
	// to DefaultBudget, so the zero value is the production budget.
	Budget Budget
}

// Analyze runs static scanning and, if requested, sandbox execution.
func Analyze(src string, opts Options) Report {
	rep := Report{Static: StaticScan(src)}
	if !opts.Sandbox {
		return rep
	}
	trace, err := ExecuteBudget(src, opts.Budget.withDefaults())
	rep.Trace = trace
	rep.SandboxErr = err
	return rep
}

// InjectedIframes extracts iframe fragments from the dynamic writes of a
// trace. The caller parses them with htmlparse; here we only split out the
// written fragments that contain an iframe tag.
func (t *Trace) InjectedIframes() []string {
	if t == nil {
		return nil
	}
	var out []string
	for _, w := range t.Writes {
		if match.ContainsFold(w, "<iframe") {
			out = append(out, w)
		}
	}
	return out
}
