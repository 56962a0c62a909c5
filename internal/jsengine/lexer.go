// Package jsengine implements a miniature JavaScript static analyzer and
// sandbox interpreter — the reproduction's ADSandbox/Rozzle analog and the
// dynamic half of the Quttera-style heuristic scanner.
//
// Malicious JavaScript on traffic exchanges is frequently obfuscated
// (eval/unescape/fromCharCode layers) precisely to defeat static scanning;
// the paper notes that "some JavaScript code snippets were obfuscated,
// which required execution analysis in a virtual machine environment". The
// sandbox interprets a constrained-but-real JS dialect, peeling obfuscation
// layers by actually executing them, and records a behaviour trace: HTML
// written via document.write (dynamic iframe injection), navigations via
// window.location (suspicious redirection / deceptive download), popups,
// ExternalInterface calls from Flash glue, and fingerprinting API touches.
//
// The dialect covers everything the synthetic web generator emits and the
// paper's published code snippets use: var declarations, assignments
// (including member chains like window.location.href), if/else, function
// calls, string concatenation, and the standard deobfuscation builtins
// (unescape, decodeURIComponent, atob, String.fromCharCode, eval).
package jsengine

import (
	"fmt"
	"strings"
	"sync"
)

type tokenKind int

const (
	tokEOF tokenKind = iota + 1
	tokIdent
	tokNumber
	tokString
	tokPunct // single or multi char punctuation: ( ) { } [ ] ; , . + = == === != !== < > && || ! - * / :
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

// tokScratch recycles token slices. Every analyzed script body is lexed
// twice (static scan, then sandbox parse) and the tokens are dead as soon
// as each pass returns, so the slices — the lexer's dominant allocation —
// can be reused across scripts and goroutines.
var tokScratch = sync.Pool{New: func() any {
	s := make([]token, 0, 512)
	return &s
}}

func borrowToks() *[]token { return tokScratch.Get().(*[]token) }

func returnToks(p *[]token) {
	clear(*p) // drop string references so the pool never pins page bodies
	*p = (*p)[:0]
	tokScratch.Put(p)
}

// lexInto tokenizes src into a reusable scratch slice (reset to length
// zero first). It is forgiving: unknown bytes are skipped so that the
// analyzer never chokes on exotic malware text; the parser decides what is
// usable.
func lexInto(src string, scratch []token) []token {
	toks, _ := lexIntoCap(src, scratch, 0)
	return toks
}

// lexIntoCap is lexInto with a token cap (0 = uncapped): once max tokens
// have been produced, lexing stops and truncated is true. The sandbox
// parser caps the stream at its remaining fuel so a fuel-starved parse of
// an enormous script does not lex the whole thing first.
func lexIntoCap(src string, scratch []token, max int) (toks []token, truncated bool) {
	l := &lexer{src: src, toks: scratch[:0]}
	for l.pos < len(l.src) {
		if max > 0 && len(l.toks) >= max {
			return l.toks, true
		}
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '/' && l.peekAt(1) == '/':
			l.skipLineComment()
		case c == '/' && l.peekAt(1) == '*':
			l.skipBlockComment()
		case c == '\'' || c == '"':
			l.lexString(c)
		case c >= '0' && c <= '9':
			l.lexNumber()
		case isIdentStart(c):
			l.lexIdent()
		default:
			l.lexPunct()
		}
	}
	l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
	return l.toks, false
}

func (l *lexer) peekAt(off int) byte {
	if l.pos+off < len(l.src) {
		return l.src[l.pos+off]
	}
	return 0
}

func (l *lexer) skipLineComment() {
	for l.pos < len(l.src) && l.src[l.pos] != '\n' {
		l.pos++
	}
}

func (l *lexer) skipBlockComment() {
	l.pos += 2
	for l.pos+1 < len(l.src) {
		if l.src[l.pos] == '*' && l.src[l.pos+1] == '/' {
			l.pos += 2
			return
		}
		l.pos++
	}
	l.pos = len(l.src)
}

func (l *lexer) lexString(quote byte) {
	start := l.pos
	l.pos++
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\\' && l.pos+1 < len(l.src) {
			next := l.src[l.pos+1]
			switch next {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case 'x':
				if l.pos+3 < len(l.src) {
					hi, ok1 := hexVal(l.src[l.pos+2])
					lo, ok2 := hexVal(l.src[l.pos+3])
					if ok1 && ok2 {
						b.WriteByte(byte(hi<<4 | lo))
						l.pos += 4
						continue
					}
				}
				b.WriteByte('x')
			case 'u':
				if l.pos+5 < len(l.src) {
					v := 0
					ok := true
					for i := 0; i < 4; i++ {
						d, dok := hexVal(l.src[l.pos+2+i])
						if !dok {
							ok = false
							break
						}
						v = v<<4 | d
					}
					if ok {
						b.WriteRune(rune(v))
						l.pos += 6
						continue
					}
				}
				b.WriteByte('u')
			default:
				b.WriteByte(next)
			}
			l.pos += 2
			continue
		}
		if c == quote {
			l.pos++
			l.toks = append(l.toks, token{kind: tokString, text: b.String(), pos: start})
			return
		}
		b.WriteByte(c)
		l.pos++
	}
	// Unterminated string: emit what we have.
	l.toks = append(l.toks, token{kind: tokString, text: b.String(), pos: start})
}

func hexVal(c byte) (int, bool) {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0'), true
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10, true
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10, true
	}
	return 0, false
}

func (l *lexer) lexNumber() {
	start := l.pos
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if (c >= '0' && c <= '9') || c == '.' || c == 'x' || c == 'X' ||
			(c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') {
			l.pos++
			continue
		}
		break
	}
	l.toks = append(l.toks, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
}

func isIdentStart(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == '$'
}

func isIdentByte(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentByte(l.src[l.pos]) {
		l.pos++
	}
	l.toks = append(l.toks, token{kind: tokIdent, text: l.src[start:l.pos], pos: start})
}

// multi-char punctuation, longest match first.
var punctTable = []string{
	"===", "!==", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "++", "--",
	"(", ")", "{", "}", "[", "]", ";", ",", ".", "+", "-", "*", "/", "%",
	"=", "<", ">", "!", ":", "?",
}

func (l *lexer) lexPunct() {
	rest := l.src[l.pos:]
	for _, p := range punctTable {
		if strings.HasPrefix(rest, p) {
			l.toks = append(l.toks, token{kind: tokPunct, text: p, pos: l.pos})
			l.pos += len(p)
			return
		}
	}
	// Unknown byte: skip it.
	l.pos++
}

func (t token) String() string {
	return fmt.Sprintf("%d:%q", t.kind, t.text)
}
