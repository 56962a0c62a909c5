package match

import (
	"errors"
	"sort"
	"strings"
	"testing"
)

// ids runs a MatchInto over body and returns the sorted ID set.
func ids(t *testing.T, a *Automaton, body string) []int {
	t.Helper()
	got := a.MatchInto(nil, []byte(body))
	sort.Ints(got)
	return got
}

func wantIDs(t *testing.T, a *Automaton, body string, want ...int) {
	t.Helper()
	got := ids(t, a, body)
	if len(want) == 0 {
		want = []int{}
	}
	sort.Ints(want)
	if len(got) != len(want) {
		t.Fatalf("match(%q) = %v, want %v", body, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("match(%q) = %v, want %v", body, got, want)
		}
	}
}

func TestOverlappingPatterns(t *testing.T) {
	// "he", "she", "his", "hers" — the canonical Aho–Corasick set where
	// one occurrence ends inside another and failure links carry outputs.
	a := MustCompile([]string{"he", "she", "his", "hers"})
	wantIDs(t, a, "ushers", 0, 1, 3) // "she" ends at 4, "he" inside it, "hers" at 6
	wantIDs(t, a, "his", 2)
	wantIDs(t, a, "hers he", 0, 3)
	wantIDs(t, a, "xyz")
}

func TestPrefixSuffixPatterns(t *testing.T) {
	// Patterns that are strict prefixes/suffixes of each other must all
	// report on the longer occurrence.
	a := MustCompile([]string{"foo", "foobar", "bar", "obarx"})
	wantIDs(t, a, "foobarx", 0, 1, 2, 3)
	wantIDs(t, a, "foo", 0)
	wantIDs(t, a, "fobar", 2)
	wantIDs(t, a, "xfoox", 0)
}

func TestEmptyPatternRejected(t *testing.T) {
	if _, err := Compile([]string{"ok", ""}); !errors.Is(err, ErrEmptyPattern) {
		t.Fatalf("Compile with empty pattern: err = %v, want ErrEmptyPattern", err)
	}
}

func TestEmptyPatternSet(t *testing.T) {
	a := MustCompile(nil)
	wantIDs(t, a, "anything at all")
}

func TestDuplicatePatterns(t *testing.T) {
	a := MustCompile([]string{"dup", "dup"})
	wantIDs(t, a, "a dup here", 0, 1)
}

func TestNonASCIIBytes(t *testing.T) {
	// High bytes must match exactly, and folding must leave them alone
	// (0xC0..0xDF would be corrupted by a naive |0x20 fold).
	a := MustCompile([]string{"\xc3\x89tat", "\xff\xfe", "caf\xc3\xa9"})
	wantIDs(t, a, "l'\xc3\x89tat au caf\xc3\xa9", 0, 2)
	wantIDs(t, a, "bom:\xff\xfe!", 1)

	if !ContainsFold("CAF\xc3\xa9", "caf\xc3\xa9") {
		t.Fatal("ContainsFold missed an ASCII-folded match")
	}
	// The high byte itself must NOT fold: 0xC3 != 0xE3.
	if ContainsFold("CAF\xe3\xa9", "caf\xc3\xa9") {
		t.Fatal("ContainsFold folded a non-ASCII byte")
	}
}

func TestFoldMatching(t *testing.T) {
	// Case-insensitive probes go through the folding helpers.
	if !ContainsFold("x<IFrAmE src=", "<iframe") || !ContainsFold("DIALER.w32", "Dialer.W32") {
		t.Fatal("ContainsFold missed a case-folded match")
	}
	if ContainsFold("dialer-w32", "Dialer.W32") { // '.' does not fold to '-'
		t.Fatal("ContainsFold folded '.' to '-'")
	}
	// The automaton stays case-sensitive.
	e := MustCompile([]string{"Dialer.W32"})
	wantIDs(t, e, "dialer.w32")
	wantIDs(t, e, "Dialer.W32", 0)
}

func TestMatchAtBoundaries(t *testing.T) {
	a := MustCompile([]string{"start", "end"})
	wantIDs(t, a, "start...end", 0, 1)
	wantIDs(t, a, "start", 0)
	wantIDs(t, a, "end", 1)
}

func TestDedupAcrossOccurrences(t *testing.T) {
	a := MustCompile([]string{"ab"})
	got := a.MatchInto(nil, []byte("ab ab ab"))
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("match = %v, want exactly one ID 0", got)
	}
}

func TestMatchIntoReusesDst(t *testing.T) {
	a := MustCompile([]string{"x", "y"})
	buf := make([]int, 0, 8)
	got := a.MatchInto(buf, []byte("x"))
	if len(got) != 1 || &got[:1][0] != &buf[:1][0] {
		t.Fatalf("MatchInto did not append into the provided buffer")
	}
}

func TestFoldHelpers(t *testing.T) {
	if IndexFold("xxAbCyy", "abc") != 2 {
		t.Fatalf("IndexFold basic: got %d", IndexFold("xxAbCyy", "abc"))
	}
	if IndexFold("abc", "") != 0 {
		t.Fatal("IndexFold empty needle should be 0")
	}
	if IndexFold("ab", "abc") != -1 {
		t.Fatal("IndexFold needle longer than haystack should be -1")
	}
	if !ContainsFold([]byte("<IFRAME"), "<iframe") {
		t.Fatal("ContainsFold over []byte failed")
	}
	if ContainsFold("if rame", "iframe") {
		t.Fatal("ContainsFold false positive")
	}
	if !HasPrefixFold("Content-Type", "content-") || HasPrefixFold("Con", "content") {
		t.Fatal("HasPrefixFold wrong")
	}
	if !HasSuffixFold("movie.SWF", ".swf") || HasSuffixFold("swf", ".swf") {
		t.Fatal("HasSuffixFold wrong")
	}
	// Fold behavior must track strings.ToLower for ASCII inputs.
	for c := 0; c < 256; c++ {
		want := strings.ToLower(string(rune(byte(c))))
		if byte(c) < 0x80 && string(FoldByte(byte(c))) != want {
			t.Fatalf("FoldByte(%#x) = %#x, want %q", c, FoldByte(byte(c)), want)
		}
		if byte(c) >= 0x80 && FoldByte(byte(c)) != byte(c) {
			t.Fatalf("FoldByte(%#x) must be identity for non-ASCII", c)
		}
	}
}

// naiveMatch is the oracle: per-pattern strings.Contains — exactly the
// code the automaton replaced.
func naiveMatch(patterns []string, body string) []int {
	var out []int
	for id, p := range patterns {
		if strings.Contains(body, p) {
			out = append(out, id)
		}
	}
	return out
}

func TestAgainstNaiveOracle(t *testing.T) {
	cases := []struct {
		patterns []string
		bodies   []string
	}{
		{
			patterns: []string{"a", "aa", "aaa", "aaaa"},
			bodies:   []string{"", "a", "aa", "aaa", "aaaaa", "baab"},
		},
		{
			patterns: []string{"abab", "bab", "ab"},
			bodies:   []string{"ababab", "abab", "xbabx"},
		},
		{
			patterns: []string{"Eval(", "unescape", "document.write", "<IFRAME"},
			bodies: []string{
				"document.write(unescape('%3CiFrAmE'))",
				"eval(eVAL(EVAL(",
				"<ifram <iframe",
			},
		},
	}
	for _, tc := range cases {
		a, err := Compile(tc.patterns)
		if err != nil {
			t.Fatal(err)
		}
		for _, body := range tc.bodies {
			want := naiveMatch(tc.patterns, body)
			if got := ids(t, a, body); !equalInts(got, want) {
				t.Fatalf("patterns=%q body=%q: got %v want %v", tc.patterns, body, got, want)
			}
		}
	}
}

func BenchmarkMatchVsNaive(b *testing.B) {
	patterns := make([]string, 0, 64)
	for i := 0; i < 64; i++ {
		patterns = append(patterns, "token-"+strings.Repeat("x", i%7+2)+string(rune('a'+i%26)))
	}
	body := strings.Repeat("the quick brown fox token-xxb jumps over the lazy dog ", 40)
	a := MustCompile(patterns)
	b.Run("automaton", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		var buf [8]int
		src := []byte(body)
		for i := 0; i < b.N; i++ {
			_ = a.MatchInto(buf[:0], src)
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			for _, p := range patterns {
				_ = strings.Contains(body, p)
			}
		}
	})
}
