package match

import (
	"sort"
	"strings"
	"testing"
)

// FuzzMatchAutomaton differentially tests the automaton against the
// naive per-pattern strings.Contains oracle it replaced. The pattern set
// is derived from a newline-separated blob so the fuzzer can mutate
// pattern structure and body together; crashers are checked in under
// testdata/fuzz as regression seeds.
func FuzzMatchAutomaton(f *testing.F) {
	f.Add("he\nshe\nhis\nhers", "ushers")
	f.Add("a\naa\naaa", "aaaa")
	f.Add("<iframe\neval(", "X<IFRAME src=eval(")
	f.Add("foo\nfoobar\nbar", "foobarfoo")
	f.Add("\xff\xfe\n\xc3\xa9", "caf\xc3\xa9 \xff\xfe")
	f.Add("ab", "abababab")

	f.Fuzz(func(t *testing.T, patBlob string, body string) {
		var patterns []string
		for _, p := range strings.Split(patBlob, "\n") {
			if p == "" {
				continue
			}
			if len(p) > 64 {
				p = p[:64]
			}
			patterns = append(patterns, p)
		}
		if len(patterns) > 24 {
			patterns = patterns[:24]
		}
		if len(body) > 1<<14 {
			body = body[:1<<14]
		}

		a, err := Compile(patterns)
		if err != nil {
			t.Fatalf("Compile(%q) rejected non-empty patterns: %v", patterns, err)
		}

		want := naiveMatch(patterns, body)
		got := a.MatchInto(nil, []byte(body))
		sort.Ints(got)
		if !equalInts(got, want) {
			t.Fatalf("patterns=%q body=%q: automaton=%v oracle=%v", patterns, body, got, want)
		}
	})
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
