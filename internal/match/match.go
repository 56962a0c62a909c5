// Package match is the hot-path matching substrate for the scan pipeline:
// a stdlib-only multi-pattern byte automaton (Aho–Corasick compiled down
// to a dense DFA) plus allocation-free ASCII case-folding string helpers.
//
// The automaton is compiled once from a pattern set and then answers "which
// patterns occur in this body?" in a single pass over the bytes — two table
// loads per input byte, zero allocations — replacing the O(patterns × body)
// strings.Contains sweeps and the per-call strings.ToLower full-body copies
// that previously dominated scanner CPU and allocation profiles.
//
// The automaton matches bytes exactly: signature tokens are matched
// case-sensitively, as strings.Contains did. Case-insensitive probes use
// the folding helpers instead.
//
// Pattern IDs are the indices into the pattern slice given to Compile, so
// callers can keep parallel metadata (labels, engines) in plain slices.
package match

import (
	"errors"
	"fmt"
)

// ErrEmptyPattern is returned by Compile for a zero-length pattern: an
// empty needle would "match" at every position, which is never what a
// signature set means — reject loudly instead of looping silently.
var ErrEmptyPattern = errors.New("match: empty pattern")

// Automaton is an immutable compiled multi-pattern matcher. It is safe for
// concurrent use by any number of goroutines: matching touches only
// read-only tables plus caller-provided scratch.
type Automaton struct {
	patterns []string // originals, indexed by pattern ID

	// classes maps each input byte to a column in the transition table.
	// Bytes that appear in no pattern share column 0, whose transitions
	// all lead back to the root.
	classes [256]uint16
	width   int32 // columns per state (distinct byte classes + 1)

	// trans is the dense state×class transition table. States are
	// renumbered so every state with a non-empty output set sits at
	// firstOut or above: the per-byte hot loop detects hits with one
	// integer compare instead of an output-table load.
	trans    []int32
	firstOut int32

	// outs holds the flattened output sets (pattern IDs, terminal plus
	// inherited-via-failure), indexed CSR-style by outStart.
	outStart []int32
	outs     []int32
}

// MustCompile is Compile for pattern sets known valid at construction time.
func MustCompile(patterns []string) *Automaton {
	a, err := Compile(patterns)
	if err != nil {
		panic(err)
	}
	return a
}

// buildNode is the mutable trie node used only during compilation.
type buildNode struct {
	next []int32 // dense per-class children; -1 = absent until DFA fill
	fail int32
	out  []int32
}

// Compile builds an exact-byte automaton over patterns. Duplicate patterns
// are allowed (each ID reports independently); empty patterns are rejected.
func Compile(patterns []string) (*Automaton, error) {
	a := &Automaton{patterns: append([]string(nil), patterns...)}

	// Pass 1: assign byte classes. Only bytes that occur in some pattern
	// get a column of their own; everything else shares class 0.
	nextClass := uint16(1)
	for i, p := range patterns {
		if p == "" {
			return nil, fmt.Errorf("%w (pattern %d)", ErrEmptyPattern, i)
		}
		for j := 0; j < len(p); j++ {
			b := p[j]
			if a.classes[b] == 0 {
				a.classes[b] = nextClass
				nextClass++
			}
		}
	}
	width := int32(nextClass)
	a.width = width

	newNode := func() *buildNode {
		n := &buildNode{next: make([]int32, width)}
		for i := range n.next {
			n.next[i] = -1
		}
		return n
	}

	// Pass 2: trie.
	nodes := []*buildNode{newNode()}
	for id, p := range patterns {
		s := int32(0)
		for j := 0; j < len(p); j++ {
			c := int32(a.classes[p[j]])
			if nodes[s].next[c] < 0 {
				nodes = append(nodes, newNode())
				nodes[s].next[c] = int32(len(nodes) - 1)
			}
			s = nodes[s].next[c]
		}
		nodes[s].out = append(nodes[s].out, int32(id))
	}

	// Pass 3: breadth-first failure links, folded straight into a dense
	// DFA (missing edges rewired to the failure target's edge) with
	// output sets merged down the failure chain. Parents precede children
	// in BFS order, so a node's failure target is always fully resolved
	// by the time the node is processed.
	queue := make([]int32, 0, len(nodes))
	root := nodes[0]
	for c := int32(0); c < width; c++ {
		if t := root.next[c]; t < 0 {
			root.next[c] = 0
		} else {
			nodes[t].fail = 0
			queue = append(queue, t)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		s := queue[qi]
		n := nodes[s]
		f := nodes[n.fail]
		n.out = append(n.out, f.out...)
		for c := int32(0); c < width; c++ {
			if t := n.next[c]; t < 0 {
				n.next[c] = f.next[c]
			} else {
				nodes[t].fail = f.next[c]
				queue = append(queue, t)
			}
		}
	}

	// Pass 4: renumber so output states occupy the top of the state
	// space (the hot loop's one-compare hit test), then flatten.
	remap := make([]int32, len(nodes))
	var id int32
	for i, n := range nodes {
		if len(n.out) == 0 {
			remap[i] = id
			id++
		}
	}
	a.firstOut = id
	for i, n := range nodes {
		if len(n.out) > 0 {
			remap[i] = id
			id++
		}
	}

	a.trans = make([]int32, len(nodes)*int(width))
	a.outStart = make([]int32, len(nodes)+1)
	outTotal := 0
	for _, n := range nodes {
		outTotal += len(n.out)
	}
	a.outs = make([]int32, 0, outTotal)
	// Fill the CSR in new-ID order: walk old nodes sorted by remap.
	order := make([]int32, len(nodes))
	for old, nw := range remap {
		order[nw] = int32(old)
	}
	for nw, old := range order {
		n := nodes[old]
		row := a.trans[int32(nw)*width : int32(nw+1)*width]
		for c, t := range n.next {
			row[c] = remap[t]
		}
		a.outStart[nw+1] = a.outStart[nw] + int32(len(n.out))
		a.outs = append(a.outs, n.out...)
	}
	return a, nil
}

// MatchInto appends the IDs of every pattern occurring in body to dst and
// returns the extended slice. Each ID is reported at most once, in first-
// occurrence order (callers needing pattern-set order sort the handful of
// IDs themselves). Passing a reused dst[:0] makes the call allocation-free.
func (a *Automaton) MatchInto(dst []int, body []byte) []int {
	_, dst = feed(a, 0, dst, body)
	return dst
}

// feed is the shared hot loop: advance the DFA over src from state,
// collecting output-set IDs (deduplicated against dst) on hit states.
func feed[T ~string | ~[]byte](a *Automaton, state int32, dst []int, src T) (int32, []int) {
	if len(a.patterns) == 0 {
		return 0, dst
	}
	width, firstOut := a.width, a.firstOut
	for i := 0; i < len(src); i++ {
		state = a.trans[state*width+int32(a.classes[src[i]])]
		if state >= firstOut {
			os, oe := a.outStart[state], a.outStart[state+1]
			for _, pid := range a.outs[os:oe] {
				dst = appendUnique(dst, int(pid))
			}
		}
	}
	return state, dst
}

// appendUnique adds id to dst unless already present. Match sets are
// almost always zero or one entry, so a linear scan beats any set.
func appendUnique(dst []int, id int) []int {
	for _, have := range dst {
		if have == id {
			return dst
		}
	}
	return append(dst, id)
}

// ---------------------------------------------------------------------------
// ASCII case-folding helpers: the non-automaton half of the hot path.
// Single-probe call sites (is there an "<iframe" in this fragment?) don't
// warrant a compiled automaton, but they must never pay for a lowercased
// copy of the haystack either. All helpers are allocation-free, fold only
// ASCII 'A'..'Z', and accept string or []byte haystacks.

// FoldByte lowercases one ASCII byte; all other bytes pass through.
func FoldByte(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + ('a' - 'A')
	}
	return c
}

// IndexFold returns the first index of needle in s under ASCII case
// folding, or -1. An empty needle matches at 0, as strings.Index does.
func IndexFold[S ~string | ~[]byte, N ~string | ~[]byte](s S, needle N) int {
	n := len(needle)
	if n == 0 {
		return 0
	}
	if n > len(s) {
		return -1
	}
	c0 := FoldByte(needle[0])
	for i := 0; i+n <= len(s); i++ {
		if FoldByte(s[i]) != c0 {
			continue
		}
		j := 1
		for j < n && FoldByte(s[i+j]) == FoldByte(needle[j]) {
			j++
		}
		if j == n {
			return i
		}
	}
	return -1
}

// ContainsFold reports whether needle occurs in s under ASCII case folding.
func ContainsFold[S ~string | ~[]byte, N ~string | ~[]byte](s S, needle N) bool {
	return IndexFold(s, needle) >= 0
}

// HasPrefixFold reports whether s starts with prefix under ASCII case
// folding.
func HasPrefixFold[S ~string | ~[]byte, P ~string | ~[]byte](s S, prefix P) bool {
	if len(s) < len(prefix) {
		return false
	}
	for i := 0; i < len(prefix); i++ {
		if FoldByte(s[i]) != FoldByte(prefix[i]) {
			return false
		}
	}
	return true
}

// HasSuffixFold reports whether s ends with suffix under ASCII case
// folding.
func HasSuffixFold[S ~string | ~[]byte, X ~string | ~[]byte](s S, suffix X) bool {
	if len(s) < len(suffix) {
		return false
	}
	off := len(s) - len(suffix)
	for i := 0; i < len(suffix); i++ {
		if FoldByte(s[off+i]) != FoldByte(suffix[i]) {
			return false
		}
	}
	return true
}
