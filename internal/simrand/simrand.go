// Package simrand provides deterministic, seedable randomness helpers used
// throughout the simulator. Every stochastic component of the reproduction
// (universe generation, exchange rotation, scanner noise) draws from a
// simrand.Source so that a single seed reproduces an entire experiment
// bit-for-bit.
//
// The package wraps math/rand (stdlib only) and adds weighted choice,
// stable named sub-streams, and a few distribution helpers the workload
// generators need.
package simrand

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// Source is a deterministic random source. It is NOT safe for concurrent
// use; derive per-goroutine sources with Sub or Borrow.
type Source struct {
	rng  *rand.Rand
	seed uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{
		rng:  rand.New(rand.NewSource(int64(seed))),
		seed: seed,
	}
}

// Seed returns the seed the source was created with.
func (s *Source) Seed() uint64 { return s.seed }

// Sub derives a new independent Source from this source's seed and a name.
// Two Sub calls with the same name on sources with the same seed yield
// identical streams, regardless of how much randomness has been consumed
// from the parent. This keeps experiment components independent: consuming
// more randomness in one subsystem does not shift another subsystem's
// stream.
func (s *Source) Sub(name string) *Source {
	return New(subSeed(s.seed, name))
}

// subSeed is the seed of the substream named by the concatenation of
// parts: FNV-1a over the parent seed's little-endian bytes, then the name.
func subSeed(seed uint64, parts ...string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(seed >> (8 * i)))
		h *= prime64
	}
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= prime64
		}
	}
	return h
}

// sourcePool recycles Sources for Borrow. A math/rand source is ~4.9 KB
// and seeding one in place yields the same stream as allocating it.
var sourcePool = sync.Pool{New: func() any { return New(0) }}

// Borrow returns a pooled Source whose stream is identical to
// s.Sub(parts[0]+parts[1]+...), without allocating the source or the
// name: rand.Rand.Seed resets the generator and its buffered read
// position, so a reseeded source draws exactly what a fresh one would,
// whatever its previous user consumed. The caller owns the Source until
// it calls Release, and must keep no reference after that.
func (s *Source) Borrow(parts ...string) *Source {
	src := sourcePool.Get().(*Source)
	src.seed = subSeed(s.seed, parts...)
	src.rng.Seed(int64(src.seed))
	return src
}

// Release hands a Source obtained from Borrow back to the pool.
func (s *Source) Release() { sourcePool.Put(s) }

// Intn returns a uniform int in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (s *Source) Intn(n int) int { return s.rng.Intn(n) }

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.rng.Float64() < p
}

// Range returns a uniform int in [lo, hi] inclusive. It panics if hi < lo.
func (s *Source) Range(lo, hi int) int {
	if hi < lo {
		panic(fmt.Sprintf("simrand: invalid range [%d, %d]", lo, hi))
	}
	return lo + s.rng.Intn(hi-lo+1)
}

// Geometric returns a geometrically distributed integer >= 1 with success
// probability p (the number of Bernoulli trials up to and including the
// first success). p must be in (0, 1].
func (s *Source) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic(fmt.Sprintf("simrand: invalid geometric p=%v", p))
	}
	if p == 1 {
		return 1
	}
	u := s.rng.Float64()
	// Inverse CDF: ceil(ln(1-u) / ln(1-p)).
	n := int(math.Ceil(math.Log(1-u) / math.Log(1-p)))
	if n < 1 {
		n = 1
	}
	return n
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.rng.Shuffle(n, swap) }

// Pick returns a uniformly random element of items. It panics on an empty
// slice.
func Pick[T any](s *Source, items []T) T {
	if len(items) == 0 {
		panic("simrand: Pick from empty slice")
	}
	return items[s.Intn(len(items))]
}

// Weighted selects an index in [0, len(weights)) with probability
// proportional to weights[i]. Zero weights are allowed; negative weights
// and an all-zero weight vector panic.
type Weighted struct {
	cum []float64
}

// NewWeighted builds a reusable weighted sampler.
func NewWeighted(weights []float64) *Weighted {
	if len(weights) == 0 {
		panic("simrand: NewWeighted with no weights")
	}
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			panic(fmt.Sprintf("simrand: invalid weight %v at index %d", w, i))
		}
		total += w
		cum[i] = total
	}
	if total <= 0 {
		panic("simrand: all weights are zero")
	}
	return &Weighted{cum: cum}
}

// Sample draws an index from the weighted distribution.
func (w *Weighted) Sample(s *Source) int {
	total := w.cum[len(w.cum)-1]
	u := s.Float64() * total
	idx := sort.SearchFloat64s(w.cum, u)
	// SearchFloat64s returns the first index with cum >= u; if u lands
	// exactly on a boundary we may get an index whose own weight is zero,
	// so walk forward to the next positive-weight bucket.
	for idx < len(w.cum)-1 && w.weightAt(idx) == 0 {
		idx++
	}
	if idx >= len(w.cum) {
		idx = len(w.cum) - 1
	}
	return idx
}

func (w *Weighted) weightAt(i int) float64 {
	if i == 0 {
		return w.cum[0]
	}
	return w.cum[i] - w.cum[i-1]
}

// WeightedPick is a convenience that builds a one-shot weighted sampler
// over items with the given weights and returns one item.
func WeightedPick[T any](s *Source, items []T, weights []float64) T {
	if len(items) != len(weights) {
		panic("simrand: WeightedPick length mismatch")
	}
	return items[NewWeighted(weights).Sample(s)]
}

// Letters used by identifier generators.
const lowerAlpha = "abcdefghijklmnopqrstuvwxyz"
const alphaNum = "abcdefghijklmnopqrstuvwxyz0123456789"

// Word returns a pronounceable-ish lowercase word of length in [minLen,
// maxLen], alternating consonant/vowel clusters. Used for synthetic domain
// and path names.
func (s *Source) Word(minLen, maxLen int) string {
	var buf [16]byte
	return string(s.AppendWord(buf[:0], minLen, maxLen))
}

// AppendWord appends the word Word(minLen, maxLen) would return to dst,
// making exactly the same draws.
func (s *Source) AppendWord(dst []byte, minLen, maxLen int) []byte {
	const vowels = "aeiou"
	const consonants = "bcdfghjklmnpqrstvwxyz"
	n := s.Range(minLen, maxLen)
	useVowel := s.Bool(0.4)
	for i := 0; i < n; i++ {
		if useVowel {
			dst = append(dst, vowels[s.Intn(len(vowels))])
		} else {
			dst = append(dst, consonants[s.Intn(len(consonants))])
		}
		useVowel = !useVowel
	}
	return dst
}

// Token returns a random lowercase alphanumeric token of length n, like
// the opaque IDs shorteners and ad trackers use.
func (s *Source) Token(n int) string {
	var buf [16]byte
	return string(s.AppendToken(buf[:0], n))
}

// AppendToken appends the token Token(n) would return to dst, making
// exactly the same draws.
func (s *Source) AppendToken(dst []byte, n int) []byte {
	for i := 0; i < n; i++ {
		dst = append(dst, alphaNum[s.Intn(len(alphaNum))])
	}
	return dst
}

// LowerToken returns a random lowercase alphabetic token of length n.
func (s *Source) LowerToken(n int) string {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = lowerAlpha[s.Intn(len(lowerAlpha))]
	}
	return string(buf)
}

// HexToken returns a random lowercase hex string of length n.
func (s *Source) HexToken(n int) string {
	const hexDigits = "0123456789abcdef"
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = hexDigits[s.Intn(len(hexDigits))]
	}
	return string(buf)
}
