// Package stats provides the small statistical toolkit the analysis
// pipeline uses to aggregate crawl results into the paper's tables and
// figures: counters with percentage views, integer histograms (Figure 5),
// share breakdowns (Figures 6 and 7, Table III), and cumulative time series
// with burst detection (Figure 3).
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Counter counts occurrences of string keys.
type Counter struct {
	counts map[string]int
	total  int
}

// NewCounter returns an empty counter.
func NewCounter() *Counter {
	return &Counter{counts: make(map[string]int)}
}

// Add increments key by one.
func (c *Counter) Add(key string) { c.AddN(key, 1) }

// AddN increments key by n. A zero increment is a no-op: it must not
// materialize a phantom zero-count key — those would surface in Items(),
// Len() and every rendered breakdown, and checkpoint/shard payloads are
// allowed to carry zero counts.
func (c *Counter) AddN(key string, n int) {
	if n == 0 {
		return
	}
	c.counts[key] += n
	c.total += n
}

// Get returns the count for key.
func (c *Counter) Get(key string) int { return c.counts[key] }

// Total returns the sum of all counts.
func (c *Counter) Total() int { return c.total }

// Len returns the number of distinct keys.
func (c *Counter) Len() int { return len(c.counts) }

// Share returns key's fraction of the total, or 0 if the counter is empty.
func (c *Counter) Share(key string) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.counts[key]) / float64(c.total)
}

// Item is one (key, count) pair of a Counter.
type Item struct {
	Key   string
	Count int
	Share float64
}

// Items returns all items sorted by descending count, ties broken by key,
// with Share filled in.
func (c *Counter) Items() []Item {
	out := make([]Item, 0, len(c.counts))
	for k, v := range c.counts {
		out = append(out, Item{Key: k, Count: v, Share: c.shareOf(v)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

func (c *Counter) shareOf(v int) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(v) / float64(c.total)
}

// TopK returns the k highest-count items; the remainder, if any, is folded
// into a synthetic "Others" item (as Figures 6 and 7 do). A real key named
// "Others" (a legitimate content category) is merged into the fold-in item
// rather than reported alongside it, so no share is ever double-counted
// under a duplicated label.
func (c *Counter) TopK(k int) []Item {
	if k < 0 {
		k = 0
	}
	items := c.Items()
	if len(items) <= k {
		return items
	}
	rest := 0
	for _, it := range items[k:] {
		rest += it.Count
	}
	out := make([]Item, 0, k+1)
	for _, it := range items[:k] {
		if it.Key == "Others" {
			rest += it.Count
			continue
		}
		out = append(out, it)
	}
	return append(out, Item{Key: "Others", Count: rest, Share: c.shareOf(rest)})
}

// IntHist is a histogram over small non-negative integers (e.g. redirect
// hop counts, Figure 5).
type IntHist struct {
	counts map[int]int
	total  int
}

// NewIntHist returns an empty histogram.
func NewIntHist() *IntHist {
	return &IntHist{counts: make(map[int]int)}
}

// Observe records one occurrence of v. Negative values panic: the
// quantities we histogram (hop counts, chain lengths) are non-negative by
// construction, so a negative value is a pipeline bug.
func (h *IntHist) Observe(v int) {
	if v < 0 {
		panic(fmt.Sprintf("stats: negative histogram value %d", v))
	}
	h.counts[v] += 1
	h.total++
}

// Buckets returns (value, count) pairs for every value in [min observed,
// max observed], including zero-count gaps, in ascending order. Empty
// histogram returns nil.
func (h *IntHist) Buckets() []IntBucket {
	if h.total == 0 {
		return nil
	}
	minV, maxV := math.MaxInt, 0
	for v := range h.counts {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	out := make([]IntBucket, 0, maxV-minV+1)
	for v := minV; v <= maxV; v++ {
		out = append(out, IntBucket{Value: v, Count: h.counts[v]})
	}
	return out
}

// IntBucket is one histogram bucket.
type IntBucket struct {
	Value int
	Count int
}

// Series is a cumulative time series: the i-th point is the cumulative
// count of "hits" (e.g. malicious URLs) after i+1 observations (e.g.
// crawled URLs). This is exactly the axes of Figure 3.
//
// The cumulative count rises by 0 or 1 per observation, so the series is
// stored as one bit per observation, 64 to a word, with the hit count
// before each word; any cumulative point is then a prefix count plus one
// popcount.
type Series struct {
	n     int      // observations
	hits  int      // hits over all observations
	words []uint64 // bit i%64 of words[i/64]: observation i was a hit
	// before[w] is the number of hits in words[:w].
	before []int
}

// NewSeries returns an empty series.
func NewSeries() *Series { return &Series{} }

// Observe appends one observation; hit says whether it increments the
// cumulative count.
func (s *Series) Observe(hit bool) {
	var w uint64
	if hit {
		w = 1
	}
	s.push(w, 1)
}

// push appends the low k (1..64) bits of w as k observations; w has no
// bit set at or above k.
func (s *Series) push(w uint64, k int) {
	if off := s.n % 64; off == 0 {
		s.words = append(s.words, w)
		s.before = append(s.before, s.hits)
	} else {
		last := len(s.words) - 1
		s.words[last] |= w << off
		if off+k > 64 {
			s.words = append(s.words, w>>(64-off))
			s.before = append(s.before, s.before[last]+bits.OnesCount64(s.words[last]))
		}
	}
	s.n += k
	s.hits += bits.OnesCount64(w)
}

// ObserveBits appends n observations packed one bit each, least
// significant bit first: observation j is a hit when bit j%8 of
// packed[j/8] is set. Bits past the n-th are ignored. It is Observe over
// the unpacked bits, a word at a time.
func (s *Series) ObserveBits(packed []byte, n int) {
	for done := 0; done < n; done += 64 {
		k := min(n-done, 64)
		var w uint64
		for i, b := range packed[done/8 : (done+k+7)/8] {
			w |= uint64(b) << (8 * i)
		}
		if k < 64 {
			w &= 1<<k - 1
		}
		s.push(w, k)
	}
}

// Bits returns the series packed as ObserveBits reads it: (Len()+7)/8
// bytes, with the unused high bits of the last byte clear.
func (s *Series) Bits() []byte {
	out := make([]byte, (s.n+7)/8)
	for i := range out {
		out[i] = byte(s.words[i/8] >> (8 * (i % 8)))
	}
	return out
}

// upTo returns the cumulative count after the first m observations.
func (s *Series) upTo(m int) int {
	w := m / 64
	if w == len(s.words) {
		return s.hits
	}
	return s.before[w] + bits.OnesCount64(s.words[w]&(1<<(m%64)-1))
}

// Len returns the number of observations.
func (s *Series) Len() int { return s.n }

// Final returns the final cumulative count (0 if empty).
func (s *Series) Final() int { return s.hits }

// Burst is a window of observations whose hit rate far exceeds the series
// average — the Figure 3 signature of a paid campaign on a manual-surf
// exchange.
type Burst struct {
	Start, End int     // observation index range [Start, End)
	Rate       float64 // hit rate inside the window
}

// Bursts scans the series with a sliding window and returns maximal runs
// of consecutive windows whose hit rate is at least factor times the
// overall rate (and at least 0.5 absolute). The final window may be a
// partial one (fewer than window observations): a campaign burst ending
// at the last observation is examined like any other instead of being
// silently dropped. A smooth near-linear series — the auto-surf signature
// — yields no bursts.
func (s *Series) Bursts(window int, factor float64) []Burst {
	n := s.n
	if n == 0 || window <= 0 || window > n {
		return nil
	}
	overall := float64(s.Final()) / float64(n)
	threshold := overall * factor
	if threshold < 0.5 {
		threshold = 0.5
	}
	var bursts []Burst
	inBurst := false
	var start int
	for i := 0; i < n; i += window {
		end := i + window
		if end > n {
			end = n // trailing partial window
		}
		hits := s.upTo(end) - s.upTo(i)
		rate := float64(hits) / float64(end-i)
		if rate >= threshold {
			if !inBurst {
				inBurst = true
				start = i
			}
		} else if inBurst {
			bursts = append(bursts, s.makeBurst(start, i))
			inBurst = false
		}
	}
	if inBurst {
		bursts = append(bursts, s.makeBurst(start, n))
	}
	return bursts
}

func (s *Series) makeBurst(start, end int) Burst {
	hits := s.upTo(end) - s.upTo(start)
	return Burst{Start: start, End: end, Rate: float64(hits) / float64(end-start)}
}

// Downsample returns k evenly spaced (x, y) points of the series for
// plotting. If the series has fewer than k points all points are returned.
// For every valid k the result ends at (Len, Final) — the trailing partial
// bucket is represented, never dropped — and the x values are strictly
// increasing.
func (s *Series) Downsample(k int) []Point {
	n := s.n
	if n == 0 || k <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	out := make([]Point, 0, k)
	for i := 0; i < k; i++ {
		idx := downsampleIdx(i, n, k)
		if idx > n {
			idx = n
		}
		out = append(out, Point{X: idx, Y: s.upTo(idx)})
	}
	return out
}

// downsampleIdx computes ceil-spaced bucket boundary (i+1)*n/k without
// forming the product (i+1)*n, which overflows int for series longer than
// MaxInt/k — the wrapped product went negative and indexed cum out of
// range. The decomposition (i+1)*(n/k) + (i+1)*(n%k)/k is exact and its
// intermediates are bounded by n and k*k, so it is safe for any series
// that fits in memory at any plot-sized k.
func downsampleIdx(i, n, k int) int {
	q, r := n/k, n%k
	return (i+1)*q + (i+1)*r/k
}

// AppendSegment folds another series onto the end of s, as when a
// longitudinal study stitches per-epoch segments into one cross-epoch
// series. The segment's cumulative counts are re-based on s's final count
// so the folded series stays monotone: the pre-fix fold appended the raw
// cumulative arrays, the counts reset to zero at every epoch boundary, and
// Bursts — which differences the cumulative array across window edges —
// computed negative hit counts for any window spanning a boundary,
// splitting or dropping bursts that crossed epochs.
func (s *Series) AppendSegment(seg *Series) {
	words, n := seg.words, seg.n
	if seg == s {
		// push writes into s.words' last word, which is seg's too.
		words = append([]uint64(nil), words...)
	}
	for i, w := range words {
		s.push(w, min(n-64*i, 64))
	}
}

// ConcatSeries folds per-epoch segments, in order, into one series.
// Nil segments are skipped; the result is independent storage.
func ConcatSeries(segs ...*Series) *Series {
	out := NewSeries()
	for _, seg := range segs {
		if seg == nil {
			continue
		}
		out.AppendSegment(seg)
	}
	return out
}

// Point is an (x, y) plot point.
type Point struct {
	X, Y int
}

// Pct formats a fraction as a percentage with one decimal, the format used
// throughout the paper's tables ("33.8%").
func Pct(frac float64) string {
	return fmt.Sprintf("%.1f%%", frac*100)
}

// Ratio returns a/b as float64, or 0 when b == 0.
func Ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
