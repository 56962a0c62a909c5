package stats

import (
	"math"
	"math/big"
	"reflect"
	"testing"
)

// TestBurstsTrailingPartialWindow is the regression test for the scan
// loop's silent tail drop: a campaign burst living entirely in the final
// < window observations (here the last 5 of 25, window 10) must be
// reported. The pre-fix loop (i+window <= n) never examined that tail and
// returned no bursts.
func TestBurstsTrailingPartialWindow(t *testing.T) {
	s := NewSeries()
	for i := 0; i < 20; i++ {
		s.Observe(false)
	}
	for i := 0; i < 5; i++ {
		s.Observe(true)
	}
	bursts := s.Bursts(10, 3)
	if len(bursts) != 1 {
		t.Fatalf("bursts = %+v, want exactly the trailing burst", bursts)
	}
	b := bursts[0]
	if b.Start != 20 || b.End != 25 {
		t.Fatalf("trailing burst = [%d,%d), want [20,25)", b.Start, b.End)
	}
	if b.Rate != 1.0 {
		t.Fatalf("trailing burst rate = %v, want 1.0", b.Rate)
	}
}

// TestBurstsSpanningIntoTail checks a burst that starts in the last full
// window and runs through the partial tail: the reported End must be the
// series length, not the last full-window boundary.
func TestBurstsSpanningIntoTail(t *testing.T) {
	s := NewSeries()
	for i := 0; i < 30; i++ {
		s.Observe(false)
	}
	for i := 0; i < 15; i++ { // hot from 30 to 45: one full window + tail
		s.Observe(true)
	}
	bursts := s.Bursts(10, 2)
	if len(bursts) != 1 {
		t.Fatalf("bursts = %+v, want 1", bursts)
	}
	if bursts[0].Start != 30 || bursts[0].End != 45 {
		t.Fatalf("burst = [%d,%d), want [30,45)", bursts[0].Start, bursts[0].End)
	}
}

// TestBurstsQuietTailClosesBurst makes sure the partial tail also
// terminates a burst correctly when it is quiet.
func TestBurstsQuietTailClosesBurst(t *testing.T) {
	s := NewSeries()
	for i := 0; i < 10; i++ {
		s.Observe(true)
	}
	for i := 0; i < 13; i++ {
		s.Observe(false)
	}
	bursts := s.Bursts(10, 2)
	if len(bursts) != 1 {
		t.Fatalf("bursts = %+v, want 1", bursts)
	}
	if bursts[0].Start != 0 || bursts[0].End != 10 {
		t.Fatalf("burst = [%d,%d), want [0,10)", bursts[0].Start, bursts[0].End)
	}
}

// TestTopKOthersCollision is the regression test for the synthetic
// fold-in item colliding with a real key named "Others": the pre-fix code
// returned two "Others" rows (the real one inside the top k plus the
// synthetic remainder), double-reporting the label's share.
func TestTopKOthersCollision(t *testing.T) {
	c := NewCounter()
	c.AddN("Business", 50)
	c.AddN("Others", 30) // a real key, inside the top k by count
	c.AddN("Advertisement", 10)
	c.AddN("Entertainment", 6)
	c.AddN("IT", 4)

	items := c.TopK(3) // top 3 = Business, Others, Advertisement; rest = 10
	seen := map[string]int{}
	for _, it := range items {
		seen[it.Key]++
		if seen[it.Key] > 1 {
			t.Fatalf("duplicate key %q in TopK: %+v", it.Key, items)
		}
	}
	// The real Others (30) merges with the folded remainder (6+4).
	var others Item
	found := false
	for _, it := range items {
		if it.Key == "Others" {
			others, found = it, true
		}
	}
	if !found {
		t.Fatalf("no Others item: %+v", items)
	}
	if others.Count != 40 {
		t.Fatalf("Others count = %d, want 40 (30 real + 10 folded)", others.Count)
	}
	if math.Abs(others.Share-0.4) > 1e-12 {
		t.Fatalf("Others share = %v, want 0.4", others.Share)
	}
	// Shares must sum to exactly the whole: nothing double-counted.
	total := 0.0
	for _, it := range items {
		total += it.Share
	}
	if math.Abs(total-1.0) > 1e-12 {
		t.Fatalf("shares sum to %v, want 1.0: %+v", total, items)
	}
}

// TestTopKOthersInTail: a real "Others" key below the cut simply folds
// into the remainder (one row, counts added once).
func TestTopKOthersInTail(t *testing.T) {
	c := NewCounter()
	c.AddN("a", 10)
	c.AddN("b", 8)
	c.AddN("Others", 2)
	c.AddN("c", 1)
	items := c.TopK(2)
	if len(items) != 3 {
		t.Fatalf("items = %+v, want 3", items)
	}
	last := items[len(items)-1]
	if last.Key != "Others" || last.Count != 3 {
		t.Fatalf("fold-in = %+v, want Others/3", last)
	}
}

// TestStatsEdgeCases is the boundary table for the whole package:
// zero/one-element inputs and k out of range for TopK, Downsample,
// Buckets and Bursts.
func TestStatsEdgeCases(t *testing.T) {
	t.Run("TopK", func(t *testing.T) {
		c := NewCounter()
		if got := c.TopK(3); len(got) != 0 {
			t.Fatalf("empty TopK = %+v", got)
		}
		c.AddN("a", 2)
		if got := c.TopK(1); len(got) != 1 || got[0].Key != "a" {
			t.Fatalf("one-element TopK(1) = %+v", got)
		}
		if got := c.TopK(5); len(got) != 1 {
			t.Fatalf("k > n TopK = %+v, want the single real item", got)
		}
		c.AddN("b", 1)
		// k == 0 folds everything; k < 0 must behave like 0, not panic.
		for _, k := range []int{0, -1} {
			got := c.TopK(k)
			if len(got) != 1 || got[0].Key != "Others" || got[0].Count != 3 {
				t.Fatalf("TopK(%d) = %+v, want a single Others item of 3", k, got)
			}
		}
	})

	t.Run("Downsample", func(t *testing.T) {
		s := NewSeries()
		if got := s.Downsample(5); got != nil {
			t.Fatalf("empty Downsample = %+v", got)
		}
		s.Observe(true)
		if got := s.Downsample(0); got != nil {
			t.Fatalf("k=0 Downsample = %+v", got)
		}
		if got := s.Downsample(-2); got != nil {
			t.Fatalf("k<0 Downsample = %+v", got)
		}
		one := []Point{{X: 1, Y: 1}}
		if got := s.Downsample(1); !reflect.DeepEqual(got, one) {
			t.Fatalf("one-element Downsample(1) = %+v", got)
		}
		// k > n returns every point exactly once.
		if got := s.Downsample(10); !reflect.DeepEqual(got, one) {
			t.Fatalf("k > n Downsample = %+v, want %+v", got, one)
		}
		s.Observe(false)
		s.Observe(true)
		got := s.Downsample(7)
		if len(got) != 3 || got[2].X != 3 || got[2].Y != 2 {
			t.Fatalf("k > n Downsample(7) over 3 = %+v", got)
		}
	})

	t.Run("Buckets", func(t *testing.T) {
		h := NewIntHist()
		if got := h.Buckets(); got != nil {
			t.Fatalf("empty Buckets = %+v", got)
		}
		if h.Max() != 0 || h.Mean() != 0 {
			t.Fatalf("empty hist Max/Mean = %d/%v", h.Max(), h.Mean())
		}
		h.Observe(3)
		got := h.Buckets()
		want := []IntBucket{{Value: 3, Count: 1}}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("one-element Buckets = %+v, want %+v", got, want)
		}
		// Gap filling between min and max observed, zero-count rows kept.
		h.Observe(5)
		got = h.Buckets()
		want = []IntBucket{{Value: 3, Count: 1}, {Value: 4, Count: 0}, {Value: 5, Count: 1}}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("gap Buckets = %+v, want %+v", got, want)
		}
	})

	t.Run("Bursts", func(t *testing.T) {
		s := NewSeries()
		s.Observe(true)
		// window == n: the whole series is one window.
		if got := s.Bursts(1, 1); len(got) != 1 || got[0].End != 1 {
			t.Fatalf("window==n Bursts = %+v", got)
		}
		if got := s.Bursts(-1, 1); got != nil {
			t.Fatalf("negative window Bursts = %+v", got)
		}
	})
}

// TestDownsampleBoundaryTable is the exhaustive boundary audit for
// Downsample: every (n, k) pair in a small grid, including k <= 0,
// k == Len(), k == Len()±1 and k far beyond Len(). For every valid k the
// result must have exactly min(k, n) points, strictly increasing x, end
// exactly at (n, Final) — the trailing partial bucket is never dropped —
// and every y must be the true cumulative count at its x.
func TestDownsampleBoundaryTable(t *testing.T) {
	for n := 0; n <= 40; n++ {
		s := NewSeries()
		for i := 0; i < n; i++ {
			s.Observe(i%3 == 0) // any deterministic hit pattern
		}
		cum := s.Cumulative()
		for k := -2; k <= n+5; k++ {
			got := s.Downsample(k)
			if n == 0 || k <= 0 {
				if got != nil {
					t.Fatalf("n=%d k=%d: want nil, got %+v", n, k, got)
				}
				continue
			}
			wantLen := k
			if wantLen > n {
				wantLen = n
			}
			if len(got) != wantLen {
				t.Fatalf("n=%d k=%d: %d points, want %d", n, k, len(got), wantLen)
			}
			prevX := 0
			for _, p := range got {
				if p.X <= prevX || p.X > n {
					t.Fatalf("n=%d k=%d: x=%d not strictly increasing in (0,%d]: %+v", n, k, p.X, n, got)
				}
				if want := cum[p.X-1]; p.Y != want {
					t.Fatalf("n=%d k=%d: y=%d at x=%d, want %d", n, k, p.Y, p.X, want)
				}
				prevX = p.X
			}
			if last := got[len(got)-1]; last.X != n || last.Y != s.Final() {
				t.Fatalf("n=%d k=%d: final point %+v, want (%d,%d) — trailing bucket dropped", n, k, last, n, s.Final())
			}
		}
	}
}

// TestDownsampleIdxOverflow is the regression test for the bucket-index
// arithmetic: the pre-fix expression (i+1)*n/k formed the product (i+1)*n,
// which wraps negative once n exceeds MaxInt/k — Downsample on such a
// series indexed cum[idx-1] out of range and panicked. The decomposed form
// must agree with arbitrary-precision arithmetic at the extremes.
func TestDownsampleIdxOverflow(t *testing.T) {
	cases := []struct{ i, n, k int }{
		{0, math.MaxInt - 7, 3},
		{1, math.MaxInt - 7, 3},
		{2, math.MaxInt - 7, 3},
		{6, math.MaxInt / 2, 7},
		{23, math.MaxInt - 1, 24},
		{0, 10, 3}, // small sanity anchor
		{2, 10, 3},
	}
	for _, c := range cases {
		want := new(big.Int).Mul(big.NewInt(int64(c.i+1)), big.NewInt(int64(c.n)))
		want.Div(want, big.NewInt(int64(c.k)))
		if !want.IsInt64() {
			t.Fatalf("case %+v: expected value does not fit int64", c)
		}
		if got := downsampleIdx(c.i, c.n, c.k); int64(got) != want.Int64() {
			t.Fatalf("downsampleIdx(%d, %d, %d) = %d, want %d", c.i, c.n, c.k, got, want.Int64())
		}
	}
}

// TestBurstsAcrossEpochBoundary is the regression test for folding
// per-epoch segments: a campaign burst whose hot region straddles the
// epoch boundary (last 5 observations of epoch A, first 5 of epoch B) must
// be reported as ONE burst spanning the boundary. The pre-fix fold
// appended raw cumulative arrays without re-basing, so the folded series
// reset to the segment's own count at the boundary; the window straddling
// it differenced a smaller count from a larger one, saw zero (or negative)
// hits, and closed the burst at the boundary — splitting the campaign in
// two or dropping its second half.
func TestBurstsAcrossEpochBoundary(t *testing.T) {
	epochA := NewSeries()
	for i := 0; i < 15; i++ {
		epochA.Observe(false)
	}
	for i := 0; i < 5; i++ {
		epochA.Observe(true)
	}
	epochB := NewSeries()
	for i := 0; i < 5; i++ {
		epochB.Observe(true)
	}
	for i := 0; i < 15; i++ {
		epochB.Observe(false)
	}

	folded := ConcatSeries(epochA, epochB)
	if folded.Len() != 40 {
		t.Fatalf("folded Len = %d, want 40", folded.Len())
	}
	if folded.Final() != epochA.Final()+epochB.Final() {
		t.Fatalf("folded Final = %d, want %d (monotone re-based fold)",
			folded.Final(), epochA.Final()+epochB.Final())
	}
	cum := folded.Cumulative()
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("folded series not monotone at %d: %d < %d", i, cum[i], cum[i-1])
		}
	}

	// Hot region is observations [15, 25): windows [10,20) and [20,30) are
	// both half-hot, over threshold, and must merge into one burst.
	bursts := folded.Bursts(10, 1.6)
	if len(bursts) != 1 {
		t.Fatalf("bursts = %+v, want exactly one boundary-spanning burst", bursts)
	}
	if b := bursts[0]; b.Start != 10 || b.End != 30 {
		t.Fatalf("burst = [%d,%d), want [10,30) spanning the epoch boundary at 20", b.Start, b.End)
	}
}

// TestConcatSeriesEdges: nil and empty segments fold to nothing.
func TestConcatSeriesEdges(t *testing.T) {
	if got := ConcatSeries(); got.Len() != 0 {
		t.Fatalf("empty ConcatSeries Len = %d", got.Len())
	}
	s := NewSeries()
	s.Observe(true)
	folded := ConcatSeries(nil, NewSeries(), s)
	if folded.Len() != 1 || folded.Final() != 1 {
		t.Fatalf("ConcatSeries(nil, empty, s) = len %d final %d", folded.Len(), folded.Final())
	}
	// The fold is a copy: growing it must not touch the source.
	folded.Observe(true)
	if s.Len() != 1 {
		t.Fatalf("source series mutated by fold: len %d", s.Len())
	}
}
