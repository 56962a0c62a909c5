package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

func TestCounterBasics(t *testing.T) {
	c := NewCounter()
	c.Add("com")
	c.Add("com")
	c.AddN("net", 3)
	if c.Get("com") != 2 || c.Get("net") != 3 || c.Get("org") != 0 {
		t.Fatalf("counts wrong: com=%d net=%d org=%d", c.Get("com"), c.Get("net"), c.Get("org"))
	}
	if c.Total() != 5 || c.Len() != 2 {
		t.Fatalf("total=%d len=%d, want 5, 2", c.Total(), c.Len())
	}
	if got := c.Share("net"); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("Share(net) = %v, want 0.6", got)
	}
}

func TestCounterEmptyShare(t *testing.T) {
	c := NewCounter()
	if c.Share("x") != 0 {
		t.Fatal("empty counter share should be 0")
	}
}

func TestItemsSorted(t *testing.T) {
	c := NewCounter()
	c.AddN("b", 5)
	c.AddN("a", 5)
	c.AddN("c", 9)
	items := c.Items()
	if items[0].Key != "c" || items[1].Key != "a" || items[2].Key != "b" {
		t.Fatalf("Items order wrong: %+v", items)
	}
	sum := 0.0
	for _, it := range items {
		sum += it.Share
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v, want 1", sum)
	}
}

func TestTopKFoldsOthers(t *testing.T) {
	c := NewCounter()
	c.AddN("com", 70)
	c.AddN("net", 22)
	c.AddN("de", 2)
	c.AddN("org", 1)
	c.AddN("ru", 3)
	c.AddN("info", 2)
	top := c.TopK(4)
	if len(top) != 5 {
		t.Fatalf("TopK(4) returned %d items, want 5 (4 + Others)", len(top))
	}
	if top[len(top)-1].Key != "Others" {
		t.Fatalf("last item = %q, want Others", top[len(top)-1].Key)
	}
	// Top 4 by count: com(70), net(22), ru(3), de(2); Others = info(2)+org(1).
	if top[len(top)-1].Count != 3 {
		t.Fatalf("Others count = %d, want 3", top[len(top)-1].Count)
	}
}

func TestTopKNoFoldWhenSmall(t *testing.T) {
	c := NewCounter()
	c.Add("a")
	c.Add("b")
	top := c.TopK(5)
	if len(top) != 2 {
		t.Fatalf("TopK(5) on 2 keys returned %d items", len(top))
	}
	for _, it := range top {
		if it.Key == "Others" {
			t.Fatal("unexpected Others item")
		}
	}
}

func TestIntHist(t *testing.T) {
	h := NewIntHist()
	for _, v := range []int{1, 1, 2, 3, 3, 3, 7} {
		h.Observe(v)
	}
	if h.Total() != 7 || h.Max() != 7 {
		t.Fatalf("total=%d max=%d", h.Total(), h.Max())
	}
	b := h.Buckets()
	if len(b) != 7 { // values 1..7
		t.Fatalf("buckets = %d, want 7", len(b))
	}
	if b[0].Value != 1 || b[0].Count != 2 {
		t.Fatalf("bucket[0] = %+v", b[0])
	}
	if b[3].Value != 4 || b[3].Count != 0 {
		t.Fatalf("gap bucket = %+v, want value 4 count 0", b[3])
	}
	wantMean := (1.0*2 + 2 + 3*3 + 7) / 7.0
	if math.Abs(h.Mean()-wantMean) > 1e-12 {
		t.Fatalf("mean = %v, want %v", h.Mean(), wantMean)
	}
}

func TestIntHistEmpty(t *testing.T) {
	h := NewIntHist()
	if h.Buckets() != nil || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram accessors should be zero-valued")
	}
}

func TestIntHistNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative value")
		}
	}()
	NewIntHist().Observe(-1)
}

func TestSeriesCumulative(t *testing.T) {
	s := NewSeries()
	hits := []bool{true, false, true, true, false}
	for _, h := range hits {
		s.Observe(h)
	}
	want := []int{1, 1, 2, 3, 3}
	got := s.Cumulative()
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cum[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if s.Final() != 3 {
		t.Fatalf("Final = %d, want 3", s.Final())
	}
}

func TestSeriesMonotoneProperty(t *testing.T) {
	f := func(bits []bool) bool {
		s := NewSeries()
		for _, b := range bits {
			s.Observe(b)
		}
		cum := s.Cumulative()
		prev := 0
		for _, v := range cum {
			if v < prev || v > prev+1 {
				return false
			}
			prev = v
		}
		return s.Final() == prev
	}
	if err := quick.Check(f, testutil.QuickConfig(t, 200)); err != nil {
		t.Fatal(err)
	}
}

func TestBurstsDetectsCampaign(t *testing.T) {
	s := NewSeries()
	// 500 quiet observations at 5% hit rate, then a 200-wide burst at 90%,
	// then 500 more quiet ones. This is the Figure 3 manual-surf shape.
	for i := 0; i < 500; i++ {
		s.Observe(i%20 == 0)
	}
	for i := 0; i < 200; i++ {
		s.Observe(i%10 != 0)
	}
	for i := 0; i < 500; i++ {
		s.Observe(i%20 == 0)
	}
	bursts := s.Bursts(100, 3)
	if len(bursts) != 1 {
		t.Fatalf("bursts = %+v, want exactly 1", bursts)
	}
	b := bursts[0]
	if b.Start < 400 || b.Start > 600 || b.End < 600 || b.End > 800 {
		t.Fatalf("burst window [%d,%d) not over the campaign region", b.Start, b.End)
	}
	if b.Rate < 0.7 {
		t.Fatalf("burst rate = %v, want >= 0.7", b.Rate)
	}
}

func TestBurstsSmoothSeriesHasNone(t *testing.T) {
	s := NewSeries()
	// Steady 30% hit rate — the auto-surf near-linear signature.
	for i := 0; i < 2000; i++ {
		s.Observe(i%10 < 3)
	}
	if bursts := s.Bursts(100, 3); len(bursts) != 0 {
		t.Fatalf("smooth series produced bursts: %+v", bursts)
	}
}

func TestBurstsEdgeCases(t *testing.T) {
	s := NewSeries()
	if s.Bursts(10, 3) != nil {
		t.Fatal("empty series should have no bursts")
	}
	s.Observe(true)
	if s.Bursts(0, 3) != nil {
		t.Fatal("window 0 should yield nil")
	}
	if s.Bursts(5, 3) != nil {
		t.Fatal("window larger than series should yield nil")
	}
}

func TestBurstAtEndOfSeries(t *testing.T) {
	s := NewSeries()
	for i := 0; i < 300; i++ {
		s.Observe(false)
	}
	for i := 0; i < 100; i++ {
		s.Observe(true)
	}
	bursts := s.Bursts(50, 3)
	if len(bursts) != 1 {
		t.Fatalf("bursts = %+v, want 1 trailing burst", bursts)
	}
	if bursts[0].End != 400 {
		t.Fatalf("trailing burst end = %d, want 400", bursts[0].End)
	}
}

func TestDownsample(t *testing.T) {
	s := NewSeries()
	for i := 0; i < 1000; i++ {
		s.Observe(true)
	}
	pts := s.Downsample(10)
	if len(pts) != 10 {
		t.Fatalf("Downsample(10) = %d points", len(pts))
	}
	if pts[9].X != 1000 || pts[9].Y != 1000 {
		t.Fatalf("last point = %+v, want (1000,1000)", pts[9])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X <= pts[i-1].X {
			t.Fatalf("points not increasing in X: %+v", pts)
		}
	}
}

func TestDownsampleSmall(t *testing.T) {
	s := NewSeries()
	s.Observe(true)
	s.Observe(false)
	pts := s.Downsample(10)
	if len(pts) != 2 {
		t.Fatalf("Downsample of 2-point series = %d points", len(pts))
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.338); got != "33.8%" {
		t.Fatalf("Pct(0.338) = %q", got)
	}
	if got := Pct(0); got != "0.0%" {
		t.Fatalf("Pct(0) = %q", got)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Fatal("Ratio(_, 0) must be 0")
	}
	if Ratio(3, 4) != 0.75 {
		t.Fatal("Ratio(3,4) != 0.75")
	}
}

func BenchmarkSeriesObserve(b *testing.B) {
	s := NewSeries()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Observe(i%4 == 0)
	}
}

func BenchmarkBursts(b *testing.B) {
	s := NewSeries()
	for i := 0; i < 100000; i++ {
		s.Observe(i%7 == 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Bursts(500, 3)
	}
}

// Accessors only tests read.

// Total returns the number of observations.
func (h *IntHist) Total() int { return h.total }

// Max returns the largest observed value, or 0 if empty.
func (h *IntHist) Max() int {
	maxV := 0
	for v := range h.counts {
		if v > maxV {
			maxV = v
		}
	}
	return maxV
}

// Mean returns the mean observed value, or 0 if empty.
func (h *IntHist) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	sum := 0
	for v, c := range h.counts {
		sum += v * c
	}
	return float64(sum) / float64(h.total)
}

// Cumulative returns the cumulative counts, one per observation.
func (s *Series) Cumulative() []int {
	out := make([]int, s.n)
	c := 0
	for i := range out {
		c += int(s.words[i/64] >> (i % 64) & 1)
		out[i] = c
	}
	return out
}
