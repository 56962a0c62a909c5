package simrand

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Float64(), b.Float64(); av != bv {
			t.Fatalf("iteration %d: sources diverged: %v != %v", i, av, bv)
		}
	}
}

func TestSubStreamsIndependentOfParentConsumption(t *testing.T) {
	a := New(7)
	b := New(7)
	// Consume different amounts from the parents.
	for i := 0; i < 100; i++ {
		a.Float64()
	}
	b.Float64()
	sa := a.Sub("web")
	sb := b.Sub("web")
	for i := 0; i < 100; i++ {
		if sa.Float64() != sb.Float64() {
			t.Fatal("Sub streams depend on parent consumption; they must not")
		}
	}
}

func TestSubStreamsDifferByName(t *testing.T) {
	s := New(7)
	x := s.Sub("alpha")
	y := s.Sub("beta")
	same := 0
	for i := 0; i < 64; i++ {
		if x.Float64() == y.Float64() {
			same++
		}
	}
	if same == 64 {
		t.Fatal("differently named sub-streams produced identical output")
	}
}

func TestRangeInclusive(t *testing.T) {
	s := New(1)
	seenLo, seenHi := false, false
	for i := 0; i < 10000; i++ {
		v := s.Range(3, 5)
		if v < 3 || v > 5 {
			t.Fatalf("Range(3,5) produced %d", v)
		}
		if v == 3 {
			seenLo = true
		}
		if v == 5 {
			seenHi = true
		}
	}
	if !seenLo || !seenHi {
		t.Fatal("Range did not cover both endpoints in 10k draws")
	}
}

func TestRangePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for hi < lo")
		}
	}()
	New(1).Range(5, 3)
}

func TestBoolEdges(t *testing.T) {
	s := New(1)
	for i := 0; i < 100; i++ {
		if s.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !s.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolFrequency(t *testing.T) {
	s := New(99)
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if math.Abs(got-0.3) > 0.02 {
		t.Fatalf("Bool(0.3) frequency = %v, want ~0.3", got)
	}
}

func TestWeightedDistribution(t *testing.T) {
	s := New(5)
	w := NewWeighted([]float64{1, 0, 3})
	counts := make([]int, 3)
	n := 100000
	for i := 0; i < n; i++ {
		counts[w.Sample(s)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight bucket sampled %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("weight-3 / weight-1 ratio = %v, want ~3", ratio)
	}
}

func TestWeightedPanics(t *testing.T) {
	cases := []struct {
		name    string
		weights []float64
	}{
		{"empty", nil},
		{"all-zero", []float64{0, 0}},
		{"negative", []float64{1, -1}},
		{"nan", []float64{math.NaN()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewWeighted(%v) did not panic", tc.weights)
				}
			}()
			NewWeighted(tc.weights)
		})
	}
}

func TestGeometricMean(t *testing.T) {
	s := New(11)
	p := 0.25
	n, sum := 50000, 0
	for i := 0; i < n; i++ {
		v := s.Geometric(p)
		if v < 1 {
			t.Fatalf("Geometric returned %d < 1", v)
		}
		sum += v
	}
	mean := float64(sum) / float64(n)
	if math.Abs(mean-1/p) > 0.15 {
		t.Fatalf("Geometric(%v) mean = %v, want ~%v", p, mean, 1/p)
	}
}

func TestGeometricPEqualsOne(t *testing.T) {
	s := New(1)
	for i := 0; i < 10; i++ {
		if v := s.Geometric(1); v != 1 {
			t.Fatalf("Geometric(1) = %d, want 1", v)
		}
	}
}

func TestWordProperties(t *testing.T) {
	f := func(seed uint64) bool {
		s := New(seed)
		w := s.Word(3, 9)
		if len(w) < 3 || len(w) > 9 {
			return false
		}
		for _, c := range w {
			if c < 'a' || c > 'z' {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, testutil.QuickConfig(t, 200)); err != nil {
		t.Fatal(err)
	}
}

func TestTokenProperties(t *testing.T) {
	f := func(seed uint64) bool {
		s := New(seed)
		tok := s.Token(12)
		hx := s.HexToken(8)
		if len(tok) != 12 || len(hx) != 8 {
			return false
		}
		for _, c := range hx {
			isHex := (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')
			if !isHex {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, testutil.QuickConfig(t, 200)); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWeightedSample(b *testing.B) {
	s := New(1)
	w := NewWeighted([]float64{5, 3, 2, 1, 0.5, 0.25})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Sample(s)
	}
}

func BenchmarkWord(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Word(4, 12)
	}
}

func TestSeedAccessor(t *testing.T) {
	if New(99).Seed() != 99 {
		t.Fatal("Seed() mismatch")
	}
}

func TestPickAndWeightedPick(t *testing.T) {
	s := New(3)
	items := []string{"a", "b", "c"}
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		seen[Pick(s, items)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("Pick coverage = %v", seen)
	}
	counts := map[string]int{}
	for i := 0; i < 10000; i++ {
		counts[WeightedPick(s, items, []float64{0, 1, 3})]++
	}
	if counts["a"] != 0 {
		t.Fatal("zero-weight item picked")
	}
	if counts["c"] < counts["b"] {
		t.Fatalf("weighting ignored: %v", counts)
	}
}

func TestPickPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pick on empty slice did not panic")
		}
	}()
	Pick(New(1), []int{})
}

func TestWeightedPickLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	WeightedPick(New(1), []int{1, 2}, []float64{1})
}

func TestLowerToken(t *testing.T) {
	s := New(5)
	tok := s.LowerToken(10)
	if len(tok) != 10 {
		t.Fatalf("len = %d", len(tok))
	}
	for _, c := range tok {
		if c < 'a' || c > 'z' {
			t.Fatalf("non-alpha %q in %q", c, tok)
		}
	}
}

// TestBorrowMatchesSub checks that a pooled, reseeded source draws the
// same stream as a fresh Sub of the concatenated name, helper by helper,
// even when its previous user stopped mid-stream. The append forms of
// Word and Token must also draw exactly what their string forms draw.
func TestBorrowMatchesSub(t *testing.T) {
	parent := New(42)
	weights := NewWeighted([]float64{5, 0, 3, 2})
	items := []string{"a", "b", "c", "d", "e", "f", "g"}
	type helper struct {
		name string
		draw func(s *Source) any
		// ref draws the expected value from the fresh source; nil means draw.
		ref func(s *Source) any
	}
	helpers := []helper{
		{name: "Intn", draw: func(s *Source) any { return s.Intn(1000) }},
		{name: "Float64", draw: func(s *Source) any { return s.Float64() }},
		{name: "Bool", draw: func(s *Source) any { return s.Bool(0.3) }},
		{name: "Range", draw: func(s *Source) any { return s.Range(-5, 5) }},
		{name: "Geometric", draw: func(s *Source) any { return s.Geometric(0.2) }},
		{name: "Shuffle", draw: func(s *Source) any {
			out := append([]string(nil), items...)
			s.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
			return out
		}},
		{name: "Pick", draw: func(s *Source) any { return Pick(s, items) }},
		{name: "Weighted", draw: func(s *Source) any { return weights.Sample(s) }},
		{name: "Word", draw: func(s *Source) any { return s.Word(3, 20) }},
		{name: "Token", draw: func(s *Source) any { return s.Token(24) }},
		{
			name: "AppendWord",
			draw: func(s *Source) any { return string(s.AppendWord([]byte("x"), 3, 20)) },
			ref:  func(s *Source) any { return "x" + s.Word(3, 20) },
		},
		{
			name: "AppendToken",
			draw: func(s *Source) any { return string(s.AppendToken([]byte("x"), 24)) },
			ref:  func(s *Source) any { return "x" + s.Token(24) },
		},
	}
	reused := 0
	for _, h := range helpers {
		ref := h.ref
		if ref == nil {
			ref = h.draw
		}
		for trial := 0; trial < 8; trial++ {
			// The previous user of the pooled source stops mid-stream.
			prev := parent.Borrow("previous-user")
			for i := 0; i < 3+trial*7; i++ {
				prev.Float64()
				prev.Float64()
			}
			prev.Release()

			got := parent.Borrow("page:", "host.sim", "/p")
			if got == prev {
				reused++
			}
			want := parent.Sub("page:host.sim/p")
			if got.Seed() != want.Seed() {
				t.Fatalf("%s: borrowed seed %d, Sub seed %d", h.name, got.Seed(), want.Seed())
			}
			for i := 0; i < 50; i++ {
				if g, w := h.draw(got), ref(want); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s trial %d draw %d: borrowed %v, Sub %v", h.name, trial, i, g, w)
				}
			}
			got.Release()
		}
	}
	if reused == 0 {
		t.Fatal("no Borrow reused a released source; the reseed path went untested")
	}
}
