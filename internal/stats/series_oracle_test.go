package stats

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/testutil"
)

// refSeries is the reference Figure 3 series the bit-packed Series must
// agree with: the cumulative count after each observation, one int per
// observation, with Bursts and Downsample computed straight from it.
type refSeries []int

func (r refSeries) observe(hit bool) refSeries {
	last := 0
	if len(r) > 0 {
		last = r[len(r)-1]
	}
	if hit {
		last++
	}
	return append(r, last)
}

func (r refSeries) final() int {
	if len(r) == 0 {
		return 0
	}
	return r[len(r)-1]
}

// upTo is the cumulative count after the first m observations.
func (r refSeries) upTo(m int) int {
	if m == 0 {
		return 0
	}
	return r[m-1]
}

func (r refSeries) bursts(window int, factor float64) []Burst {
	n := len(r)
	if n == 0 || window <= 0 || window > n {
		return nil
	}
	threshold := max(float64(r.final())/float64(n)*factor, 0.5)
	var out []Burst
	start := -1
	for i := 0; i < n; i += window {
		end := min(i+window, n)
		if float64(r.upTo(end)-r.upTo(i))/float64(end-i) >= threshold {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			out = append(out, Burst{start, i, float64(r.upTo(i)-r.upTo(start)) / float64(i-start)})
			start = -1
		}
	}
	if start >= 0 {
		out = append(out, Burst{start, n, float64(r.upTo(n)-r.upTo(start)) / float64(n-start)})
	}
	return out
}

func (r refSeries) downsample(k int) []Point {
	n := len(r)
	if n == 0 || k <= 0 {
		return nil
	}
	k = min(k, n)
	out := make([]Point, k)
	for i := range out {
		x := (i + 1) * n / k
		out[i] = Point{x, r[x-1]}
	}
	return out
}

// packed is the checkpoint encoding of a series: bit j%8 of byte j/8 is
// set when observation j raised the count.
func (r refSeries) packed() []byte {
	out := make([]byte, (len(r)+7)/8)
	prev := 0
	for j, c := range r {
		if c > prev {
			out[j/8] |= 1 << (j % 8)
		}
		prev = c
	}
	return out
}

// randomSeries draws a series of n observations. Hits come in runs of a
// random density, so some windows burst and some do not.
func randomSeries(rng *rand.Rand, n int) (*Series, refSeries) {
	s, ref := NewSeries(), refSeries{}
	density := rng.Float64()
	for i := 0; i < n; i++ {
		if rng.Intn(50) == 0 {
			density = rng.Float64()
		}
		hit := rng.Float64() < density
		s.Observe(hit)
		ref = ref.observe(hit)
	}
	return s, ref
}

// checkAgainstRef compares every read of s with the reference.
func checkAgainstRef(t *testing.T, what string, s *Series, ref refSeries) {
	t.Helper()
	if s.Len() != len(ref) || s.Final() != ref.final() {
		t.Fatalf("%s: Len %d Final %d, want %d %d", what, s.Len(), s.Final(), len(ref), ref.final())
	}
	if got := s.Cumulative(); len(got) != len(ref) || len(ref) > 0 && !reflect.DeepEqual(got, []int(ref)) {
		t.Fatalf("%s: Cumulative differs from the reference", what)
	}
	for _, w := range []int{1, 7, 63, 64, 65, 100, len(ref)} {
		for _, f := range []float64{1.5, 3} {
			if got, want := s.Bursts(w, f), ref.bursts(w, f); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Bursts(%d, %v) = %v, want %v", what, w, f, got, want)
			}
		}
	}
	for _, k := range []int{1, 2, 10, 64, 200, len(ref), len(ref) + 1} {
		if got, want := s.Downsample(k), ref.downsample(k); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Downsample(%d) = %v, want %v", what, k, got, want)
		}
	}
	if got, want := s.Bits(), ref.packed(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Bits = %x, want %x", what, got, want)
	}
}

// TestSeriesMatchesReference checks the bit-packed Series against the
// reference at word boundaries and at seeded random lengths: Observe and
// every read, ObserveBits over the packed form (with stray high bits in
// the last byte), AppendSegment at every alignment and ConcatSeries.
func TestSeriesMatchesReference(t *testing.T) {
	rng := testutil.Rand(t)
	lengths := []int{0, 1, 63, 64, 65, 127, 128, 129, 1000}
	for i := 0; i < 12; i++ {
		lengths = append(lengths, rng.Intn(3000))
	}
	for _, n := range lengths {
		s, ref := randomSeries(rng, n)
		checkAgainstRef(t, "observed", s, ref)

		packed := ref.packed()
		if n%8 != 0 {
			packed[len(packed)-1] |= 0xff << (n % 8) // bits past n must be ignored
		}
		u := NewSeries()
		u.ObserveBits(packed, n)
		checkAgainstRef(t, "unpacked", u, ref)

		for _, m := range []int{0, 1, 63, 64, 65, rng.Intn(300)} {
			head, headRef := randomSeries(rng, m)
			joined := append(refSeries{}, headRef...)
			for _, c := range ref {
				joined = append(joined, headRef.final()+c)
			}
			head.AppendSegment(s)
			checkAgainstRef(t, "appended", head, joined)

			bits := NewSeries()
			bits.ObserveBits(headRef.packed(), m)
			bits.ObserveBits(packed, n)
			checkAgainstRef(t, "unpacked twice", bits, joined)
		}
		checkAgainstRef(t, "segment left alone", s, ref)

		cat := ConcatSeries(nil, u, nil)
		cat.AppendSegment(cat)
		twice := append(append(refSeries{}, ref...), ref...)
		for i := n; i < len(twice); i++ {
			twice[i] += ref.final()
		}
		checkAgainstRef(t, "self-appended", cat, twice)
	}
}
