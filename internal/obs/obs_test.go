package obs

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
)

func TestCounterConcurrent(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	reg := NewRegistry()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				reg.Counter("events").Inc()
				reg.Counter("batch").Add(3)
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("events").Value(); got != workers*perWorker {
		t.Fatalf("events = %d, want %d", got, workers*perWorker)
	}
	if got := reg.Counter("batch").Value(); got != 3*workers*perWorker {
		t.Fatalf("batch = %d, want %d", got, 3*workers*perWorker)
	}
}

func TestCounterIdentity(t *testing.T) {
	reg := NewRegistry()
	a, b := reg.Counter("same"), reg.Counter("same")
	if a != b {
		t.Fatal("same name must return the same counter")
	}
	if reg.Counter("other") == a {
		t.Fatal("different names must return different counters")
	}
}

func TestGauge(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("pool")
	g.Set(5)
	if g.Value() != 5 {
		t.Fatalf("after Set(5): %d", g.Value())
	}
	g.Set(3)
	if g.Value() != 3 {
		t.Fatalf("after Set(3): %d", g.Value())
	}
}

func TestHistogramStats(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.Stats()
	if s.Count != 100 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("count/min/max = %d/%v/%v", s.Count, s.Min, s.Max)
	}
	if s.Mean != 50.5 {
		t.Fatalf("mean = %v, want 50.5", s.Mean)
	}
	if s.P50 != 50 || s.P95 != 95 || s.P99 != 99 {
		t.Fatalf("p50/p95/p99 = %v/%v/%v, want 50/95/99", s.P50, s.P95, s.P99)
	}
}

func TestHistogramWindowing(t *testing.T) {
	h := newHistogram()
	// Overflow the window: the first histWindow observations are huge,
	// then a full window of small ones displaces them. Quantiles must
	// reflect only the recent window; count/sum/min/max span everything.
	for i := 0; i < histWindow; i++ {
		h.Observe(1000)
	}
	for i := 0; i < histWindow; i++ {
		h.Observe(1)
	}
	s := h.Stats()
	if s.Count != 2*histWindow {
		t.Fatalf("count = %d, want %d", s.Count, 2*histWindow)
	}
	if s.Min != 1 || s.Max != 1000 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.P50 != 1 || s.P99 != 1 {
		t.Fatalf("windowed quantiles = p50=%v p99=%v, want 1/1", s.P50, s.P99)
	}
}

func TestHistogramDuration(t *testing.T) {
	h := newHistogram()
	h.ObserveDuration(1500 * time.Millisecond)
	if s := h.Stats(); s.Sum != 1.5 {
		t.Fatalf("sum = %v, want 1.5", s.Sum)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	reg := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				reg.Histogram("h").Observe(1)
				reg.Snapshot() // snapshots race against observers by design
			}
		}()
	}
	wg.Wait()
	if s := reg.Histogram("h").Stats(); s.Count != 4000 {
		t.Fatalf("count = %d, want 4000", s.Count)
	}
}

func TestQuantileEdge(t *testing.T) {
	if q := quantile(nil, 0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
	if q := quantile([]float64{7}, 0.0); q != 7 {
		t.Fatalf("single-sample q0 = %v", q)
	}
	if q := quantile([]float64{1, 2}, 1.0); q != 2 {
		t.Fatalf("q1 = %v", q)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("z.last").Inc()
	reg.Counter("a.first").Add(2)
	reg.Gauge("m.mid").Set(9)
	reg.Histogram("h.one").Observe(1)
	snap := reg.Snapshot()
	if len(snap.Counters) != 2 || snap.Counters[0].Name != "a.first" || snap.Counters[1].Name != "z.last" {
		t.Fatalf("counters not sorted: %+v", snap.Counters)
	}
	if snap.Counters[0].Value != 2 {
		t.Fatalf("a.first = %d", snap.Counters[0].Value)
	}
	if len(snap.Gauges) != 1 || snap.Gauges[0].Value != 9 {
		t.Fatalf("gauges: %+v", snap.Gauges)
	}
	if len(snap.Histograms) != 1 || snap.Histograms[0].Count != 1 {
		t.Fatalf("histograms: %+v", snap.Histograms)
	}
	if snap.Runtime.Goroutines <= 0 {
		t.Fatalf("runtime stats missing: %+v", snap.Runtime)
	}
}

// TestNilSafety locks in the no-op contract: instrumented code must never
// branch on whether observability is wired up.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	reg.Counter("c").Inc()
	reg.Counter("c").Add(5)
	if reg.Counter("c").Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
	reg.Gauge("g").Set(1)
	if reg.Gauge("g").Value() != 0 {
		t.Fatal("nil gauge must read 0")
	}
	reg.Histogram("h").Observe(1)
	reg.Histogram("h").ObserveDuration(time.Second)
	if s := reg.Histogram("h").Stats(); s.Count != 0 {
		t.Fatal("nil histogram must be empty")
	}
	snap := reg.Snapshot()
	if snap.Counters != nil || snap.Gauges != nil || snap.Histograms != nil {
		t.Fatal("nil registry snapshot must carry no metrics")
	}

	var tr *Tracer
	sp := tr.Start("scope", StageFetch)
	sp.End()
	tr.Observe("scope", StageScan, time.Second)
	if tr.Table() != nil {
		t.Fatal("nil tracer table must be nil")
	}
}

func TestHistogramNaNKeepsBounds(t *testing.T) {
	h := newHistogram()
	h.Observe(2)
	h.Observe(math.NaN())
	s := h.Stats()
	if s.Count != 2 {
		t.Fatalf("count = %d", s.Count)
	}
	// NaN comparisons are always false, so min/max keep the real bound.
	if s.Min != 2 || s.Max != 2 {
		t.Fatalf("min/max after NaN = %v/%v, want 2/2", s.Min, s.Max)
	}
}

// TestLazyCounter checks that a LazyCounter adds to the registry's counter
// of that name, appears in snapshots only once it has fired, exactly like
// a Registry.Counter call at the event, and is a no-op on a nil registry.
func TestLazyCounter(t *testing.T) {
	r := NewRegistry()
	l := r.Lazy("x.events")
	if n := len(r.Snapshot().Counters); n != 0 {
		t.Fatalf("%d counters registered before the first increment", n)
	}
	for i := 0; i < 3; i++ {
		l.Inc()
	}
	r.Counter("x.events").Inc()
	if got := r.Counter("x.events").Value(); got != 4 {
		t.Fatalf("x.events = %d, want 4", got)
	}
	var nilReg *Registry
	nl := nilReg.Lazy("x.events")
	nl.Inc()
}
