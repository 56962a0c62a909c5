package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"strconv"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	oneToTen := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{oneToTen, 0.5, 5},
		{oneToTen, 0.9, 9},
		{oneToTen, 0.95, 10},
		{oneToTen, 0.99, 10},
		{oneToTen, 0.01, 1},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{1, 2, 3, 4}, 0.5, 2},
		{[]float64{1, 2, 3, 4}, 0.75, 3},
		{[]float64{42}, 0.99, 42},
		{nil, 0.5, 0},
	} {
		if got := percentile(tc.xs, tc.q); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.xs, tc.q, got, tc.want)
		}
	}
	if oneToTen[0] != 10 {
		t.Errorf("percentile reordered its input: %v", oneToTen)
	}
}

func TestStudySeedsDeterministic(t *testing.T) {
	recorded := seedRange(40)
	a := studySeeds(7, "paper-report", recorded)
	if b := studySeeds(7, "paper-report", recorded); !reflect.DeepEqual(a, b) {
		t.Fatalf("same workload seed, different study seeds:\n%v\n%v", a, b)
	}
	if reflect.DeepEqual(a, studySeeds(8, "paper-report", recorded)) {
		t.Errorf("workload seeds 7 and 8 give the same study seeds %v", a)
	}
	sorted := slices.Clone(a)
	slices.Sort(sorted)
	if !reflect.DeepEqual(sorted, recorded) {
		t.Errorf("study seeds %v are not a permutation of the recorded ones", a)
	}
}

func TestScanScheduleDeterministic(t *testing.T) {
	pool := make([]string, 100)
	for i := range pool {
		pool[i] = "http://example.test/" + string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	a := scanSchedule(3, pool, 50, scanBatch, scanSkew)
	if b := scanSchedule(3, pool, 50, scanBatch, scanSkew); !reflect.DeepEqual(a, b) {
		t.Fatal("same workload seed, different URL schedules")
	}
	if reflect.DeepEqual(a, scanSchedule(4, pool, 50, scanBatch, scanSkew)) {
		t.Error("workload seeds 3 and 4 give the same URL schedule")
	}
	if longer := scanSchedule(3, pool, 80, scanBatch, scanSkew); !reflect.DeepEqual(a, longer[:50]) {
		t.Error("a longer schedule does not extend the shorter one")
	}
}

func TestZipfFavoursLowRanks(t *testing.T) {
	z := newZipf(1000, scanSkew)
	r := inputRNG(1, "test")
	counts := make([]int, 1000)
	for i := 0; i < 100000; i++ {
		counts[z.draw(r)]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[500] {
		t.Errorf("rank counts not decreasing: rank 0 %d, rank 10 %d, rank 500 %d", counts[0], counts[10], counts[500])
	}
}

// TestScanPoolToCacheRatio pins the scan-api working set at about twice
// the verdict cache, for the universes the first workload seeds build.
func TestScanPoolToCacheRatio(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		env, err := newScanEnv(seed, inputRNG(seed, "scan-api/study").Uint64N(1000)+1)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		distinct := map[string]bool{}
		for _, u := range env.pool {
			distinct[u] = true
		}
		if r := float64(len(distinct)) / scanCacheCapacity; r < 1.8 || r > 2.2 {
			t.Errorf("seed %d: %d distinct pool URLs for a %d-entry cache (ratio %.2f, want about 2)",
				seed, len(distinct), scanCacheCapacity, r)
		}
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	units := func(ms []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	if got := units(spec.EndToEnd); !reflect.DeepEqual(got, endToEndUnits) {
		t.Errorf("BENCHMARK.json end_to_end %v\ndiffers from endToEndUnits %v", got, endToEndUnits)
	}
	if got := units(spec.PerLayer); !reflect.DeepEqual(got, perLayerUnits) {
		t.Errorf("BENCHMARK.json per_layer %v\ndiffers from perLayerUnits %v", got, perLayerUnits)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
}

// TestGoldensCoverSeeds checks golden.json records every study seed a
// workload can visit.
func TestGoldensCoverSeeds(t *testing.T) {
	for _, k := range []studyKind{paperReport, longitudinal} {
		for _, seed := range k.seeds {
			cfg := k.config(seed, nil)
			want := 1
			if cfg.Epochs > 1 {
				want = cfg.Epochs + 1
			}
			if got := len(goldens[k.name][strconv.FormatUint(seed, 10)]); got != want {
				t.Errorf("%s seed %d: golden.json records %d hashes, want %d", k.name, seed, got, want)
			}
		}
	}
}
