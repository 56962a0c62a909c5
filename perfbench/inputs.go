package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"

	"repro/internal/web"
)

// Inputs are a pure function of the workload seed. They are drawn from
// the standard library's PCG rather than the program's own generator, so
// a change to the program can never change what the benchmark feeds it.

// inputRNG is the input stream for one workload at one seed.
func inputRNG(seed uint64, workload string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// studySeeds is the order a run visits the study seeds in: a seeded
// permutation of the recorded ones (golden.json), so every study the run
// executes has a report hash to check against.
func studySeeds(seed uint64, workload string, recorded []uint64) []uint64 {
	r := inputRNG(seed, workload)
	out := make([]uint64, len(recorded))
	for i, j := range r.Perm(len(recorded)) {
		out[i] = recorded[j]
	}
	return out
}

// zipf draws ranks 0..n-1 with P(k) proportional to 1/(k+1)^s. Unlike
// math/rand's Zipf it accepts s <= 1, the mild skew the scan pool needs.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(r *rand.Rand) int {
	u := r.Float64() * z.cdf[len(z.cdf)-1]
	return min(sort.SearchFloat64s(z.cdf, u), len(z.cdf)-1)
}

// scanPool picks size distinct page URLs of the universe (every page of
// every site, in a seeded order). Popularity rank k is pool[k].
func scanPool(u *web.Universe, seed uint64, size int) ([]string, error) {
	var pages []string
	for _, s := range u.Sites {
		pages = append(pages, s.PageURLs()...)
	}
	if len(pages) < size {
		return nil, fmt.Errorf("universe has %d pages, the scan pool needs %d", len(pages), size)
	}
	r := inputRNG(seed, "scan-api/pool")
	r.Shuffle(len(pages), func(i, j int) { pages[i], pages[j] = pages[j], pages[i] })
	return pages[:size], nil
}

// scanSchedule draws jobs batches of batch URLs from the pool with Zipf
// skew. The stream depends only on (seed, len(pool)), so a longer schedule
// extends a shorter one.
func scanSchedule(seed uint64, pool []string, jobs, batch int, skew float64) [][]string {
	r := inputRNG(seed, "scan-api/schedule")
	z := newZipf(len(pool), skew)
	out := make([][]string, jobs)
	for i := range out {
		out[i] = make([]string, batch)
		for j := range out[i] {
			out[i][j] = pool[z.draw(r)]
		}
	}
	return out
}
