package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs: the
// smallest sample with at least q of the samples at or below it. It does
// not reorder xs. An empty input yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1]
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runtimeSample reads the Go runtime's cumulative counters the benchmark
// reports: bytes allocated on the heap, GC cycles, and CPU time split into
// GC and total (total is GOMAXPROCS x wall time, idle included).
type runtimeSample struct {
	allocBytes float64
	gcCycles   float64
	gcCPU      float64
	totalCPU   float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	samples := make([]rtmetrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		samples[i].Name = n
	}
	rtmetrics.Read(samples)
	v := make([]float64, len(samples))
	for i, s := range samples {
		switch s.Value.Kind() {
		case rtmetrics.KindUint64:
			v[i] = float64(s.Value.Uint64())
		case rtmetrics.KindFloat64:
			v[i] = s.Value.Float64()
		}
	}
	return runtimeSample{allocBytes: v[0], gcCycles: v[1], gcCPU: v[2], totalCPU: v[3]}
}

func (s runtimeSample) sub(o runtimeSample) runtimeSample {
	return runtimeSample{
		allocBytes: s.allocBytes - o.allocBytes,
		gcCycles:   s.gcCycles - o.gcCycles,
		gcCPU:      s.gcCPU - o.gcCPU,
		totalCPU:   s.totalCPU - o.totalCPU,
	}
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB, or 0 where
// /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// setRuntimeLayer reports GC activity over a measured phase.
func setRuntimeLayer(m metrics, d runtimeSample) {
	m.set("runtime.gc_cycles", d.gcCycles, "count")
	m.set("runtime.gc_cpu_fraction", ratio(d.gcCPU, d.totalCPU), "ratio")
}

// procs is the number of Ps the workload runs on.
func procs() float64 { return float64(runtime.GOMAXPROCS(0)) }
